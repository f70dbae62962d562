(* Flat open-addressing cell table. The hot path — [record] — is one
   tick read, one packed-key computation, one linear probe and four
   integer bumps; no allocation, no boxing (keys and counters live in
   int arrays).

   Packed cell key (fits a 63-bit immediate, always >= 0):

     bits 0..2    move class   (<= 8 classes)
     bits 3..5    section      (<= 8 sections)
     bits 6..11   depth band   (log2 bucket, < 64)
     bits 12..59  loc          (pending-operation digest, low 48 bits)
*)

external ticks : unit -> int = "pa_obs_ticks" [@@noalloc]

type t = {
  classes : string array;
  sections : string array;
  every : int; (* record 1 in [every] nodes; 1 = exact attribution *)
  mutable arm : int; (* countdown to the next armed record *)
  mutable keys : int array; (* -1 = empty slot *)
  mutable vals : int array; (* 4 per slot: nodes, ticks, undo, rmrs *)
  mutable mask : int;
  mutable count : int;
  mutable last_ticks : int; (* -1 until the first record *)
  (* summable calibration: total wall ns and total raw ticks observed
     across start/stop windows; merge adds both sides *)
  mutable cal_ns : float;
  mutable cal_ticks : float;
  mutable t0_wall : float;
  mutable t0_ticks : int;
  mutable running : bool;
}

let create ?(every = 1) ~classes ~sections () =
  if Array.length classes > 8 then
    invalid_arg "Profile.create: more than 8 classes";
  if Array.length sections > 8 then
    invalid_arg "Profile.create: more than 8 sections";
  let cap = 256 in
  {
    classes = Array.copy classes;
    sections = Array.copy sections;
    every = max 1 every;
    arm = 1;
    keys = Array.make cap (-1);
    vals = Array.make (4 * cap) 0;
    mask = cap - 1;
    count = 0;
    last_ticks = -1;
    cal_ns = 0.;
    cal_ticks = 0.;
    t0_wall = 0.;
    t0_ticks = 0;
    running = false;
  }

let classes t = Array.copy t.classes
let sections t = Array.copy t.sections
let every t = t.every

(* Sampling gate, called once per candidate node: fires on the first
   call and then once per [every] calls. The caller skips the whole
   attribution read (location digest, RMR footprint, tick read) for
   un-armed nodes, which is what makes strided profiling cheap — the
   per-node cost of a disarmed node is this decrement. *)
let[@inline] armed t =
  let a = t.arm - 1 in
  if a = 0 then begin
    t.arm <- t.every;
    true
  end
  else begin
    t.arm <- a;
    false
  end

(* True when the NEXT [armed] call will fire: pre-state reads that feed
   the next record (move class, RMR footprint) are gated on this. *)
let[@inline] next_armed t = t.arm = 1

let band_of_depth d =
  let rec go b d = if d = 0 then b else go (b + 1) (d lsr 1) in
  if d <= 0 then 0 else go 0 d

let band_label i =
  if i = 0 then "0"
  else if i = 1 then "1"
  else Printf.sprintf "%d-%d" (1 lsl (i - 1)) ((1 lsl i) - 1)

let pack ~band ~cls ~section ~loc =
  ((loc land 0xFFFFFFFFFFFF) lsl 12)
  lor ((band land 63) lsl 6)
  lor ((section land 7) lsl 3)
  lor (cls land 7)

let key_band k = (k lsr 6) land 63
let key_section k = (k lsr 3) land 7
let key_cls k = k land 7
let key_loc k = k lsr 12

let hash_key k =
  let h = k lxor (k lsr 33) in
  h * 0x2545F4914F6CDD1D

let rec grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = 2 * (t.mask + 1) in
  t.keys <- Array.make cap (-1);
  t.vals <- Array.make (4 * cap) 0;
  t.mask <- cap - 1;
  t.count <- 0;
  Array.iteri
    (fun i k ->
      if k >= 0 then
        add_cell t k ~nodes:old_vals.((4 * i) + 0) ~tk:old_vals.((4 * i) + 1)
          ~undo:old_vals.((4 * i) + 2) ~rmr:old_vals.((4 * i) + 3))
    old_keys

and find_slot t key =
  let i = ref (hash_key key land t.mask) in
  while
    let k = t.keys.(!i) in
    k >= 0 && k <> key
  do
    i := (!i + 1) land t.mask
  done;
  if t.keys.(!i) >= 0 then !i
  else if 2 * (t.count + 1) > t.mask + 1 then begin
    (* load factor 1/2: double and retry; the rehash leaves the new
       table at most 1/4 full, so this recursion terminates at once *)
    grow t;
    find_slot t key
  end
  else begin
    t.keys.(!i) <- key;
    t.count <- t.count + 1;
    !i
  end

and add_cell t key ~nodes ~tk ~undo ~rmr =
  let i = find_slot t key in
  let b = 4 * i in
  t.vals.(b) <- t.vals.(b) + nodes;
  t.vals.(b + 1) <- t.vals.(b + 1) + tk;
  t.vals.(b + 2) <- t.vals.(b + 2) + undo;
  t.vals.(b + 3) <- t.vals.(b + 3) + rmr

(* One armed record stands for the [every] nodes of its window: the
   node count and the (sampled) RMR charge scale by the stride, elapsed
   ticks and the undo-record delta are window totals already — the
   caller accumulates them across disarmed nodes — so the profile's
   tick and undo totals stay exact at any stride. With [every = 1]
   (the default) everything is exact. *)
let record t ~depth ~cls ~section ~loc ~rmr ~undo =
  let now = ticks () in
  let dt =
    if t.last_ticks < 0 then 0
    else
      let d = now - t.last_ticks in
      if d < 0 then 0 else d
  in
  t.last_ticks <- now;
  let key = pack ~band:(band_of_depth depth) ~cls ~section ~loc in
  let i = find_slot t key in
  let b = 4 * i in
  t.vals.(b) <- t.vals.(b) + t.every;
  t.vals.(b + 1) <- t.vals.(b + 1) + dt;
  t.vals.(b + 2) <- t.vals.(b + 2) + undo;
  t.vals.(b + 3) <- t.vals.(b + 3) + (rmr * t.every)

let start t =
  t.t0_wall <- Unix.gettimeofday ();
  t.t0_ticks <- ticks ();
  t.last_ticks <- t.t0_ticks;
  t.running <- true

let stop t =
  if t.running then begin
    t.running <- false;
    let wall = Unix.gettimeofday () -. t.t0_wall in
    let tk = ticks () - t.t0_ticks in
    if wall > 0. && tk > 0 then begin
      t.cal_ns <- t.cal_ns +. (wall *. 1e9);
      t.cal_ticks <- t.cal_ticks +. float_of_int tk
    end
  end

let ns_per_tick t = if t.cal_ticks > 0. then t.cal_ns /. t.cal_ticks else 1.

let fold_cells t f acc =
  let acc = ref acc in
  Array.iteri
    (fun i k ->
      if k >= 0 then
        acc :=
          f !acc k ~nodes:t.vals.(4 * i)
            ~tk:t.vals.((4 * i) + 1)
            ~undo:t.vals.((4 * i) + 2)
            ~rmr:t.vals.((4 * i) + 3))
    t.keys;
  !acc

let total_nodes t = fold_cells t (fun a _ ~nodes ~tk:_ ~undo:_ ~rmr:_ -> a + nodes) 0

let same_schema a b = a.classes = b.classes && a.sections = b.sections

let absorb ~into src =
  if not (same_schema into src) then
    invalid_arg "Profile.absorb: schema mismatch";
  Array.iteri
    (fun i k ->
      if k >= 0 then
        add_cell into k ~nodes:src.vals.(4 * i)
          ~tk:src.vals.((4 * i) + 1)
          ~undo:src.vals.((4 * i) + 2)
          ~rmr:src.vals.((4 * i) + 3))
    src.keys;
  into.cal_ns <- into.cal_ns +. src.cal_ns;
  into.cal_ticks <- into.cal_ticks +. src.cal_ticks

let merge a b =
  if not (same_schema a b) then invalid_arg "Profile.merge: schema mismatch";
  let t = create ~classes:a.classes ~sections:a.sections () in
  absorb ~into:t a;
  absorb ~into:t b;
  t

(* ---- exports ------------------------------------------------------ *)

let sorted_cells t =
  let cells =
    fold_cells t
      (fun acc k ~nodes ~tk ~undo ~rmr -> (k, nodes, tk, undo, rmr) :: acc)
      []
  in
  List.sort (fun (k1, _, _, _, _) (k2, _, _, _, _) -> compare k1 k2) cells

let name arr i = if i < Array.length arr then arr.(i) else string_of_int i

let to_json ?(meta = []) t =
  let r = ns_per_tick t in
  let ns_of tk = Float.round (float_of_int tk *. r) in
  let cells = sorted_cells t in
  let tot_n, tot_tk, tot_u, tot_r =
    List.fold_left
      (fun (n, k, u, rr) (_, nodes, tk, undo, rmr) ->
        (n + nodes, k + tk, u + undo, rr + rmr))
      (0, 0, 0, 0) cells
  in
  Json.Obj
    [
      ("version", Json.Int 1);
      ("meta", Json.Obj meta);
      ( "classes",
        Json.List (Array.to_list (Array.map (fun s -> Json.String s) t.classes))
      );
      ( "sections",
        Json.List
          (Array.to_list (Array.map (fun s -> Json.String s) t.sections)) );
      ( "totals",
        Json.Obj
          [
            ("nodes", Json.Int tot_n);
            ("ns", Json.Float (ns_of tot_tk));
            ("undo", Json.Int tot_u);
            ("rmrs", Json.Int tot_r);
          ] );
      ( "cells",
        Json.List
          (List.map
             (fun (k, nodes, tk, undo, rmr) ->
               Json.Obj
                 [
                   ("band", Json.Int (key_band k));
                   ("depth", Json.String (band_label (key_band k)));
                   ("class", Json.String (name t.classes (key_cls k)));
                   ("section", Json.String (name t.sections (key_section k)));
                   ("loc", Json.Int (key_loc k));
                   ("nodes", Json.Int nodes);
                   ("ns", Json.Float (ns_of tk));
                   ("undo", Json.Int undo);
                   ("rmrs", Json.Int rmr);
                 ])
             cells) );
    ]

let of_json j =
  let open Json in
  let strings = function
    | Some (List l) ->
        Ok
          (Array.of_list
             (List.map (function String s -> s | _ -> "") l))
    | _ -> Error "missing schema array"
  in
  let index arr s =
    let r = ref (-1) in
    Array.iteri (fun i x -> if x = s && !r < 0 then r := i) arr;
    !r
  in
  match j with
  | Obj _ -> (
      match (strings (member "classes" j), strings (member "sections" j)) with
      | Error e, _ | _, Error e -> Error e
      | Ok classes, Ok sections -> (
          match member "cells" j with
          | Some (List cells) -> (
              let t = create ~classes ~sections () in
              let bad = ref None in
              List.iter
                (fun c ->
                  if !bad = None then
                    let geti f =
                      match member f c with
                      | Some (Int i) -> i
                      | Some (Float x) -> int_of_float x
                      | _ -> -1
                    in
                    let gets f =
                      match member f c with Some (String s) -> s | _ -> ""
                    in
                    let band = geti "band"
                    and loc = geti "loc"
                    and nodes = geti "nodes"
                    and undo = geti "undo"
                    and rmr = geti "rmrs" in
                    let ns =
                      match member "ns" c with
                      | Some (Float x) -> int_of_float x
                      | Some (Int i) -> i
                      | _ -> -1
                    in
                    let cls = index classes (gets "class")
                    and section = index sections (gets "section") in
                    if
                      band < 0 || band > 63 || loc < 0 || nodes < 0 || undo < 0
                      || rmr < 0 || ns < 0 || cls < 0 || section < 0
                    then bad := Some "malformed cell"
                    else
                      add_cell t
                        (pack ~band ~cls ~section ~loc)
                        ~nodes ~tk:ns ~undo ~rmr)
                cells;
              match !bad with
              | Some e -> Error e
              | None ->
                  (* ticks were stored as calibrated ns: unit calibration *)
                  let tot = fold_cells t (fun a _ ~nodes:_ ~tk ~undo:_ ~rmr:_ -> a + tk) 0 in
                  let c = float_of_int (max 1 tot) in
                  t.cal_ns <- c;
                  t.cal_ticks <- c;
                  Ok t)
          | _ -> Error "missing cells array"))
  | _ -> Error "expected a profile object"

let loc_label k = Printf.sprintf "k:%x" (key_loc k)

let folded ?(weight = `Nodes) t =
  let r = ns_per_tick t in
  let lines =
    fold_cells t
      (fun acc k ~nodes ~tk ~undo:_ ~rmr:_ ->
        let count =
          match weight with
          | `Nodes -> nodes
          | `Ns -> int_of_float (Float.round (float_of_int tk *. r))
        in
        if count <= 0 then acc
        else
          Printf.sprintf "depth:%s;%s;%s;%s %d"
            (band_label (key_band k))
            (name t.sections (key_section k))
            (name t.classes (key_cls k))
            (loc_label k) count
          :: acc)
      []
  in
  String.concat "" (List.map (fun l -> l ^ "\n") (List.sort compare lines))

(* ---- diff --------------------------------------------------------- *)

let group_contribs t =
  (* (section, class) -> (ns, nodes), plus overall totals *)
  let tbl = Hashtbl.create 16 in
  let r = ns_per_tick t in
  let tot_n, tot_ns =
    fold_cells t
      (fun (n, ns) k ~nodes ~tk ~undo:_ ~rmr:_ ->
        let g = (key_section k, key_cls k) in
        let gns, gn = try Hashtbl.find tbl g with Not_found -> (0., 0) in
        Hashtbl.replace tbl g
          (gns +. (float_of_int tk *. r), gn + nodes);
        (n + nodes, ns +. (float_of_int tk *. r)))
      (0, 0.)
  in
  (tbl, tot_n, tot_ns)

let diff a b =
  if not (same_schema a b) then invalid_arg "Profile.diff: schema mismatch";
  let ga, na, nsa = group_contribs a in
  let gb, nb, nsb = group_contribs b in
  if na = 0 || nb = 0 then invalid_arg "Profile.diff: empty profile";
  let pna = nsa /. float_of_int na and pnb = nsb /. float_of_int nb in
  let delta_pct = (pnb -. pna) /. pna *. 100. in
  let gname (s, c) =
    Printf.sprintf "%s/%s" (name a.sections s) (name a.classes c)
  in
  let keys =
    let add tbl acc = Hashtbl.fold (fun g _ acc -> if List.mem g acc then acc else g :: acc) tbl acc in
    List.sort compare (add gb (add ga []))
  in
  let groups =
    List.map
      (fun g ->
        let cna, ca_nodes = try Hashtbl.find ga g with Not_found -> (0., 0) in
        let cnb, cb_nodes = try Hashtbl.find gb g with Not_found -> (0., 0) in
        let pa = cna /. float_of_int na and pb = cnb /. float_of_int nb in
        ( g,
          pa,
          pb,
          pb -. pa,
          float_of_int ca_nodes /. float_of_int na,
          float_of_int cb_nodes /. float_of_int nb ))
      keys
  in
  (* regressions first when b is slower, improvements first otherwise;
     ties on the group name keep the order deterministic *)
  let sign = if delta_pct >= 0. then -1. else 1. in
  let groups =
    List.sort
      (fun (g1, _, _, d1, _, _) (g2, _, _, d2, _, _) ->
        match compare (sign *. d1) (sign *. d2) with
        | 0 -> compare g1 g2
        | c -> c)
      groups
  in
  let movers =
    List.filteri (fun i _ -> i < 3) (List.filter (fun (_, _, _, d, _, _) -> Float.abs d >= 0.05) groups)
  in
  let verdict =
    let head =
      if Float.abs delta_pct < 1. then
        Printf.sprintf "~unchanged %+.1f%% (%.1f -> %.1f ns/node)" delta_pct
          pna pnb
      else if delta_pct > 0. then
        Printf.sprintf "regressed %+.1f%% (%.1f -> %.1f ns/node)" delta_pct pna
          pnb
      else
        Printf.sprintf "improved %+.1f%% (%.1f -> %.1f ns/node)" delta_pct pna
          pnb
    in
    match movers with
    | [] -> head
    | ms ->
        head ^ "; top: "
        ^ String.concat ", "
            (List.map
               (fun (g, _, _, d, _, _) ->
                 Printf.sprintf "%s %+.1f ns/node" (gname g) d)
               ms)
  in
  let report =
    Json.Obj
      [
        ( "a",
          Json.Obj
            [ ("nodes", Json.Int na); ("ns_per_node", Json.Float pna) ] );
        ( "b",
          Json.Obj
            [ ("nodes", Json.Int nb); ("ns_per_node", Json.Float pnb) ] );
        ("delta_pct", Json.Float delta_pct);
        ("verdict", Json.String verdict);
        ( "groups",
          Json.List
            (List.map
               (fun (g, pa, pb, d, sa, sb) ->
                 Json.Obj
                   [
                     ("group", Json.String (gname g));
                     ("a_ns_per_node", Json.Float pa);
                     ("b_ns_per_node", Json.Float pb);
                     ("delta_ns_per_node", Json.Float d);
                     ("a_node_share", Json.Float sa);
                     ("b_node_share", Json.Float sb);
                   ])
               groups) );
      ]
  in
  (report, verdict)
