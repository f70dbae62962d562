(* The profiling layer: the per-depth/class/section/location profile
   accumulator (exactly-once node attribution, deterministic shard merge
   laws, folded-stack export, JSON round-trip) and the profile diff
   (pinned fixture verdict). The load-bearing property throughout:
   profiling must never perturb the search — verdict, node count and
   fingerprint multiset are compared with instrumentation on and off. *)

open Tsim
open Tsim.Prog

(* --- reference workloads ------------------------------------------------ *)

let peterson () =
  let layout = Layout.create () in
  let flag = Layout.array layout ~init:0 "flag" 2 in
  let turn = Layout.var layout ~init:0 "turn" in
  Config.make ~model:Config.Cc_wb ~check_exclusion:true ~n:2 ~layout
    ~entry:(fun p ->
      let* () = write flag.(p) 1 in
      let* () = write turn p in
      let* () = fence in
      let rec await fuel =
        if fuel <= 0 then raise (Prog.Spin_exhausted turn)
        else
          let* f = read flag.(1 - p) in
          if f = 0 then unit
          else
            let* t = read turn in
            if t <> p then unit else await (fuel - 1)
      in
      await 4)
    ~exit_section:(fun p ->
      let* () = write flag.(p) 0 in
      fence)
    ()

(* Small DSM-model ticket lock: gives the profiler nonzero RMR cells. *)
let ticket_dsm () =
  let layout = Layout.create () in
  let next = Layout.var layout "next" in
  let serving = Layout.var layout "serving" in
  Config.make ~model:Config.Dsm ~check_exclusion:true ~n:2 ~layout
    ~entry:(fun _ ->
      let* t = faa next 1 in
      let* _ = spin_until ~fuel:4 serving (fun s -> s = t) in
      unit)
    ~exit_section:(fun _ ->
      let* s = read serving in
      let* () = write serving (s + 1) in
      fence)
    ()

(* --- profiling does not perturb the search ------------------------------ *)

let test_profile_no_perturbation () =
  let cfg = ticket_dsm () in
  let fps_of ?profile () =
    let acc = ref [] in
    let r =
      Mcheck.Explore.explore ~max_nodes:2_000_000 ?profile
        ~on_fingerprint:(fun fp -> acc := fp :: !acc)
        cfg
    in
    (r, List.sort compare !acc)
  in
  let r0, fp0 = fps_of () in
  let p = Mcheck.Explore.new_profile () in
  let r1, fp1 = fps_of ~profile:p () in
  Alcotest.(check bool) "verdict" r0.Mcheck.Explore.verified
    r1.Mcheck.Explore.verified;
  Alcotest.(check int) "nodes" r0.Mcheck.Explore.nodes
    r1.Mcheck.Explore.nodes;
  Alcotest.(check bool) "fingerprint multiset identical" true (fp0 = fp1)

(* --- exactly-once attribution ------------------------------------------- *)

let test_profile_totals_match_nodes () =
  let p = Mcheck.Explore.new_profile () in
  let r = Mcheck.Explore.explore ~max_nodes:2_000_000 ~profile:p (peterson ()) in
  Alcotest.(check bool) "exhausted" true r.Mcheck.Explore.exhausted;
  Alcotest.(check int) "profile nodes = search nodes" r.Mcheck.Explore.nodes
    (Obs.Profile.total_nodes p)

(* Strided sampling: with [~every:k] the gate fires on the first record
   and every k-th after, and each armed record books k nodes — so the
   scaled node total is exactly [k * ceil(nodes / k)], deterministic
   for a deterministic search. Time and undo totals stay exact-ish
   (whole windows are attributed; only the tail after the last armed
   record is dropped), which we bound rather than pin. *)
let test_profile_strided_totals () =
  List.iter
    (fun every ->
      let cfg = peterson () in
      let p = Mcheck.Explore.new_profile ~every () in
      let r = Mcheck.Explore.explore ~max_nodes:2_000_000 ~profile:p cfg in
      Alcotest.(check bool) "exhausted" true r.Mcheck.Explore.exhausted;
      let n = r.Mcheck.Explore.nodes in
      Alcotest.(check int)
        (Printf.sprintf "every=%d scaled nodes = every * ceil(nodes/every)"
           every)
        (every * ((n + every - 1) / every))
        (Obs.Profile.total_nodes p);
      (* exact run of the same space: undo totals of the strided run
         can only miss the tail window, never exceed the exact count *)
      let q = Mcheck.Explore.new_profile () in
      let r' = Mcheck.Explore.explore ~max_nodes:2_000_000 ~profile:q cfg in
      Alcotest.(check int) "same space" n r'.Mcheck.Explore.nodes;
      let undo p =
        match Obs.Profile.to_json p with
        | Obs.Json.Obj kvs -> (
            match List.assoc "totals" kvs with
            | Obs.Json.Obj t -> (
                match List.assoc "undo" t with
                | Obs.Json.Int u -> u
                | _ -> Alcotest.fail "undo total not an int")
            | _ -> Alcotest.fail "totals not an object")
        | _ -> Alcotest.fail "profile json not an object"
      in
      let exact = undo q and strided = undo p in
      if strided > exact then
        Alcotest.failf "every=%d strided undo %d > exact %d" every strided
          exact)
    [ 4; 16 ]

let test_profile_totals_match_nodes_parallel () =
  let cfg = peterson () in
  let p = Mcheck.Explore.new_profile () in
  let r =
    Mcheck.Explore.explore ~max_nodes:2_000_000 ~domains:2 ~profile:p cfg
  in
  Alcotest.(check bool) "exhausted" true r.Mcheck.Explore.exhausted;
  Alcotest.(check int) "profile nodes = search nodes" r.Mcheck.Explore.nodes
    (Obs.Profile.total_nodes p)

(* A helper hunting for work is idle, and its profile shard must not
   charge the hunt. Worker 0 (the calling domain) sleeps 200 ms in its
   first Enter, before it has parked any work, so the helper hunts that
   long before its first steal. The sleep is worker 0's busy time, so
   the absorbed total holds at least 200 ms. Worker 0 charges at most
   the call's wall time W, and a helper charging busy time only starts
   after the sleep, so the total is at most 2W − 200 ms (about 220 ms
   against a bound of about 300 on a 2-vCPU host). Charging the hunt,
   the helper's first window spans the sleep, and the total came to
   about 510 ms against a bound of about 350. *)
let test_profile_skips_hunting () =
  let lock = Locks.Mcs.family.Locks.Lock_intf.instantiate ~n:3 in
  let base = Locks.Harness.config_of_lock ~model:Config.Cc_wb lock ~n:3 in
  let caller = Domain.self () and slept = Atomic.make false in
  let entry p =
    if Domain.self () = caller && not (Atomic.exchange slept true) then
      Unix.sleepf 0.2;
    base.Config.entry p
  in
  let p = Mcheck.Explore.new_profile () in
  let t0 = Unix.gettimeofday () in
  let r =
    Mcheck.Explore.explore ~max_nodes:2_000_000 ~domains:2 ~profile:p
      { base with Config.entry }
  in
  let wall = Unix.gettimeofday () -. t0 in
  let s = r.Mcheck.Explore.stats in
  Alcotest.(check bool) "exhausted" true r.Mcheck.Explore.exhausted;
  Alcotest.(check bool) "worker 0 slept" true (Atomic.get slept);
  (match s.Mcheck.Explore.domain_nodes with
  | [ _; helper ] when helper > 0 && s.Mcheck.Explore.steals > 0 -> ()
  | _ -> Alcotest.fail "the helper ran no stolen work");
  let ns =
    match Obs.Profile.to_json p with
    | Obs.Json.Obj kvs -> (
        match List.assoc "totals" kvs with
        | Obs.Json.Obj t -> (
            match List.assoc "ns" t with
            | Obs.Json.Float f -> f
            | _ -> Alcotest.fail "ns total not a float")
        | _ -> Alcotest.fail "totals not an object")
    | _ -> Alcotest.fail "profile json not an object"
  in
  let bound = ((2. *. wall) -. 0.2) *. 1e9 in
  if ns < 0.2e9 then Alcotest.failf "%.0f ns: worker 0's sleep not charged" ns;
  if ns > bound then
    Alcotest.failf "%.0f ns > %.0f ns: the helper's hunt charged" ns bound

let test_profile_schema_guard () =
  let alien =
    Obs.Profile.create ~classes:[| "x" |] ~sections:[| "y" |] ()
  in
  match
    Mcheck.Explore.explore ~max_nodes:100 ~profile:alien (peterson ())
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "foreign-schema profile accepted"

(* --- shard merge laws --------------------------------------------------- *)

(* Random profiles as value lists; the laws are checked on the rendered
   JSON (sorted cells, summed counters), the same representation the
   parallel driver's deterministic merge must agree on. *)
let gen_records =
  QCheck.Gen.(
    list_size (int_bound 30)
      (map
         (fun (((depth, cls), (section, loc)), (rmr, undo)) ->
           (depth, cls, section, loc, rmr, undo))
         (pair
            (pair (pair (int_bound 40) (int_bound 5))
               (pair (int_bound 5) (int_bound 1000)))
            (pair (int_bound 3) (int_bound 12)))))

let profile_of_records rs =
  let t =
    Obs.Profile.create
      ~classes:[| "step"; "commit"; "crash"; "recover"; "abort"; "root" |]
      ~sections:[| "ncs"; "entry"; "exit"; "finished"; "crashed"; "aborting" |]
      ()
  in
  List.iter
    (fun (depth, cls, section, loc, rmr, undo) ->
      Obs.Profile.record t ~depth ~cls ~section ~loc ~rmr ~undo)
    rs;
  t

(* Tick deltas are wall-clock noise; compare the deterministic columns
   only (drop "ns" everywhere). *)
let rec strip_ns (j : Obs.Json.t) =
  match j with
  | Obs.Json.Obj kvs ->
      Obs.Json.Obj
        (List.filter_map
           (fun (k, v) -> if k = "ns" then None else Some (k, strip_ns v))
           kvs)
  | Obs.Json.List l -> Obs.Json.List (List.map strip_ns l)
  | j -> j

let stable t = strip_ns (Obs.Profile.to_json t)

let arb_records =
  QCheck.make
    ~print:(fun rs -> string_of_int (List.length rs) ^ " records")
    gen_records

let prop_merge_commutes =
  QCheck.Test.make ~count:100 ~name:"Profile.merge commutes"
    (QCheck.pair arb_records arb_records)
    (fun (ra, rb) ->
      let a = profile_of_records ra and b = profile_of_records rb in
      Obs.Json.equal
        (stable (Obs.Profile.merge a b))
        (stable (Obs.Profile.merge b a)))

let prop_merge_assoc =
  QCheck.Test.make ~count:100 ~name:"Profile.merge associates"
    (QCheck.triple arb_records arb_records arb_records)
    (fun (ra, rb, rc) ->
      let a = profile_of_records ra
      and b = profile_of_records rb
      and c = profile_of_records rc in
      Obs.Json.equal
        (stable (Obs.Profile.merge (Obs.Profile.merge a b) c))
        (stable (Obs.Profile.merge a (Obs.Profile.merge b c))))

let prop_merge_identity =
  QCheck.Test.make ~count:100 ~name:"Profile.merge identity"
    arb_records
    (fun ra ->
      let a = profile_of_records ra and z = profile_of_records [] in
      Obs.Json.equal (stable a) (stable (Obs.Profile.merge a z)))

(* --- folded export ------------------------------------------------------ *)

let folded_line_re line =
  (* depth:<band>;<section>;<class>;<loc> <count> *)
  match String.index_opt line ' ' with
  | None -> false
  | Some sp ->
      let stack = String.sub line 0 sp in
      let count = String.sub line (sp + 1) (String.length line - sp - 1) in
      String.length stack > 6
      && String.sub stack 0 6 = "depth:"
      && List.length (String.split_on_char ';' stack) = 4
      && (match int_of_string_opt count with
         | Some c -> c > 0
         | None -> false)

let test_folded_well_formed () =
  let p = Mcheck.Explore.new_profile () in
  let r = Mcheck.Explore.explore ~max_nodes:2_000_000 ~profile:p (ticket_dsm ()) in
  let out = Obs.Profile.folded ~weight:`Nodes p in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
  Alcotest.(check bool) "nonempty" true (lines <> []);
  List.iter
    (fun l ->
      if not (folded_line_re l) then Alcotest.failf "malformed line %S" l)
    lines;
  let total =
    List.fold_left
      (fun acc l ->
        let sp = String.index l ' ' in
        acc + int_of_string (String.sub l (sp + 1) (String.length l - sp - 1)))
      0 lines
  in
  Alcotest.(check int) "folded counts sum to node total"
    r.Mcheck.Explore.nodes total;
  (* sorted, no duplicate stacks *)
  let stacks = List.map (fun l -> String.sub l 0 (String.index l ' ')) lines in
  Alcotest.(check bool) "sorted unique" true
    (stacks = List.sort_uniq compare stacks)

(* --- JSON round-trip ---------------------------------------------------- *)

let test_profile_json_roundtrip () =
  let p = Mcheck.Explore.new_profile () in
  ignore (Mcheck.Explore.explore ~max_nodes:2_000_000 ~profile:p (peterson ()));
  let j1 = Obs.Profile.to_json p in
  match Obs.Profile.of_json j1 with
  | Error e -> Alcotest.failf "of_json: %s" e
  | Ok p2 -> (
      let j2 = Obs.Profile.to_json p2 in
      (* cells are bit-stable across the round trip (ns re-export under
         the unit calibration reproduces the stored integers) *)
      Alcotest.(check bool) "cells stable" true
        (Obs.Json.equal
           (Option.get (Obs.Json.member "cells" j1))
           (Option.get (Obs.Json.member "cells" j2)));
      Alcotest.(check int) "node total stable" (Obs.Profile.total_nodes p)
        (Obs.Profile.total_nodes p2);
      (* and the normalized form is a fixed point *)
      match Obs.Profile.of_json j2 with
      | Error e -> Alcotest.failf "second of_json: %s" e
      | Ok p3 ->
          Alcotest.(check bool) "normalized fixed point" true
            (Obs.Json.equal j2 (Obs.Profile.to_json p3)))

(* --- diff on the committed fixtures ------------------------------------- *)

let load_fixture name =
  let ic = open_in (Filename.concat "corpus" name) in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Obs.Json.parse s with
  | Error e -> Alcotest.failf "%s: %s" name e
  | Ok j -> (
      match Obs.Profile.of_json j with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok p -> p)

let test_diff_fixtures () =
  let a = load_fixture "profile_a.json" in
  let b = load_fixture "profile_b.json" in
  (* the fixtures still carry the boolean "pc" cell member of earlier
     profile versions; the loader ignores it and keeps every cell *)
  Alcotest.(check int) "fixture a: every cell loaded" 1500
    (Obs.Profile.total_nodes a);
  let report, verdict = Obs.Profile.diff a b in
  Alcotest.(check string) "pinned fixture verdict"
    "regressed +20.0% (333.3 -> 400.0 ns/node); top: entry/step +66.7 \
     ns/node"
    verdict;
  (* deterministic: a second diff renders byte-identically *)
  let report2, verdict2 = Obs.Profile.diff a b in
  Alcotest.(check string) "verdict deterministic" verdict verdict2;
  Alcotest.(check bool) "report deterministic" true
    (Obs.Json.equal report report2);
  (* self-diff is ~unchanged with no movers *)
  let _, self = Obs.Profile.diff a a in
  Alcotest.(check string) "self diff" "~unchanged +0.0% (333.3 -> 333.3 \
                                       ns/node)" self;
  (* the reverse direction improves by the same wall amount *)
  let _, back = Obs.Profile.diff b a in
  Alcotest.(check bool) "reverse improves" true
    (String.length back >= 8 && String.sub back 0 8 = "improved")

(* --- shared JSON renderers (CLI table unification) ---------------------- *)

let test_json_tables () =
  let kv =
    Obs.Json.pp_kv_table
      [ ("nodes", Obs.Json.Int 1500);
        ("verified", Obs.Json.Bool true);
        ("ns_per_node", Obs.Json.Float 411.25) ]
  in
  List.iter
    (fun needle ->
      if not (List.exists (fun l ->
          String.length l >= String.length needle
          && String.sub (String.trim l) 0 (min (String.length (String.trim l)) (String.length needle)) = needle)
          (String.split_on_char '\n' kv))
      then Alcotest.failf "kv table missing %S in %s" needle kv)
    [ "nodes"; "verified"; "ns_per_node" ];
  let rows =
    Obs.Json.pp_rows
      [ [ ("name", Obs.Json.String "a"); ("v", Obs.Json.Int 1) ];
        [ ("name", Obs.Json.String "b"); ("v", Obs.Json.Int 22) ];
      ]
  in
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' rows)
  in
  (* header + 2 rows *)
  Alcotest.(check int) "row count" 3 (List.length lines)

let suite =
  [
    Alcotest.test_case "profiling does not perturb the search" `Quick
      test_profile_no_perturbation;
    Alcotest.test_case "profile totals = node count (sequential)" `Quick
      test_profile_totals_match_nodes;
    Alcotest.test_case "strided profile: scaled totals, bounded undo" `Quick
      test_profile_strided_totals;
    Alcotest.test_case "profile totals = node count (parallel)" `Quick
      test_profile_totals_match_nodes_parallel;
    Alcotest.test_case "parallel profile skips the helper's hunt" `Quick
      test_profile_skips_hunting;
    Alcotest.test_case "foreign profile schema rejected" `Quick
      test_profile_schema_guard;
    QCheck_alcotest.to_alcotest prop_merge_commutes;
    QCheck_alcotest.to_alcotest prop_merge_assoc;
    QCheck_alcotest.to_alcotest prop_merge_identity;
    Alcotest.test_case "folded export well-formed" `Quick
      test_folded_well_formed;
    Alcotest.test_case "profile JSON round-trip" `Quick
      test_profile_json_roundtrip;
    Alcotest.test_case "profile diff fixtures" `Quick test_diff_fixtures;
    Alcotest.test_case "shared JSON table renderers" `Quick test_json_tables;
  ]
