(* Cascade lock: unbounded-contention adaptive read/write mutual
   exclusion (one-time) — the full Kim-Anderson shape.

   Renaming grids of geometrically growing side d0, 2·d0, 4·d0, ... are
   tried in order; with contention k a process stops in the first grid of
   side ≥ ~2k after O(k) splitter steps. The grid's claimed cell is a
   leaf of that stage's Peterson tournament, and the O(log n) stage
   winners (plus a pid-indexed slow-path tournament as a safety net)
   arbitrate in one final tournament over the stages.

   Complexity of a passage at total contention k:
     RMRs   O(k)  renaming  +  O(log k)  stage tree  +  O(log log n)  arbitration
     fences O(k)  (two per splitter)     +  O(log k)  +  O(log log n)

   The Θ(log log n) arbitration term is not an accident: Corollary 2
   proves any linear-adaptive implementation must execute Ω(log log N)
   fences in some passage, so this upper bound has matching shape — the
   cascade is the tradeoff's constructive face. *)

open Tsim
open Prog

type claim = Fast of int * int  (* stage, name *) | Slow

let make ?(d0 = 4) ~n () : Lock_intf.t =
  let layout = Layout.create () in
  (* stage sides: d0, 2 d0, ... until one side covers any contention *)
  let sides =
    let rec go d acc = if d >= 2 * n then List.rev (d :: acc) else go (2 * d) (d :: acc) in
    Array.of_list (go d0 [])
  in
  let m = Array.length sides in
  let grids = Array.map (fun side -> Splitter.make_grid layout ~side) sides in
  let stage_trees =
    Array.mapi
      (fun i side ->
        Peterson_kit.tournament_over layout
          (Printf.sprintf "stage%d" i)
          ~leaves:(side * side))
      sides
  in
  let slow_tree = Peterson_kit.tournament_over layout "slow" ~leaves:n in
  (* arbitration over the m stage winners + the slow-path winner *)
  let arb_entry, arb_exit =
    Peterson_kit.tournament_over layout "arb" ~leaves:(m + 1)
  in
  let claims = Array.make n Slow in
  let entry p =
    let rec try_stage i =
      if i >= m then
        (* safety net; unreachable when the last side covers n *)
        let* () = (fst slow_tree) p in
        arb_entry m
      else
        let* name = Splitter.rename grids.(i) p in
        match name with
        | Some nm ->
            claims.(p) <- Fast (i, nm);
            let* () = (fst stage_trees.(i)) nm in
            arb_entry i
        | None -> try_stage (i + 1)
    in
    try_stage 0
  in
  let exit_section p =
    match claims.(p) with
    | Fast (i, nm) ->
        let* () = arb_exit i in
        (snd stage_trees.(i)) nm
    | Slow ->
        let* () = arb_exit m in
        (snd slow_tree) p
  in
  {
    Lock_intf.name = "cascade";
    uses_rmw = false;
    one_time = true;
    adaptive = true;
    layout;
    entry;
    exit_section;
    recovery = None;
    abort = None;
  }

let family = Lock_intf.make_family "cascade" (fun ~n -> make ~n ())
