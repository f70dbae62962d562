(* Peterson arbitration-tree (tournament) lock — read/write only.

   Processes climb a binary tree; at each node the two subtree winners run
   Peterson's 2-process algorithm (flag/turn per node, one fence per
   node). A passage costs O(log n) reads/writes and O(log n) fences, and
   O(log n) RMRs in the CC models (the node spin re-reads hit the cache
   until the rival commits). This is the zoo's non-adaptive read/write
   O(log n) baseline, standing in for the Yang–Anderson tournament, whose
   single-spin-cell signalling protocol is out of scope here (its DSM
   local-spin property is the only difference relevant to the paper's
   metrics; the fence and CC-RMR profiles match).

   On TSO, Peterson requires the flag/turn writes to be published before
   reading the rival's flag — the fence below; this is the classic
   store-buffering pitfall the simulator's litmus example demonstrates. *)

open Tsim
open Prog

let next_pow2 n =
  let rec go x = if x >= n then x else go (2 * x) in
  go 1

(* [pso_safe] inserts a fence between the flag and turn writes: Peterson
   relies on the flag being visible no later than the turn, which TSO's
   FIFO buffers give for free and PSO does not — without this fence the
   PSO adversary commits turn first and two processes pass the same node
   (see suite_pso / experiment E13). The extra fence doubles the
   per-node fence count: a concrete instance of the PSO fence tax the
   Discussion section quantifies. *)
let make ?(pso_safe = false) ~n () : Lock_intf.t =
  let l = max 2 (next_pow2 n) in
  let layout = Layout.create () in
  let flags = Layout.matrix layout ~init:0 "flag" l 2 in
  let turn = Layout.array layout ~init:0 "turn" l in
  let path =
    Array.init n (fun p ->
        let rec climb node acc =
          if node <= 1 then List.rev acc
          else climb (node / 2) ((node / 2, node mod 2) :: acc)
        in
        climb (l + p) [])
  in
  (* A node's variable ids are looked up before its closures are built,
     so a continuation captures three ids, not the lock's tables (see
     the Lock_intf header). Peterson: wait while the rival is interested
     and it is my turn to yield. *)
  let acquire_node (node, side) =
    let own = flags.(node).(side) and rival = flags.(node).(1 - side) in
    let turn = turn.(node) in
    let* () = write own 1 in
    let* () = if pso_safe then fence else unit in
    let* () = write turn side in
    (* giving way: the LAST process to write turn waits *)
    let* () = fence in
    let rec await fuel =
      if fuel <= 0 then raise (Prog.Spin_exhausted turn)
      else
        let* r = read rival in
        if r = 0 then unit
        else
          let* t = read turn in
          if t <> side then unit else await (fuel - 1)
    in
    await !Tsim.Prog.default_spin_fuel
  in
  let release_node (node, side) =
    let* () = write flags.(node).(side) 0 in
    fence
  in
  let entry p = seq (List.map acquire_node path.(p)) in
  let exit_section p = seq (List.map release_node (List.rev path.(p))) in
  {
    Lock_intf.name = (if pso_safe then "tournament-pso" else "tournament");
    uses_rmw = false;
    one_time = false;
    adaptive = false;
    layout;
    entry;
    exit_section;
    recovery = None;
    abort = None;
  }

let family = Lock_intf.make_family "tournament" (fun ~n -> make ~n ())

let family_pso =
  Lock_intf.make_family "tournament-pso" (fun ~n -> make ~pso_safe:true ~n ())
