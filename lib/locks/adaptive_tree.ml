(* Bounded-adaptive read/write lock (one-time): Moir-Anderson renaming
   fast path + tournament slow path + 2-process arbitration.

   The shape of Kim-Anderson's adaptive mutex, reduced to one renaming
   stage (their full construction cascades these; DESIGN.md §6):

   - fast path: rename through a splitter grid of side [d0]; a claimed
     cell is a unique name, and the process competes in a Peterson
     tournament over the grid's d0² cells. With contention k ≲ d0/2 every
     contender stays on this path, costing O(k + log d0) reads/writes —
     independent of n.
   - slow path: a process that falls off the grid (contention too high)
     competes in the ordinary n-leaf tournament, costing O(log n).
   - arbitration: the two path winners run one more Peterson node.

   Exclusion is compositional: each tournament admits one winner at a
   time and the final node admits one of the two. The lock is read/write
   only, and adaptive-for-bounded-contention: solo passages cost O(1)
   (a lone process stops at cell (0,0) immediately). *)

open Tsim
open Prog

type path_state = { mutable name : int option }

let make ?(d0 = 4) ~n () : Lock_intf.t =
  let layout = Layout.create () in
  let grid = Splitter.make_grid layout ~side:d0 in
  let fast_entry, fast_exit =
    Peterson_kit.tournament_over layout "fast" ~leaves:(d0 * d0)
  in
  let slow_entry, slow_exit = Peterson_kit.tournament_over layout "slow" ~leaves:n in
  let final_acquire, final_release = Peterson_kit.peterson_node layout "final" in
  let states = Array.init n (fun _ -> { name = None }) in
  let entry p =
    let* name = Splitter.rename grid p in
    states.(p).name <- name;
    match name with
    | Some nm ->
        let* () = fast_entry nm in
        final_acquire 0
    | None ->
        let* () = slow_entry p in
        final_acquire 1
  in
  let exit_section p =
    match states.(p).name with
    | Some nm ->
        let* () = final_release 0 in
        fast_exit nm
    | None ->
        let* () = final_release 1 in
        slow_exit p
  in
  {
    Lock_intf.name = "adaptive-tree";
    uses_rmw = false;
    one_time = true;  (* splitters are single-use *)
    adaptive = true;
    layout;
    entry;
    exit_section;
    recovery = None;
    abort = None;
  }

let family = Lock_intf.make_family "adaptive-tree" (fun ~n -> make ~n ())
