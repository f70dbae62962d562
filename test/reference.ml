(* Reference explorer: the oracle the optimised explorer is checked
   against. A plain recursive DFS that clones the machine for every
   enabled move and deduplicates on the full fingerprint recompute. No
   partial-order reduction, no sleep sets or ample chains, no in-place
   rollback, no incremental hashing, no shared store and no parallelism
   — so a bug in any of those cannot hide behind agreement with itself.

   It deduplicates on [Machine.fingerprint] rather than on structural
   state equality because [Machine.equal] compares continuations
   physically, and two paths to the same state build distinct closures.
   Moves come from [Explore.enabled_moves] and are run by
   [Explore.apply], so the oracle shares the machine and its move
   generator with the explorer, and nothing above them. *)

open Tsim

type result = {
  root : int;  (* fingerprint of the initial state *)
  states : (int, unit) Hashtbl.t;
      (* full fingerprint of every reached state, root included *)
  kinds : string list;  (* distinct violation kinds, sorted *)
}

(* Same defaults as [Explore.explore]: the spin fuel bounds every
   busy-wait, and spin exhaustion prunes the branch unless [on_spin] is
   [`Violation]. [on_state] sees every reached state once, root
   included, before it is expanded. *)
let explore ?(max_crashes = 0) ?(max_aborts = 0) ?(on_spin = `Prune)
    ?(spin_fuel = 6) ?(on_state = ignore) (cfg : Config.t) =
  let states = Hashtbl.create 4096 in
  let kinds = ref [] in
  let found k = if not (List.mem k !kinds) then kinds := k :: !kinds in
  let rec visit m =
    let fp = Machine.fingerprint m in
    if not (Hashtbl.mem states fp) then begin
      Hashtbl.add states fp ();
      on_state m;
      match Mcheck.Explore.enabled_moves ~max_crashes ~max_aborts m with
      | [] ->
          let unfinished = ref false in
          for p = 0 to Machine.n_procs m - 1 do
            if Machine.pending m p <> Machine.P_done then unfinished := true
          done;
          if !unfinished then found "deadlock"
      | moves ->
          List.iter
            (fun mv ->
              let child = Machine.clone m in
              match Mcheck.Explore.apply child mv with
              | () -> visit child
              | exception Machine.Exclusion_violation _ -> found "exclusion"
              | exception Prog.Spin_exhausted _ ->
                  if on_spin = `Violation then found "spin")
            moves
    end
  in
  let saved = !Prog.default_spin_fuel in
  Prog.default_spin_fuel := spin_fuel;
  Fun.protect ~finally:(fun () -> Prog.default_spin_fuel := saved)
  @@ fun () ->
  (* programs read the fuel when they are built, so create in here *)
  let m0 = Machine.create { cfg with Config.record_trace = false } in
  let root = Machine.fingerprint m0 in
  visit m0;
  { root; states; kinds = List.sort compare !kinds }

let count r = Hashtbl.length r.states

(* The explorer's violation kinds, in the reference's vocabulary. *)
let kinds_of (r : Mcheck.Explore.result) =
  List.sort_uniq compare
    (List.map
       (fun v ->
         match v.Mcheck.Explore.kind with
         | `Exclusion _ -> "exclusion"
         | `Deadlock -> "deadlock"
         | `Spin_exhausted -> "spin")
       r.Mcheck.Explore.violations)
