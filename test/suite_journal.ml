(* The mutation journal (Machine.Journal) and the in-place DFS engine.

   Two layers of evidence that stepping-in-place is equivalent to
   cloning:

   - a random-walk property on lean machines, the only machines that
     journal: from any reachable state, apply one enabled move
     (including crash/recover and PSO out-of-order commits) and roll it
     back through the journal — the machine must be structurally
     [Machine.equal] to a clone taken before the move, with the same
     fingerprint, and the incrementally-maintained fingerprint must agree
     with the full recompute at every visited state;

   - a differential check over the golden workloads against the
     clone-per-child reference explorer (reference.ml,
     suite_reference.ml), whose machines keep full accounting: with and
     without the reduction, sequential and parallel, the same violation
     kinds, and without the reduction the same state count and, via
     [~on_fingerprint], the same state set. *)

open Tsim
open Tsim.Prog
module E = Mcheck.Explore

(* --- workloads (duplicated on purpose, like suite_corpus) --------------- *)

let peterson_unfenced () =
  let layout = Layout.create () in
  let flag = Layout.array layout ~init:0 "flag" 2 in
  let turn = Layout.var layout ~init:0 "turn" in
  Config.make ~model:Config.Cc_wb ~check_exclusion:true ~n:2 ~layout
    ~entry:(fun p ->
      let* () = write flag.(p) 1 in
      let* () = write turn p in
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

let mp_pso () =
  let layout = Layout.create () in
  let data = Layout.var layout "data" in
  let flag = Layout.var layout "flag" in
  let blocked = Layout.var layout "blocked" in
  Config.make ~model:Config.Cc_wb ~ordering:Config.Pso ~check_exclusion:true
    ~n:2 ~layout
    ~entry:(fun p ->
      if p = 0 then
        let* () = write data 1 in
        let* () = write flag 1 in
        unit
      else
        let* f = read flag in
        let* d = read data in
        if f = 1 && d = 0 then unit
        else
          let* _ = spin_until ~fuel:1 blocked (fun x -> x = 1) in
          unit)
    ~exit_section:(fun _ -> Prog.unit)
    ()

let rtas ~crash_semantics () =
  Locks.Harness.config_of_lock ~model:Config.Cc_wb ~crash_semantics
    (Locks.Recoverable_tas.make ~n:2) ~n:2

(* --- random walk: step; undo_to restores the state exactly ------------- *)

(* A machine as the explorer journals one: no trace, lean, journaled.
   A lean machine carries no accounting record, so the walk covers
   everything a lean step can write. *)
let journaled_machine cfg =
  let m = Machine.create { cfg with Config.record_trace = false } in
  Machine.set_lean m true;
  Machine.Journal.enable m;
  m

(* One walk: journal on, repeatedly pick a random enabled move; before
   applying it, snapshot (clone + full fingerprint + mark); apply (the
   move may raise Exclusion_violation / Spin_exhausted mid-mutation —
   exactly the exception paths the DFS engine must roll back from); undo;
   check the machine is structurally identical to the snapshot with both
   fingerprints agreeing; then re-apply the move to advance. *)
let walk_restores cfg seed =
  let rng = Random.State.make [| seed |] in
  let m = journaled_machine cfg in
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < 60 do
    incr steps;
    match E.enabled_moves ~max_crashes:2 m with
    | [] -> continue := false
    | moves ->
        let mv = List.nth moves (Random.State.int rng (List.length moves)) in
        let snap = Machine.clone m in
        let fp_before = Machine.fingerprint m in
        if Machine.fingerprint_fast m <> fp_before then
          Alcotest.failf "incremental fingerprint drifted before %s"
            (E.move_to_string mv);
        let mark = Machine.Journal.mark m in
        let raised =
          try
            E.apply m mv;
            false
          with Machine.Exclusion_violation _ | Prog.Spin_exhausted _ -> true
        in
        Machine.Journal.undo_to m mark;
        if not (Machine.equal m snap) then
          Alcotest.failf "undo after %s did not restore the state (step %d)"
            (E.move_to_string mv) !steps;
        Alcotest.(check int) "full fingerprint restored" fp_before
          (Machine.fingerprint m);
        Alcotest.(check int) "incremental fingerprint restored" fp_before
          (Machine.fingerprint_fast m);
        (* advance: exception-raising moves end the walk (the machine was
           rolled back, so the exploration frontier ends here too) *)
        if raised then continue := false else E.apply m mv
  done;
  true

let prop_walk name cfg =
  QCheck.Test.make ~count:60 ~name QCheck.small_nat (fun seed ->
      walk_restores cfg seed)

let walk_props =
  [
    prop_walk "walk/undo: peterson unfenced TSO" (peterson_unfenced ());
    prop_walk "walk/undo: mp PSO" (mp_pso ());
    prop_walk "walk/undo: rtas drop-buffer"
      (rtas ~crash_semantics:Config.Drop_buffer ());
    prop_walk "walk/undo: rtas flush-buffer"
      (rtas ~crash_semantics:Config.Flush_buffer ());
    prop_walk "walk/undo: rtas atomic-prefix"
      (rtas ~crash_semantics:Config.Atomic_prefix ());
  ]

(* --- random walk: the classification words -------------------------- *)

(* The class [Machine.pending] names, mapped by hand: [pending_class]
   decodes a word, so this holds its code table to the variant. *)
let class_of_pending : Machine.pending -> Machine.pending_class = function
  | Machine.P_enter -> Machine.K_enter
  | Machine.P_cs -> Machine.K_cs
  | Machine.P_exit -> Machine.K_exit
  | Machine.P_done -> Machine.K_done
  | Machine.P_read _ -> Machine.K_read
  | Machine.P_issue_write _ -> Machine.K_issue_write
  | Machine.P_begin_fence -> Machine.K_begin_fence
  | Machine.P_end_fence -> Machine.K_end_fence
  | Machine.P_commit _ -> Machine.K_commit
  | Machine.P_rmw_fence -> Machine.K_rmw_fence
  | Machine.P_cas _ -> Machine.K_cas
  | Machine.P_faa _ -> Machine.K_faa
  | Machine.P_swap _ -> Machine.K_swap
  | Machine.P_recover -> Machine.K_recover
  | Machine.P_marker _ -> Machine.K_marker
  | Machine.P_abort_done -> Machine.K_abort_done

(* The stored words of a journaling machine answer like a fresh
   computation: a clone does not journal, so its three functions
   recompute from the state. *)
let check_classes what m =
  let fresh = Machine.clone m in
  for p = 0 to Machine.n_procs m - 1 do
    let pc = Machine.pending_class m p in
    if
      pc <> Machine.pending_class fresh p
      || pc <> class_of_pending (Machine.pending m p)
      || Machine.step_footprint_packed m p
         <> Machine.step_footprint_packed fresh p
      || Machine.step_may_enable_cs m p <> Machine.step_may_enable_cs fresh p
    then Alcotest.failf "p%d: stale classification word %s" p what
  done

(* A walk that steps forward and now and then rolls back to a random
   earlier mark, checking every word after each step that completed and
   after each rollback. A step that raised leaves the machine mid-event
   (no refresh ran), so only the rollback after it is checked. *)
let walk_classes ~max_crashes ~max_aborts cfg seed =
  let rng = Random.State.make [| seed |] in
  let m = journaled_machine cfg in
  check_classes "after enable" m;
  let marks = ref [] and steps = ref 0 and continue = ref true in
  while !continue && !steps < 80 do
    incr steps;
    let n_marks = List.length !marks in
    if n_marks > 0 && Random.State.int rng 4 = 0 then begin
      (* marks are newest first: roll back [i + 1] steps *)
      let i = Random.State.int rng n_marks in
      match List.filteri (fun j _ -> j >= i) !marks with
      | mark :: older ->
          Machine.Journal.undo_to m mark;
          marks := older;
          check_classes (Printf.sprintf "after undo_to (step %d)" !steps) m
      | [] -> assert false
    end
    else
      match E.enabled_moves ~max_crashes ~max_aborts m with
      | [] -> continue := false
      | moves -> (
          let mv = List.nth moves (Random.State.int rng (List.length moves)) in
          let mark = Machine.Journal.mark m in
          match E.apply m mv with
          | () ->
              marks := mark :: !marks;
              check_classes
                (Printf.sprintf "after %s (step %d)" (E.move_to_string mv)
                   !steps)
                m
          | exception (Machine.Exclusion_violation _ | Prog.Spin_exhausted _)
            ->
              Machine.Journal.undo_to m mark;
              check_classes "after undoing a raising move" m)
  done;
  true

let abortable_tas () =
  Locks.Harness.config_of_lock ~model:Config.Cc_wb
    ~crash_semantics:Config.Atomic_prefix
    (Locks.Abortable_tas.make ~n:2) ~n:2

let class_props =
  List.map
    (fun (name, max_crashes, max_aborts, cfg) ->
      QCheck.Test.make ~count:60 ~name:("classification words: " ^ name)
        QCheck.small_nat (fun seed ->
          walk_classes ~max_crashes ~max_aborts cfg seed))
    [
      ("peterson unfenced TSO", 0, 0, peterson_unfenced ());
      ("mp PSO", 0, 0, mp_pso ());
      ( "rtas TSO, crashes<=2",
        2, 0, rtas ~crash_semantics:Config.Atomic_prefix () );
      ( "rtas PSO, crashes<=2",
        2, 0,
        { (rtas ~crash_semantics:Config.Flush_buffer ()) with
          Config.ordering = Config.Pso } );
      ("abortable tas TSO, crashes<=1, aborts<=2", 1, 2, abortable_tas ());
      ( "abortable tas PSO, aborts<=2",
        0, 2, { (abortable_tas ()) with Config.ordering = Config.Pso } );
    ]

(* Journaling requires lean mode, and lean mode excludes trace
   recording: the journal has no records for the accounting a full
   machine writes. Lean mode is one-way, a lean machine answers no
   accounting query, and it never equals a full machine. *)
let test_preconditions () =
  let full =
    Machine.create { (peterson_unfenced ()) with Config.record_trace = false }
  in
  Alcotest.check_raises "journal on a non-lean machine"
    (Invalid_argument "Machine.Journal.enable: the machine is not lean")
    (fun () -> Machine.Journal.enable full);
  let tracing =
    Machine.create { (peterson_unfenced ()) with Config.record_trace = true }
  in
  Alcotest.check_raises "lean on a trace-recording machine"
    (Invalid_argument "Machine.set_lean: incompatible with record_trace")
    (fun () -> Machine.set_lean tracing true);
  let m = journaled_machine (peterson_unfenced ()) in
  Alcotest.check_raises "leaving lean mode while journaling"
    (Invalid_argument "Machine.set_lean: lean mode is one-way")
    (fun () -> Machine.set_lean m false);
  let lean = Machine.clone full in
  Machine.set_lean lean true;
  Alcotest.check_raises "leaving lean mode without a journal"
    (Invalid_argument "Machine.set_lean: lean mode is one-way")
    (fun () -> Machine.set_lean lean false);
  Machine.set_lean full false;
  Alcotest.(check int) "a full machine keeps its accounting" 0
    (Machine.rmrs full 0);
  Alcotest.(check bool) "lean and full differ in the same state" false
    (Machine.equal lean full);
  Alcotest.(check bool) "a lean clone equals its source" true
    (Machine.equal lean (Machine.clone lean));
  let no_accounting name f =
    Alcotest.check_raises (name ^ " on a lean machine")
      (Invalid_argument
         ("Machine." ^ name ^ ": lean machines carry no accounting"))
      (fun () -> ignore (f ()))
  in
  no_accounting "rmrs" (fun () -> Machine.rmrs lean 0);
  no_accounting "awareness" (fun () -> Machine.awareness lean 0);
  no_accounting "writer_of" (fun () -> Machine.writer_of lean 0);
  no_accounting "passage_log" (fun () -> Machine.passage_log lean 0);
  no_accounting "trace" (fun () -> Machine.trace lean)

(* --- the journal engine against the reference ------------------------- *)

(* Verdicts, state counts and state sets against the reference explorer
   (Suite_reference.check) on the golden workloads; recoverable TAS
   under both the drop-buffer and the atomic-prefix crash semantics. *)
let test_engines_peterson () =
  Suite_reference.check "peterson" peterson_unfenced

let test_engines_mp_pso () = Suite_reference.check "mp_pso" mp_pso

let test_engines_rtas () =
  Suite_reference.check "rtas drop-buffer" ~max_crashes:1
    (rtas ~crash_semantics:Config.Drop_buffer)

let test_fp_sets_rtas () =
  Suite_reference.check "rtas atomic-prefix" ~max_crashes:1
    (rtas ~crash_semantics:Config.Atomic_prefix)

(* Paranoid mode recomputes the full fingerprint at every node and fails
   on drift — a whole-space version of the walk property. *)
let test_paranoid () =
  List.iter
    (fun (name, max_crashes, cfg) ->
      let r =
        E.explore ~max_nodes:200_000 ~max_crashes ~paranoid_fp:true cfg
      in
      Alcotest.(check bool) (name ^ ": explored") true (r.E.nodes > 0))
    [
      ("peterson", 0, peterson_unfenced ());
      ("mp_pso", 0, mp_pso ());
      ("rtas", 1, rtas ~crash_semantics:Config.Atomic_prefix ());
    ]

(* Journal gauges surface in stats, sequentially and in the parallel
   driver. *)
let test_journal_stats () =
  let cfg = peterson_unfenced () in
  List.iter
    (fun domains ->
      let r = E.explore ~max_nodes:200_000 ~domains cfg in
      let tag = Printf.sprintf "d=%d: " domains in
      Alcotest.(check bool) (tag ^ "journal pushes records") true
        (r.E.stats.E.undo_records > 0);
      Alcotest.(check bool) (tag ^ "journal has a peak") true
        (r.E.stats.E.journal_peak > 0))
    [ 1; 2 ]

let suite =
  List.map QCheck_alcotest.to_alcotest (walk_props @ class_props)
  @ [
      Alcotest.test_case "engines agree: peterson" `Quick
        test_engines_peterson;
      Alcotest.test_case "engines agree: mp PSO" `Quick test_engines_mp_pso;
      Alcotest.test_case "engines agree: rtas crashes<=1" `Quick
        test_engines_rtas;
      Alcotest.test_case "fingerprint sets agree: rtas" `Quick
        test_fp_sets_rtas;
      Alcotest.test_case "paranoid fingerprint cross-check" `Quick
        test_paranoid;
      Alcotest.test_case "journal gauges in stats" `Quick test_journal_stats;
      Alcotest.test_case "journal requires lean, lean excludes traces"
        `Quick test_preconditions;
    ]
