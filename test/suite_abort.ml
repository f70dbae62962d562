(* Timeout/abort fault injection, end to end.

   Machine level: an abort delivered at a declared wait point keeps the
   write buffer (unlike a crash), clears the abortable marker and fence
   flags, runs the configured cleanup section and returns the process to
   its NCS without counting a passage; aborts anywhere else are typed
   errors. Explorer level: the abort adversary proves the abortable TAS
   and abortable queue locks safe under an abort budget, refutes the
   deliberately buggy cleanup (which frees a lock the aborting process
   does not hold), and composes with crash faults — por on and off,
   agreeing with the reference explorer on verdicts and the state set.
   Replay level: abort schedules replay bit-identically, ill-timed abort
   lines are a typed outcome, walk/undo restores abort transitions
   exactly, and the schedule codec round-trips Abort moves. Lincheck
   level: aborted object operations stay strictly linearizable. Metrics
   level: trace recomputation counts aborts and cross-checks against the
   machine's online counters. *)

open Tsim
open Tsim.Prog
module E = Mcheck.Explore

(* --- machine-level abort semantics -------------------------------------- *)

(* One process, one buffered write, then an abortable wait on a gate
   nobody opens. *)
let one_waiter ?abort_section () =
  let layout = Layout.create () in
  let x = Layout.var layout "x" in
  let gate = Layout.var layout "gate" in
  let cleaned = Layout.var layout "cleaned" in
  let abort_section =
    match abort_section with
    | Some s -> s
    | None ->
        Some
          (fun _ ->
            let* () = write cleaned 7 in
            fence)
  in
  let cfg =
    Config.make ~model:Config.Cc_wb ~check_exclusion:false ?abort_section
      ~n:1 ~layout
      ~entry:(fun _ ->
        let* () = write x 1 in
        let* _ = abortable_spin_until gate (fun g -> g = 1) in
        unit)
      ~exit_section:(fun _ -> Prog.unit)
      ()
  in
  (Machine.create cfg, x, cleaned)

let step_until ?(fuel = 50) m pred =
  let fuel = ref fuel in
  while (not (pred ())) && !fuel > 0 do
    decr fuel;
    ignore (Machine.step m 0)
  done;
  Alcotest.(check bool) "target machine state reached" true (pred ())

let test_abort_semantics () =
  let m, x, cleaned = one_waiter () in
  step_until m (fun () -> Machine.abort_deliverable m 0);
  Alcotest.(check bool) "abortable marker up" true (Machine.abortable m 0);
  Alcotest.(check int) "write still buffered" 0 (Machine.mem_value m x);
  (match Machine.abort m 0 with
  | { Event.kind = Event.Abort; _ } -> ()
  | e ->
      Alcotest.failf "unexpected abort event: %s" (Event.kind_tag e.Event.kind));
  (* unlike a crash, the write buffer survives the fault *)
  Alcotest.(check int) "buffered write kept" 1
    (Wbuf.size (Machine.proc m 0).Machine.buf);
  Alcotest.(check bool) "section is aborting" true
    ((Machine.proc m 0).Machine.sec = Machine.Aborting);
  Alcotest.(check bool) "marker lowered by the fault" false
    (Machine.abortable m 0);
  Alcotest.(check bool) "no longer deliverable" false
    (Machine.abort_deliverable m 0);
  Alcotest.(check int) "abort counted" 1 (Machine.aborts m 0);
  Alcotest.(check int) "total counted" 1 (Machine.aborts_total m);
  (* run the cleanup to completion: back to NCS, no passage counted *)
  step_until m (fun () -> (Machine.proc m 0).Machine.sec = Machine.Ncs);
  Alcotest.(check int) "cleanup section ran" 7 (Machine.mem_value m cleaned);
  Alcotest.(check int) "cleanup fence drained the kept buffer" 1
    (Machine.mem_value m x);
  Alcotest.(check int) "no passage counted" 0 (Machine.passages m 0)

let test_abort_illegal_states () =
  (* in the NCS: not in the entry section *)
  let m, _, _ = one_waiter () in
  Alcotest.check_raises "abort in NCS"
    (Invalid_argument "Machine.abort: process is not in its entry section")
    (fun () -> ignore (Machine.abort m 0));
  (* in the entry section but before the declared wait point *)
  ignore (Machine.step m 0);
  Alcotest.(check bool) "entered the entry section" true
    ((Machine.proc m 0).Machine.sec = Machine.Entry);
  Alcotest.check_raises "abort before the wait point"
    (Invalid_argument "Machine.abort: process is not at a wait point")
    (fun () -> ignore (Machine.abort m 0));
  (* marker up, but the configuration declares no cleanup section *)
  let m2, _, _ = one_waiter ~abort_section:None () in
  step_until m2 (fun () -> Machine.abortable m2 0);
  Alcotest.(check bool) "marker up is not enough" false
    (Machine.abort_deliverable m2 0);
  Alcotest.check_raises "no abort section configured"
    (Invalid_argument "Machine.abort: configuration has no abort section")
    (fun () -> ignore (Machine.abort m2 0));
  (* double abort: the cleanup section itself is not abortable *)
  let m3, _, _ = one_waiter () in
  step_until m3 (fun () -> Machine.abort_deliverable m3 0);
  ignore (Machine.abort m3 0);
  Alcotest.check_raises "abort while aborting"
    (Invalid_argument "Machine.abort: process is not in its entry section")
    (fun () -> ignore (Machine.abort m3 0))

(* --- the acceptance scenario: abortable locks under abort faults -------- *)

let atas_cfg ~n =
  Locks.Harness.config_of_lock ~model:Config.Cc_wb
    (Locks.Abortable_tas.make ~n) ~n

let buggy_cfg ~n =
  Locks.Harness.config_of_lock ~model:Config.Cc_wb
    (Locks.Abortable_tas.make_buggy ~n) ~n

let aqueue_cfg ~n =
  Locks.Harness.config_of_lock ~model:Config.Cc_wb
    (Locks.Abortable_queue.make () ~n) ~n

let has_abort_move schedule =
  List.exists (function E.Abort _ -> true | _ -> false) schedule

(* The properly-stamped cleanup survives the abort adversary: both
   abortable locks verify with and without the budget, and abort moves
   are genuinely exercised. *)
let test_abortable_locks_safe () =
  List.iter
    (fun (name, cfg) ->
      let abort_free = E.explore ~max_nodes:500_000 (cfg ()) in
      Alcotest.(check bool) (name ^ ": abort-free verifies") true
        abort_free.E.verified;
      Alcotest.(check int) (name ^ ": no aborts without a budget") 0
        abort_free.E.stats.E.aborts_applied;
      let r = E.explore ~max_nodes:500_000 ~max_aborts:1 (cfg ()) in
      Alcotest.(check bool) (name ^ ": verified under one abort") true
        r.E.verified;
      Alcotest.(check bool) (name ^ ": abort moves exercised") true
        (r.E.stats.E.aborts_applied > 0);
      Alcotest.(check bool)
        (name ^ ": the budget enlarges the space") true
        (r.E.nodes > abort_free.E.nodes))
    [
      ("abortable-tas", fun () -> atas_cfg ~n:2);
      ("abortable-queue", fun () -> aqueue_cfg ~n:2);
    ]

(* The unconditional cleanup frees a lock the aborter does not hold: the
   owner keeps running while the freed word lets a third acquisition in.
   One injected abort refutes it; the witness schedule replays
   deterministically. *)
let test_buggy_cleanup_refuted () =
  let abort_free = E.explore ~max_nodes:500_000 (buggy_cfg ~n:2) in
  Alcotest.(check bool) "abort-free the buggy variant verifies" true
    abort_free.E.verified;
  let r = E.explore ~max_nodes:500_000 ~max_aborts:1 (buggy_cfg ~n:2) in
  Alcotest.(check bool) "violation found" false r.E.verified;
  match r.E.violations with
  | [] -> Alcotest.fail "no violation reported"
  | v :: _ -> (
      (match v.E.kind with
      | `Exclusion _ -> ()
      | `Deadlock -> Alcotest.fail "expected exclusion, got deadlock"
      | `Spin_exhausted -> Alcotest.fail "expected exclusion, got spin");
      Alcotest.(check bool) "schedule injects an abort" true
        (has_abort_move v.E.schedule);
      let m1, o1 = E.replay (buggy_cfg ~n:2) v.E.schedule in
      let m2, o2 = E.replay (buggy_cfg ~n:2) v.E.schedule in
      Alcotest.(check bool) "same outcome" true (o1 = o2);
      Alcotest.(check int) "same fingerprint" (E.fingerprint m1)
        (E.fingerprint m2);
      match o1 with
      | E.R_exclusion _ -> ()
      | _ -> Alcotest.fail "replay did not reproduce the exclusion")

(* Aborts land in waits, never on an atomic step: in no reachable state
   of the abortable locks (n=2, one abort) does a process have an abort
   deliverable while its pending event is a CAS, FAA or swap, or the
   drain fence of one. The reference explorer walks every state. *)
let test_no_abort_mid_rmw () =
  List.iter
    (fun (name, cfg) ->
      let exposed = ref 0 in
      let on_state m =
        for p = 0 to Machine.n_procs m - 1 do
          if Machine.abort_deliverable m p then
            match Machine.pending m p with
            | Machine.P_cas _ | Machine.P_faa _ | Machine.P_swap _
            | Machine.P_rmw_fence ->
                incr exposed
            | (Machine.P_commit _ | Machine.P_end_fence)
              when (Machine.proc m p).Machine.fence_implicit ->
                incr exposed
            | _ -> ()
        done
      in
      ignore (Reference.explore ~max_aborts:1 ~on_state (cfg ~n:2));
      Alcotest.(check int) (name ^ ": abortable (state, pid) pairs mid-RMW")
        0 !exposed)
    [
      ("abortable-tas", atas_cfg);
      ("abortable-tas-buggy", buggy_cfg);
      ("abortable-queue", aqueue_cfg);
    ]

(* --- abort × crash composition against the reference ---------------------- *)

let atas_crashy_cfg () =
  Locks.Harness.config_of_lock ~model:Config.Cc_wb
    ~crash_semantics:Config.Drop_buffer
    (Locks.Abortable_tas.make ~n:2) ~n:2

(* Both fault budgets at once: exclusion still holds (crashes may land
   inside abort cleanup sections), both fault kinds are exercised, and
   the explorer agrees with the reference explorer: without the
   reduction it reaches exactly the reference's 26,720 states at 1, 2
   and 4 domains. *)
let composition_states = 26_720

let test_abort_crash_composition () =
  Suite_reference.check "vs reference" ~max_crashes:1 ~max_aborts:1
    atas_crashy_cfg;
  List.iter
    (fun por ->
      let tag = Printf.sprintf "por=%b" por in
      let r =
        E.explore ~max_nodes:500_000 ~por ~max_crashes:1 ~max_aborts:1
          (atas_crashy_cfg ())
      in
      Alcotest.(check bool) (tag ^ ": verified") true r.E.verified;
      if not por then
        Alcotest.(check int) (tag ^ ": states") composition_states r.E.nodes;
      Alcotest.(check bool) (tag ^ ": crashes exercised") true
        (r.E.stats.E.crashes_applied > 0);
      Alcotest.(check bool) (tag ^ ": aborts exercised") true
        (r.E.stats.E.aborts_applied > 0))
    [ true; false ]

(* --- typed partial verdict for an external interrupt --------------------- *)

(* The CLI's SIGINT handler only flips this flag; the verdict typing is
   the explorer's. A pre-raised flag trips at the first 1024-node poll. *)
let test_stop_flag_partial () =
  let stop = Atomic.make true in
  let r =
    E.explore ~max_nodes:10_000_000 ~max_crashes:1 ~max_aborts:1 ~stop
      (atas_crashy_cfg ())
  in
  Alcotest.(check bool) "not exhausted" false r.E.exhausted;
  (match r.E.partial with
  | Some `Aborts -> ()
  | Some reason ->
      Alcotest.failf "wrong partial reason: %s" (E.partial_reason_name reason)
  | None -> Alcotest.fail "partial reason missing");
  let line, code = E.render_verdict r in
  Alcotest.(check int) "partial exit code" 3 code;
  Alcotest.(check bool) "verdict names the interrupt" true
    (String.length line >= 7 && String.sub line 0 7 = "PARTIAL")

(* --- replay hardening ---------------------------------------------------- *)

let test_replay_bad_abort () =
  (* p0 has entered but not reached a declared wait point *)
  let schedule = [ E.Step 0; E.Abort 0 ] in
  let _, outcome = E.replay (atas_cfg ~n:2) schedule in
  (match outcome with
  | E.R_bad_abort (1, 0) -> ()
  | E.R_bad_abort (i, p) -> Alcotest.failf "wrong position: move %d, p%d" i p
  | _ -> Alcotest.fail "ill-timed abort not detected");
  (* a configuration with no abort section rejects every abort line *)
  let plain =
    Locks.Harness.config_of_lock ~model:Config.Cc_wb (Locks.Tas.make ~n:2)
      ~n:2
  in
  let _, outcome = E.replay plain [ E.Abort 0 ] in
  match outcome with
  | E.R_bad_abort (0, 0) -> ()
  | _ -> Alcotest.fail "abort without an abort section not detected"

(* --- qcheck: explorer-found abort schedules replay bit-identically ------- *)

(* The random straight-line programs of the POR differential suite, made
   abortable wholesale: the entry section runs inside one abortable
   window with a trivial cleanup, so the adversary may cancel it at any
   scheduling point. Every reported violation's schedule must replay
   twice to the same outcome and final-state fingerprint. *)
let aborty_config progs =
  let cfg = Suite_mcheck_equiv.config_of_rops progs in
  {
    cfg with
    Config.entry = (fun p -> abortably (cfg.Config.entry p));
    abort_section = Some (fun _ -> Prog.unit);
  }

let prop_abort_replay_deterministic =
  QCheck.Test.make ~count:40
    ~name:"abort schedules replay bit-identically (verdict + fingerprint)"
    Suite_mcheck_equiv.arb_prog2 (fun progs ->
      let r =
        E.explore ~max_nodes:200_000 ~max_violations:8 ~on_spin:`Violation
          ~max_aborts:1 (aborty_config progs)
      in
      List.for_all
        (fun v ->
          let m1, o1 = E.replay (aborty_config progs) v.E.schedule in
          let m2, o2 = E.replay (aborty_config progs) v.E.schedule in
          let violated = function
            | E.R_completed | E.R_bad_pid _ | E.R_bad_abort _ | E.R_stuck _
              ->
                false
            | E.R_exclusion _ | E.R_spin _ -> true
          in
          o1 = o2
          && E.fingerprint m1 = E.fingerprint m2
          && violated o1)
        r.E.violations)

(* The same abortable programs against the reference explorer under a
   one-abort budget: verdicts, state counts at 1, 2 and 4 domains, and
   state sets agree. *)
let prop_abort_reference =
  QCheck.Test.make ~count:40
    ~name:"abortable random programs agree with the reference"
    Suite_mcheck_equiv.arb_prog2 (fun progs ->
      Suite_mcheck_equiv.agrees_with_reference ~max_aborts:1 (fun () ->
          aborty_config progs))

(* --- qcheck: step;undo over abort transitions ---------------------------- *)

(* suite_journal's walk/undo law with Abort in the move alphabet: from
   any reachable state of a lean journaled machine, applying an enabled
   move (including Abort and Crash) and rolling it back through the
   journal must restore the state exactly, with both fingerprints
   agreeing. *)
let walk_restores cfg seed =
  let rng = Random.State.make [| seed |] in
  let m = Suite_journal.journaled_machine cfg in
  let steps = ref 0 and continue = ref true in
  while !continue && !steps < 60 do
    incr steps;
    match E.enabled_moves ~max_crashes:1 ~max_aborts:2 m with
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
        if raised then continue := false else E.apply m mv
  done;
  true

(* Only on the abortable TAS: the queue lock passes per-passage scratch
   through a mutable OCaml array outside the machine state, which the
   journal cannot roll back, so the strict restore law does not apply to
   it — the same reason suite_journal's walks avoid such locks. *)
let walk_props =
  [
    QCheck.Test.make ~count:60 ~name:"walk/undo over aborts (journal)"
      QCheck.small_nat (fun seed -> walk_restores (atas_crashy_cfg ()) seed);
  ]

(* --- schedule codec ------------------------------------------------------ *)

let test_codec_abort_roundtrip () =
  (match E.move_of_string "abort p1" with
  | Some (E.Abort 1) -> ()
  | Some mv -> Alcotest.failf "wrong parse: %s" (E.move_to_string mv)
  | None -> Alcotest.fail "abort p1 did not parse");
  Alcotest.(check string) "prints canonically" "abort p0"
    (E.move_to_string (E.Abort 0));
  let sched =
    [ E.Step 0; E.Abort 1; E.Crash (0, 0); E.Recover 0; E.Step 1 ]
  in
  (match E.schedule_of_string (E.schedule_to_string sched) with
  | Ok s -> Alcotest.(check bool) "schedule round-trips" true (s = sched)
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" s)
        true
        (E.move_of_string s = None))
    [ "abort"; "abort q0"; "abort p0 3"; "abort p-1"; "abort pp1" ]

(* --- lincheck: aborted operations stay strictly linearizable ------------- *)

(* Atomic FAA wrapped in an abortable window under abort injection: an
   aborted op is recorded as an aborted history record that the strict
   checker may keep (its effect landed) or drop (it never took effect) —
   both covered, like the crash-injection analogue in suite_lincheck. *)
let test_faa_linearizable_under_aborts () =
  let saw_abort = ref false in
  List.iter
    (fun seed ->
      let layout = Layout.create () in
      let c = Objects.Counter.make_faa layout in
      let h, v =
        Lincheck.Workload.run_and_check
          ~schedule:(Lincheck.Workload.Rand seed) ~abort_prob:0.2
          ~max_aborts:2 ~layout ~n:3 ~ops_per_proc:2
          (fun p _ ->
            Lincheck.Workload.op "faa"
              (abortably (c.Objects.Counter.fetch_inc p)))
          Lincheck.Spec.counter
      in
      if Array.exists (fun o -> o.Lincheck.History.aborted) h then
        saw_abort := true;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d (%d ops)" seed (Lincheck.History.length h))
        true v.Lincheck.Checker.linearizable)
    (List.init 20 (fun i -> (i * 29) + 3));
  Alcotest.(check bool) "some schedule actually aborted mid-op" true
    !saw_abort

(* --- metrics: aborts in the trace recomputation -------------------------- *)

let test_metrics_count_aborts () =
  let m, _, _ = one_waiter () in
  step_until m (fun () -> Machine.abort_deliverable m 0);
  ignore (Machine.abort m 0);
  step_until m (fun () -> (Machine.proc m 0).Machine.sec = Machine.Ncs);
  let metrics = Execution.Metrics.compute (Execution.Trace.of_machine m) in
  Alcotest.(check int) "total aborts" 1 metrics.Execution.Metrics.total_aborts;
  (match Execution.Metrics.find metrics 0 with
  | Some pp ->
      Alcotest.(check int) "per-process aborts" 1
        pp.Execution.Metrics.pp_aborts
  | None -> Alcotest.fail "p0 missing from the aggregation");
  match Execution.Metrics.cross_check m metrics with
  | [] -> ()
  | ms -> Alcotest.failf "cross-check mismatches: %s" (String.concat "; " ms)

let suite =
  [
    Alcotest.test_case "abort keeps the buffer, runs cleanup, no passage"
      `Quick test_abort_semantics;
    Alcotest.test_case "illegal aborts rejected" `Quick
      test_abort_illegal_states;
    Alcotest.test_case "abortable locks verified under one abort" `Quick
      test_abortable_locks_safe;
    Alcotest.test_case "buggy cleanup refuted under one abort" `Quick
      test_buggy_cleanup_refuted;
    Alcotest.test_case "no abort deliverable while an RMW is pending" `Quick
      test_no_abort_mid_rmw;
    Alcotest.test_case "abort x crash composition agrees across engines"
      `Quick test_abort_crash_composition;
    Alcotest.test_case "stop flag yields the typed partial verdict" `Quick
      test_stop_flag_partial;
    Alcotest.test_case "ill-timed abort lines replay as typed outcomes"
      `Quick test_replay_bad_abort;
    Alcotest.test_case "abort moves round-trip through the codec" `Quick
      test_codec_abort_roundtrip;
    Alcotest.test_case "aborted FAA ops stay strictly linearizable" `Quick
      test_faa_linearizable_under_aborts;
    Alcotest.test_case "metrics count aborts and cross-check" `Quick
      test_metrics_count_aborts;
    QCheck_alcotest.to_alcotest prop_abort_replay_deterministic;
    QCheck_alcotest.to_alcotest prop_abort_reference;
  ]
  @ List.map QCheck_alcotest.to_alcotest walk_props
