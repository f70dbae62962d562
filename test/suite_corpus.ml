(* Golden schedule corpus: violating schedules checked into
   test/corpus/*.sched, replayed move-by-move against the configurations
   that produced them. The corpus pins down (a) the machine semantics the
   schedules were found under — a semantic change that breaks a replay
   here is a regression, not a re-run-the-explorer event — and (b) the
   schedule text format itself, whose round-trip with the move codec is
   property-tested below. *)

open Tsim
open Tsim.Prog

(* The corpus configurations. These must match the fixtures' provenance
   headers; they intentionally duplicate the definitions in
   suite_mcheck / suite_mcheck_equiv so a refactor over there cannot
   silently change what the fixtures mean. *)

let peterson ~fenced =
  let layout = Layout.create () in
  let flag = Layout.array layout ~init:0 "flag" 2 in
  let turn = Layout.var layout ~init:0 "turn" in
  Config.make ~model:Config.Cc_wb ~check_exclusion:true ~pure_programs:true
    ~n:2 ~layout
    ~entry:(fun p ->
      let* () = write flag.(p) 1 in
      let* () = write turn p in
      let* () = if fenced then fence else unit in
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
    ~pure_programs:true ~n:2 ~layout
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

let load file =
  match Mcheck.Explore.load_schedule (Filename.concat "corpus" file) with
  | Ok schedule -> schedule
  | Error msg -> Alcotest.failf "%s: %s" file msg

(* Replay a fixture under every engine and check: the expected exclusion
   fires, with the expected holder/intruder; and the replay is
   deterministic AND engine-invariant — each run stops at the same
   outcome with fingerprint-identical machines (the corpus pins the
   compiled engine's execution semantics, not just the interpreter's). *)
let check_fixture file mk_cfg =
  let schedule = load file in
  let replay engine =
    Mcheck.Explore.replay { (mk_cfg ()) with Config.engine } schedule
  in
  let m1, o1 = replay `Journal in
  (match o1 with
  | Mcheck.Explore.R_exclusion (h, i) ->
      Alcotest.(check int) "holder p0" 0 h;
      Alcotest.(check int) "intruder p1" 1 i
  | Mcheck.Explore.R_completed -> Alcotest.failf "%s: replay completed" file
  | Mcheck.Explore.R_spin v -> Alcotest.failf "%s: spin on v%d" file v
  | Mcheck.Explore.R_bad_pid (i, p) ->
      Alcotest.failf "%s: move %d references unknown p%d" file i p
  | Mcheck.Explore.R_bad_abort (i, p) ->
      Alcotest.failf "%s: move %d aborts p%d outside a wait point" file i p
  | Mcheck.Explore.R_stuck (i, msg) ->
      Alcotest.failf "%s: stuck at move %d: %s" file i msg);
  List.iter
    (fun engine ->
      let m2, o2 = replay engine in
      Alcotest.(check bool)
        (Config.engine_name engine ^ " replay: same outcome")
        true (o1 = o2);
      Alcotest.(check int)
        (Config.engine_name engine ^ " replay: same final state")
        (Mcheck.Explore.fingerprint m1)
        (Mcheck.Explore.fingerprint m2))
    [ `Journal; `Compiled ]

let test_peterson_fixture () =
  check_fixture "peterson_unfenced_tso.sched" (fun () ->
      peterson ~fenced:false)

let test_mp_fixture () =
  check_fixture "mp_pso.sched" mp_pso;
  (* the anomaly needs PSO's out-of-order commit: the schedule must use a
     Commit_var move, which TSO replay rejects *)
  let schedule = load "mp_pso.sched" in
  Alcotest.(check bool) "uses an out-of-order commit" true
    (List.exists
       (function Mcheck.Explore.Commit_var _ -> true | _ -> false)
       schedule)

(* Crash-injection fixture: a crashed p0 whose naive recovery section
   frees p1's lock. Pins the crash/recover schedule text, the crash
   semantics of replay, and its determinism. *)
let naive_rtas () =
  Locks.Harness.config_of_lock ~model:Config.Cc_wb
    ~crash_semantics:Config.Drop_buffer
    (Locks.Recoverable_tas.make_naive ~n:2) ~n:2

let test_crash_fixture () =
  check_fixture "recoverable_tas_crash.sched" naive_rtas;
  let schedule = load "recoverable_tas_crash.sched" in
  Alcotest.(check bool) "injects a crash" true
    (List.exists
       (function Mcheck.Explore.Crash _ -> true | _ -> false)
       schedule);
  Alcotest.(check bool) "recovers the crashed process" true
    (List.exists
       (function Mcheck.Explore.Recover _ -> true | _ -> false)
       schedule);
  (* the non-naive recovery section survives the same move sequence:
     replaying it against recoverable-tas must NOT reach the exclusion
     (the recovery read sees p1's stamp and backs off, after which the
     schedule's remaining moves no longer line up — stuck or spin are
     both acceptable, an exclusion is not) *)
  let cfg =
    Locks.Harness.config_of_lock ~model:Config.Cc_wb
      ~crash_semantics:Config.Drop_buffer
      (Locks.Recoverable_tas.make ~n:2) ~n:2
  in
  match Mcheck.Explore.replay cfg schedule with
  | _, Mcheck.Explore.R_exclusion _ ->
      Alcotest.fail "proper recovery reached the exclusion"
  | _ -> ()

(* Abort-injection fixture: p1's abort runs the buggy cleanup, which
   unconditionally frees the lock p0 holds; p1's next attempt then walks
   into p0's critical section. Pins the abort schedule text, the abort
   semantics of replay, and its determinism. *)
let buggy_atas () =
  Locks.Harness.config_of_lock ~model:Config.Cc_wb
    (Locks.Abortable_tas.make_buggy ~n:2) ~n:2

let test_abort_fixture () =
  check_fixture "abortable_tas_abort.sched" buggy_atas;
  let schedule = load "abortable_tas_abort.sched" in
  Alcotest.(check bool) "injects an abort" true
    (List.exists
       (function Mcheck.Explore.Abort _ -> true | _ -> false)
       schedule);
  (* the properly-stamped cleanup survives the same move sequence:
     replaying it against the safe abortable TAS must NOT reach the
     exclusion (the cleanup read sees p0's stamp and leaves the lock
     alone; the remaining moves then stop lining up — stuck or spin are
     both acceptable, an exclusion is not) *)
  let cfg =
    Locks.Harness.config_of_lock ~model:Config.Cc_wb
      (Locks.Abortable_tas.make ~n:2) ~n:2
  in
  match Mcheck.Explore.replay cfg schedule with
  | _, Mcheck.Explore.R_exclusion _ ->
      Alcotest.fail "proper cleanup reached the exclusion"
  | _ -> ()

(* Byte-level invisibility of compile-ahead execution: replaying the
   pinned schedule with trace recording on must produce the exact Chrome
   export golden-filed for the interpreter engines — same events, same
   sequence numbers, same rendering, to the byte. *)
let test_chrome_compiled_identical () =
  let schedule = load "peterson_unfenced_tso.sched" in
  let export engine =
    let cfg =
      { (peterson ~fenced:false) with Config.record_trace = true; engine }
    in
    let m, outcome = Mcheck.Explore.replay cfg schedule in
    (match outcome with
    | Mcheck.Explore.R_exclusion _ -> ()
    | _ -> Alcotest.fail "fixture replay should end in the exclusion");
    Execution.Chrome.to_string (Execution.Trace.of_machine m)
  in
  let golden =
    In_channel.with_open_bin
      (Filename.concat "corpus" "peterson_unfenced_tso.trace.json")
      In_channel.input_all
  in
  Alcotest.(check string) "compiled replay matches the golden bytes" golden
    (export `Compiled)

(* A freshly explored violation on the same configuration still finds an
   exclusion (the fixture is not the only witness, just a pinned one). *)
let test_fixture_still_reachable () =
  let r =
    Mcheck.Explore.explore ~max_nodes:2_000_000 (peterson ~fenced:false)
  in
  Alcotest.(check bool) "explorer still finds an exclusion" true
    (List.exists
       (fun v ->
         match v.Mcheck.Explore.kind with `Exclusion _ -> true | _ -> false)
       r.Mcheck.Explore.violations)

(* --- serialization round-trips ----------------------------------------- *)

let gen_move =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun p -> Mcheck.Explore.Step p) (int_range 0 127));
        (2, map (fun p -> Mcheck.Explore.Commit p) (int_range 0 127));
        (2,
         map2
           (fun p v -> Mcheck.Explore.Commit_var (p, v))
           (int_range 0 127) (int_range 0 200));
        (2,
         map2
           (fun p k -> Mcheck.Explore.Crash (p, k))
           (int_range 0 127) (int_range 0 8));
        (1, map (fun p -> Mcheck.Explore.Recover p) (int_range 0 127));
        (1, map (fun p -> Mcheck.Explore.Abort p) (int_range 0 127));
      ])

let arb_move = QCheck.make ~print:Mcheck.Explore.move_to_string gen_move

let arb_schedule =
  QCheck.make
    ~print:(fun s -> Mcheck.Explore.schedule_to_string s)
    QCheck.Gen.(list_size (int_range 0 40) gen_move)

let prop_move_roundtrip =
  QCheck.Test.make ~count:500 ~name:"move_of_string inverts move_to_string"
    arb_move (fun mv ->
      Mcheck.Explore.move_of_string (Mcheck.Explore.move_to_string mv)
      = Some mv)

let prop_schedule_roundtrip =
  QCheck.Test.make ~count:200 ~name:"schedule text round-trips" arb_schedule
    (fun s ->
      Mcheck.Explore.schedule_of_string (Mcheck.Explore.schedule_to_string s)
      = Ok s)

let test_parse_rejects () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" s)
        true
        (Mcheck.Explore.move_of_string s = None))
    [ ""; "step"; "step q1"; "step p-1"; "commit p0 w3"; "step p0 v1";
      "commit p0 v1 extra"; "step pp0"; "commit p0 v"; "crash";
      "crash q0"; "crash p0 -1"; "crash p0 1 2"; "recover";
      "recover p0 1"; "abort"; "abort q0"; "abort p0 3"; "abort p-1" ];
  match Mcheck.Explore.schedule_of_string "step p0\nnonsense\n" with
  | Error msg ->
      Alcotest.(check bool) "error names the line" true
        (String.length msg > 0
        && String.sub msg 0 6 = "line 2")
  | Ok _ -> Alcotest.fail "parsed nonsense"

(* Comments and blank lines are fixture affordances, not accidents. *)
let test_parse_comments () =
  match
    Mcheck.Explore.schedule_of_string
      "# header\n\nstep p0 # trailing\n  \ncommit p1 v2\n"
  with
  | Ok [ Mcheck.Explore.Step 0; Mcheck.Explore.Commit_var (1, 2) ] -> ()
  | Ok s ->
      Alcotest.failf "wrong parse: %s" (Mcheck.Explore.schedule_to_string s)
  | Error msg -> Alcotest.fail msg

let suite =
  [
    Alcotest.test_case "peterson unfenced TSO fixture replays" `Quick
      test_peterson_fixture;
    Alcotest.test_case "mp PSO fixture replays" `Quick test_mp_fixture;
    Alcotest.test_case "recoverable-tas crash fixture replays" `Quick
      test_crash_fixture;
    Alcotest.test_case "abortable-tas abort fixture replays" `Quick
      test_abort_fixture;
    Alcotest.test_case "compiled chrome export matches golden bytes" `Quick
      test_chrome_compiled_identical;
    Alcotest.test_case "fixture violation still reachable" `Quick
      test_fixture_still_reachable;
    Alcotest.test_case "parser rejects malformed moves" `Quick
      test_parse_rejects;
    Alcotest.test_case "parser handles comments and blanks" `Quick
      test_parse_comments;
    QCheck_alcotest.to_alcotest prop_move_roundtrip;
    QCheck_alcotest.to_alcotest prop_schedule_roundtrip;
  ]
