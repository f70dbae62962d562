(* The mutation journal (Machine.Journal) and the in-place DFS engine.

   Three layers of evidence that stepping-in-place is equivalent to
   cloning:

   - a random-walk property: from any reachable state, apply one enabled
     move (including crash/recover and PSO out-of-order commits) and roll
     it back through the journal — the machine must be structurally
     [Machine.equal] to a clone taken before the move, with the same
     fingerprint, and the incrementally-maintained fingerprint must agree
     with the full recompute at every visited state;

   - a differential check over the golden workloads against the
     clone-per-child reference explorer (reference.ml,
     suite_reference.ml): with and without the reduction, sequential and
     parallel, the same violation kinds, and without the reduction the
     same state count and, via [~on_fingerprint], the same state set;

   - byte-level invisibility: replaying the corpus fixture with trace
     recording on under either engine produces the byte-identical Chrome
     export pinned by test/corpus/peterson_unfenced_tso.trace.json. *)

open Tsim
open Tsim.Prog
module E = Mcheck.Explore

(* --- workloads (duplicated on purpose, like suite_corpus) --------------- *)

let peterson_unfenced () =
  let layout = Layout.create () in
  let flag = Layout.array layout ~init:0 "flag" 2 in
  let turn = Layout.var layout ~init:0 "turn" in
  Config.make ~model:Config.Cc_wb ~check_exclusion:true ~pure_programs:true
    ~n:2 ~layout
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

(* One walk: journal on, repeatedly pick a random enabled move; before
   applying it, snapshot (clone + full fingerprint + mark); apply (the
   move may raise Exclusion_violation / Spin_exhausted mid-mutation —
   exactly the exception paths the DFS engine must roll back from); undo;
   check the machine is structurally identical to the snapshot with both
   fingerprints agreeing; then re-apply the move to advance. *)
let walk_restores cfg seed =
  let rng = Random.State.make [| seed |] in
  let m = Machine.create cfg in
  Machine.Journal.enable m;
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
    prop_walk "walk/undo: peterson with trace recording"
      { (peterson_unfenced ()) with Config.record_trace = true };
    prop_walk "walk/undo: rtas atomic-prefix with trace recording"
      {
        (rtas ~crash_semantics:Config.Atomic_prefix ()) with
        Config.record_trace = true;
      };
  ]

(* --- the journal engine against the reference ------------------------- *)

(* Verdicts, state counts and state sets against the reference explorer
   (Suite_reference.check) on the golden workloads, per engine — pinned,
   because the config default bends to PA_ENGINE: the journal
   interpreter on every workload, and compile-ahead execution on the
   pure ones. *)
let check_engine engine name ?max_crashes mk_cfg =
  Suite_reference.check
    (Printf.sprintf "%s (%s)" name (Config.engine_name engine))
    ?max_crashes
    (fun () -> { (mk_cfg ()) with Config.engine })

let test_engines_peterson () =
  check_engine `Journal "peterson" peterson_unfenced

let test_engines_mp_pso () = check_engine `Journal "mp_pso" mp_pso

let test_engines_rtas () =
  check_engine `Journal "rtas" ~max_crashes:1
    (rtas ~crash_semantics:Config.Drop_buffer)

let test_fp_sets_peterson () =
  check_engine `Compiled "peterson" peterson_unfenced

let test_fp_sets_rtas () =
  check_engine `Compiled "rtas" ~max_crashes:1
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
  (* pin the engine: the config default bends to PA_ENGINE *)
  let cfg = { (peterson_unfenced ()) with Config.engine = `Journal } in
  List.iter
    (fun domains ->
      let r = E.explore ~max_nodes:200_000 ~domains cfg in
      let tag = Printf.sprintf "d=%d: " domains in
      Alcotest.(check bool) (tag ^ "journal pushes records") true
        (r.E.stats.E.undo_records > 0);
      Alcotest.(check bool) (tag ^ "journal has a peak") true
        (r.E.stats.E.journal_peak > 0))
    [ 1; 2 ]

(* --- byte-identical Chrome export under the journal engine ------------- *)

let test_chrome_byte_identical () =
  let schedule =
    match
      E.load_schedule (Filename.concat "corpus" "peterson_unfenced_tso.sched")
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "fixture schedule: %s" e
  in
  let export engine =
    let cfg =
      { (peterson_unfenced ()) with Config.record_trace = true; engine }
    in
    let m, outcome = E.replay cfg schedule in
    (match outcome with
    | E.R_exclusion _ -> ()
    | _ -> Alcotest.fail "fixture replay should end in the exclusion");
    Execution.Chrome.to_string (Execution.Trace.of_machine m)
  in
  let golden =
    In_channel.with_open_bin
      (Filename.concat "corpus" "peterson_unfenced_tso.trace.json")
      In_channel.input_all
  in
  Alcotest.(check string) "journal replay matches the golden bytes" golden
    (export `Journal);
  Alcotest.(check string) "compiled replay matches the golden bytes" golden
    (export `Compiled)

let suite =
  List.map QCheck_alcotest.to_alcotest walk_props
  @ [
      Alcotest.test_case "engines agree: peterson" `Quick
        test_engines_peterson;
      Alcotest.test_case "engines agree: mp PSO" `Quick test_engines_mp_pso;
      Alcotest.test_case "engines agree: rtas crashes<=1" `Quick
        test_engines_rtas;
      Alcotest.test_case "fingerprint sets agree: peterson" `Quick
        test_fp_sets_peterson;
      Alcotest.test_case "fingerprint sets agree: rtas" `Quick
        test_fp_sets_rtas;
      Alcotest.test_case "paranoid fingerprint cross-check" `Quick
        test_paranoid;
      Alcotest.test_case "journal gauges in stats" `Quick test_journal_stats;
      Alcotest.test_case "chrome export byte-identical across engines"
        `Quick test_chrome_byte_identical;
    ]
