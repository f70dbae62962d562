(* Bechamel wall-clock benchmarks: one Test.make per experiment family.

   The paper's metrics are abstract (RMRs, fences) — regenerated by the
   printers in Experiments — so the timing benches measure the
   *reproduction machinery itself*: simulator event throughput, lock
   passage cost on the simulator, erasure/replay cost, one induction step
   of the adversary, the bound arithmetic, and model-checker node
   throughput.

   [rows] returns machine-readable {!row} records — ns_per_run for the
   wall-clock benches, ns_per_node / nodes for the model-checker
   throughput and POR node-count rows — so bench/main.ml can emit a JSON
   perf trajectory (--json FILE). Per-node rows carry a redundant
   [nodes_per_sec] ([1e9 / ns]) so downstream plots need no arithmetic;
   parallel-scaling rows carry the [domains] count that produced them. *)

open Bechamel
open Toolkit

(* One benchmark result. [r_domains]/[r_nps] are [None] for rows where
   they do not apply (wall-clock rows, gauge rows). *)
type row = {
  r_name : string;
  r_value : float;
  r_unit : string;
  r_domains : int option;  (* parallel rows: explorer domain count *)
  r_nps : float option;  (* per-node rows: nodes/sec, 1e9 / value *)
}

let row ?domains ?nodes_per_sec name value unit_name =
  { r_name = name; r_value = value; r_unit = unit_name;
    r_domains = domains; r_nps = nodes_per_sec }

(* Per-node rows always carry their nodes/sec alongside. *)
let per_node_row ?domains name ns =
  row ?domains ~nodes_per_sec:(1e9 /. ns) name ns "ns_per_node"

let make_lock_bench (fam : Locks.Lock_intf.family) ~n =
  Test.make
    ~name:(Printf.sprintf "sim/%s n=%d" fam.Locks.Lock_intf.family_name n)
    (Staged.stage (fun () ->
         let lock = fam.Locks.Lock_intf.instantiate ~n in
         let _, stats =
           Locks.Harness.run_contended ~model:Tsim.Config.Cc_wb lock ~n ~k:n
         in
         assert stats.Locks.Harness.exclusion_ok))

let bench_construction =
  Test.make ~name:"adversary/construction adaptive-list n=16"
    (Staged.stage (fun () ->
         let lock =
           Locks.Adaptive_list.family.Locks.Lock_intf.instantiate ~n:16
         in
         let c = Adversary.Construction.create lock ~n:16 in
         ignore (Adversary.Construction.run ~min_act:1 c)))

let bench_erasure =
  Test.make ~name:"trace/erase+replay bakery n=12"
    (Staged.stage (fun () ->
         let lock = Locks.Bakery.family.Locks.Lock_intf.instantiate ~n:12 in
         let m =
           Locks.Harness.machine_of_lock ~model:Tsim.Config.Cc_wb lock ~n:12
         in
         ignore (Tsim.Sched.round_robin m);
         let tr = Execution.Trace.of_machine m in
         ignore
           (Execution.Erasure.erase (Tsim.Machine.config m) tr
              (Tsim.Ids.Pidset.singleton 3))))

let bench_bounds =
  Test.make ~name:"bounds/cor2 sweep"
    (Staged.stage (fun () ->
         let f = Bounds.Adaptivity.linear 1.0 in
         List.iter
           (fun log2_n ->
             ignore (Bounds.Theorem1.max_forced_fences ~f ~log2_n ()))
           [ 1024.; 65536.; 1048576. ]))

let bench_inset =
  Test.make ~name:"analysis/inset check n=10"
    (Staged.stage (fun () ->
         let lock =
           Locks.Adaptive_list.family.Locks.Lock_intf.instantiate ~n:10
         in
         let c = Adversary.Construction.create lock ~n:10 in
         ignore (Adversary.Construction.run ~min_act:2 c);
         let tr =
           Execution.Trace.of_machine (Adversary.Construction.machine c)
         in
         ignore
           (Analysis.Inset.check ~in3:false tr
              (Adversary.Construction.active c))))

(* Peterson's 2-process algorithm — the model checker's reference
   exhaustive workload, shared by the wall-clock bench and the nodes/sec
   measurement below. *)
let peterson_cfg ?(passages = 1) () =
  let layout = Tsim.Layout.create () in
  let flag = Tsim.Layout.array layout ~init:0 "flag" 2 in
  let turn = Tsim.Layout.var layout ~init:0 "turn" in
  let open Tsim.Prog in
  Tsim.Config.make ~model:Tsim.Config.Cc_wb ~check_exclusion:true
    ~pure_programs:true ~n:2 ~max_passages:passages ~layout
    ~entry:(fun p ->
      let* () = write flag.(p) 1 in
      let* () = write turn p in
      let* () = fence in
      let rec await fuel =
        if fuel <= 0 then raise (Tsim.Prog.Spin_exhausted turn)
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

let bench_mcheck =
  Test.make ~name:"mcheck/peterson n=2 exhaustive"
    (Staged.stage (fun () ->
         let r = Mcheck.Explore.explore ~max_nodes:100_000 (peterson_cfg ()) in
         assert r.Mcheck.Explore.verified))

let bench_mcheck_nopor =
  Test.make ~name:"mcheck/peterson n=2 exhaustive (no por)"
    (Staged.stage (fun () ->
         let r =
           Mcheck.Explore.explore ~max_nodes:100_000 ~por:false
             (peterson_cfg ())
         in
         assert r.Mcheck.Explore.verified))

(* Model-checker node throughput: explore the Peterson space repeatedly
   for ~0.3s of wall clock and report ns per expanded node (the bench's
   headline number; nodes/sec = 1e9 / ns). Measured with and without the
   partial-order reduction: POR spends extra work per node (footprints,
   sleep-mask filtering, singleton validation) to expand far fewer
   of them, so the two per-node figures bracket its bookkeeping cost
   while the node-count rows show what it buys. *)
(* The per-node rows run inside the same process as the Bechamel session,
   whose retained major heap would otherwise tax every GC slice of the
   measurement loop (observed: ~1000 ns/node of pure harness pollution) —
   compact first. Each row is then the minimum over six 0.1 s windows:
   on shared/noisy runners the mean of a single window folds scheduler
   interference into the row, while the window minimum estimates the
   code's intrinsic per-node cost. *)
let per_node_min explore_once =
  Gc.compact ();
  let best = ref infinity in
  for _ = 1 to 6 do
    let nodes = ref 0 in
    let t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < 0.1 do
      nodes := !nodes + explore_once ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let ns = dt *. 1e9 /. float_of_int !nodes in
    if ns < !best then best := ns
  done;
  !best

let mcheck_per_node_ns ?(engine = `Journal) ~por () =
  let cfg = { (peterson_cfg ()) with Tsim.Config.engine } in
  let r = Mcheck.Explore.explore ~max_nodes:100_000 ~por cfg in
  assert r.Mcheck.Explore.verified;
  per_node_min (fun () ->
      let r = Mcheck.Explore.explore ~max_nodes:100_000 ~por cfg in
      assert r.Mcheck.Explore.verified;
      r.Mcheck.Explore.nodes)

(* The same per-node measurement with an NDJSON sink attached (streamed
   to the null device): prices the telemetry path — heartbeat counter
   snapshots, gauge encoding, channel writes — against the sinks-off row
   above. BENCH_PR4.json commits both so the §5d overhead contract
   (sinks off ≈ free, sinks on only pay at 1024-node heartbeats) stays
   auditable across PRs. *)
let mcheck_per_node_ns_sinks () =
  let cfg = peterson_cfg () in
  let oc = open_out Filename.null in
  let obs = Obs.Telemetry.create ~sinks:[ Obs.Sink.ndjson oc ] () in
  let r = Mcheck.Explore.explore ~max_nodes:100_000 ~obs cfg in
  assert r.Mcheck.Explore.verified;
  let ns =
    per_node_min (fun () ->
        let r = Mcheck.Explore.explore ~max_nodes:100_000 ~obs cfg in
        assert r.Mcheck.Explore.verified;
        r.Mcheck.Explore.nodes)
  in
  Obs.Telemetry.close obs;
  close_out oc;
  ns

(* Overhead rows compare two variants of the same tiny workload, and
   the margin under test (a few percent) is far below the noise of a
   shared runner's 100ms windows. So both variants time every
   individual explore call (~0.4 ms) interleaved and compare per-call
   minima: an uninterrupted call is a clean sample of intrinsic cost,
   and among thousands of calls some are uninterrupted even on a busy
   box. *)
let per_node_min_pair f g =
  ignore (f ());
  ignore (g ());
  Gc.compact ();
  let bf = ref infinity and bg = ref infinity in
  let one h best =
    for _ = 1 to 300 do
      let t0 = Unix.gettimeofday () in
      let nodes = h () in
      let dt = Unix.gettimeofday () -. t0 in
      let ns = dt *. 1e9 /. float_of_int nodes in
      if ns < !best then best := ns
    done
  in
  for _ = 1 to 4 do
    one f bf;
    one g bg
  done;
  (!bf, !bg)

(* Profiling overhead: the reference workload with the profile
   accumulator attached at the front ends' sampling stride
   ({!Mcheck.Explore.default_profile_every}: strided statistical
   attribution — a disarmed node costs one counter decrement, an armed
   one a tick read and an open-addressing bump). This is the ≤5%
   pay-for-use contract of DESIGN.md §5i, asserted here; exact
   attribution (every=1) and the progress estimator are priced in
   their own unasserted rows below. *)
let profile_overhead_rows () =
  let cfg = peterson_cfg () in
  let bare () =
    let r = Mcheck.Explore.explore ~max_nodes:100_000 cfg in
    assert r.Mcheck.Explore.verified;
    r.Mcheck.Explore.nodes
  in
  let profiled () =
    let p =
      Mcheck.Explore.new_profile ~every:Mcheck.Explore.default_profile_every
        ()
    in
    let r = Mcheck.Explore.explore ~max_nodes:100_000 ~profile:p cfg in
    assert r.Mcheck.Explore.verified;
    r.Mcheck.Explore.nodes
  in
  let estimated () =
    let r =
      Mcheck.Explore.explore ~max_nodes:100_000
        ~estimator:{ Obs.Estimator.probes = 64; seed = 0 }
        cfg
    in
    assert r.Mcheck.Explore.verified;
    r.Mcheck.Explore.nodes
  in
  let b1, prof = per_node_min_pair bare profiled in
  let b2, est = per_node_min_pair bare estimated in
  let prof_pct = (prof -. b1) /. b1 *. 100. in
  let est_pct = (est -. b2) /. b2 *. 100. in
  (* the pay-for-use contract: sampled profiling within 5% of bare *)
  assert (prof_pct <= 5.0);
  [
    per_node_row "price_adaptive mcheck/peterson n=2 per-node (profiled)"
      prof;
    row "price_adaptive mcheck/peterson n=2 profiling overhead" prof_pct
      "percent";
    per_node_row
      "price_adaptive mcheck/peterson n=2 per-node (progress estimator)" est;
    row "price_adaptive mcheck/peterson n=2 estimator overhead" est_pct
      "percent";
  ]

(* Estimator accuracy on the reference workload: mean probe estimate
   over a fixed seed set against the exhaustively-counted space, plus
   its relative error — the bench-side echo of the unbiasedness test
   (suite_profile), kept as JSON rows so the trajectory of the
   estimator's accuracy is archived alongside its cost. *)
let estimator_rows () =
  let cfg = peterson_cfg () in
  let truth =
    float_of_int
      (Mcheck.Explore.explore ~max_nodes:100_000 cfg).Mcheck.Explore.nodes
  in
  let seeds = 10 in
  let sum = ref 0.0 in
  for seed = 0 to seeds - 1 do
    let r =
      Mcheck.Explore.explore ~max_nodes:100_000
        ~estimator:{ Obs.Estimator.probes = 64; seed }
        cfg
    in
    assert (r.Mcheck.Explore.nodes = int_of_float truth);
    sum := !sum +. r.Mcheck.Explore.stats.Mcheck.Explore.est_nodes
  done;
  let mean = !sum /. float_of_int seeds in
  [
    row "price_adaptive mcheck/peterson n=2 nodes (true)" truth "nodes";
    row "price_adaptive mcheck/peterson n=2 estimated nodes (mean, 10 seeds)"
      mean "nodes";
    row "price_adaptive mcheck/peterson n=2 estimator rel error"
      (Float.abs (mean -. truth) /. truth *. 100.)
      "percent";
  ]

(* States expanded on the reference exhaustive workload, with and without
   the reduction — the acceptance metric for the POR work (the reduced
   count must stay at least 2x below the full one; test
   suite_mcheck_equiv asserts the same inequality). *)
let mcheck_nodes ~por () =
  let r = Mcheck.Explore.explore ~max_nodes:100_000 ~por (peterson_cfg ()) in
  assert r.Mcheck.Explore.verified;
  float_of_int r.Mcheck.Explore.nodes

(* Crash-mode exploration: the recoverable TAS lock under one injected
   crash with drop-buffer semantics. Crash moves widen the branching
   factor (every live process can crash at every node) and suspend the
   singleton-ample fusion while budget remains, so this workload prices
   the fault-injection machinery rather than plain interleaving. The
   node budget caps the smoke run; the space is ~2k nodes so the cap
   never binds in practice. *)
let rtas_crash_cfg () =
  Locks.Harness.config_of_lock ~model:Tsim.Config.Cc_wb
    ~crash_semantics:Tsim.Config.Drop_buffer
    (Locks.Recoverable_tas.make ~n:2) ~n:2

let bench_mcheck_crash =
  Test.make ~name:"mcheck/recoverable-tas n=2 crashes<=1"
    (Staged.stage (fun () ->
         let r =
           Mcheck.Explore.explore ~max_nodes:100_000 ~max_crashes:1
             (rtas_crash_cfg ())
         in
         assert r.Mcheck.Explore.verified))

(* Abort-mode exploration: the abortable TAS/backoff lock under one
   injected abort. Abort moves are offered at every declared wait point
   of every waiting process and suspend the singleton-ample fusion while
   budget remains, so this workload prices the abort-injection machinery
   (deliverability checks, cleanup continuations, the widened move
   codec) rather than plain interleaving. *)
let atas_abort_cfg () =
  Locks.Harness.config_of_lock ~model:Tsim.Config.Cc_wb
    (Locks.Abortable_tas.make ~n:2) ~n:2

let bench_mcheck_abort =
  Test.make ~name:"mcheck/abortable-tas n=2 aborts<=1"
    (Staged.stage (fun () ->
         let r =
           Mcheck.Explore.explore ~max_nodes:100_000 ~max_aborts:1
             (atas_abort_cfg ())
         in
         assert r.Mcheck.Explore.verified))

let mcheck_abort_per_node_ns ?(engine = `Journal) ~por () =
  let cfg = { (atas_abort_cfg ()) with Tsim.Config.engine } in
  let r = Mcheck.Explore.explore ~max_nodes:100_000 ~max_aborts:1 ~por cfg in
  assert r.Mcheck.Explore.verified;
  per_node_min (fun () ->
      let r =
        Mcheck.Explore.explore ~max_nodes:100_000 ~max_aborts:1 ~por cfg
      in
      assert r.Mcheck.Explore.verified;
      r.Mcheck.Explore.nodes)

let mcheck_abort_nodes ~por () =
  let r =
    Mcheck.Explore.explore ~max_nodes:100_000 ~max_aborts:1 ~por
      (atas_abort_cfg ())
  in
  assert r.Mcheck.Explore.verified;
  float_of_int r.Mcheck.Explore.nodes

let mcheck_crash_per_node_ns ?(engine = `Journal) ~por () =
  let cfg = { (rtas_crash_cfg ()) with Tsim.Config.engine } in
  let r = Mcheck.Explore.explore ~max_nodes:100_000 ~max_crashes:1 ~por cfg in
  assert r.Mcheck.Explore.verified;
  per_node_min (fun () ->
      let r =
        Mcheck.Explore.explore ~max_nodes:100_000 ~max_crashes:1 ~por cfg
      in
      assert r.Mcheck.Explore.verified;
      r.Mcheck.Explore.nodes)

(* Steady-state allocation of the exploration: minor words allocated per
   expanded node over a full explore call (machine creation and the seen
   store included). The compiled engine's acceptance contract is ≈ 0 in
   the DFS steady state — the measured figure is dominated by the
   per-call setup (machine creation, store arrays) amortized over the
   290-node Peterson space, so "≈ 0" reads as tens of words here versus
   hundreds for the interpretive engines at PR5. *)
let mcheck_minor_words_per_node ?(engine = `Journal) ~por () =
  let cfg = { (peterson_cfg ()) with Tsim.Config.engine } in
  let go () =
    let r = Mcheck.Explore.explore ~max_nodes:100_000 ~por cfg in
    assert r.Mcheck.Explore.verified;
    r.Mcheck.Explore.nodes
  in
  ignore (go ());
  let w0 = Gc.minor_words () in
  let nodes = go () in
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int nodes

let mcheck_crash_nodes ~por () =
  let r =
    Mcheck.Explore.explore ~max_nodes:100_000 ~max_crashes:1 ~por
      (rtas_crash_cfg ())
  in
  assert r.Mcheck.Explore.verified;
  float_of_int r.Mcheck.Explore.nodes

(* Domain-scaling rows: the shared-store parallel driver on spaces large
   enough for the BFS seed to leave real work on the deques (the
   single-passage Peterson space is too small — its POR-reduced BFS
   drains before the frontier target). Three passages give ~2.8k POR
   states; the recoverable-TAS search under a two-crash budget gives
   ~2.1k. Each row records the domain count it ran under, so the scaling
   curve (EXPERIMENTS.md E17) reads straight off the JSON. The rows are
   measured wherever the bench runs — on a single-core host they show
   the parallel driver's overhead, not a speedup; CI gating skips
   domains > 1 rows for exactly that reason (core counts vary across
   runners). *)
let peterson_scaling_cfg () = peterson_cfg ~passages:3 ()

let mcheck_parallel_per_node_ns ~mk_cfg ~max_crashes ~domains () =
  let cfg = mk_cfg () in
  let go () =
    let r =
      Mcheck.Explore.explore ~max_nodes:2_000_000 ~max_crashes ~domains cfg
    in
    assert r.Mcheck.Explore.verified;
    r.Mcheck.Explore.nodes
  in
  ignore (go ());
  per_node_min go

let scaling_rows () =
  List.concat_map
    (fun (label, mk_cfg, max_crashes) ->
      List.map
        (fun domains ->
          per_node_row ~domains
            (Printf.sprintf "price_adaptive mcheck/%s per-node (d=%d)" label
               domains)
            (mcheck_parallel_per_node_ns ~mk_cfg ~max_crashes ~domains ()))
        [ 1; 4; 8 ])
    [
      ("peterson n=2 passages=3", peterson_scaling_cfg, 0);
      ("recoverable-tas n=2 crashes<=2", rtas_crash_cfg, 2);
    ]

(* Journal-engine gauges on the reference POR workloads: high-water
   undo-log depth (bounds the rollback memory footprint — should track
   DFS depth times records/event, not the state-space size) and undo
   records pushed per expanded node (the per-node journaling overhead
   the in-place engine pays instead of a clone). *)
let journal_gauges explore_fn =
  let r = explore_fn () in
  assert r.Mcheck.Explore.verified;
  let s = r.Mcheck.Explore.stats in
  ( float_of_int s.Mcheck.Explore.journal_peak,
    float_of_int s.Mcheck.Explore.undo_records
    /. float_of_int (max 1 r.Mcheck.Explore.nodes) )

let peterson_journal_gauges () =
  journal_gauges (fun () ->
      Mcheck.Explore.explore ~max_nodes:100_000 (peterson_cfg ()))

let rtas_journal_gauges () =
  journal_gauges (fun () ->
      Mcheck.Explore.explore ~max_nodes:100_000 ~max_crashes:1
        (rtas_crash_cfg ()))

(* Campaign throughput: a small verification grid (six locks at n=2..3)
   through the orchestrator, cold against an empty
   in-memory cache and warm against the cache the cold run filled. The
   cold row prices whole-search scheduling at the campaign level; the
   warm row prices the cache path (key rendering, lookup, report
   assembly) and their ratio is the §5j "warm re-run is ~free" contract
   in bench form. [cells_per_sec] rows are never gated by --compare —
   the cold figure is dominated by explorer work already gated per-node
   above. *)
let campaign_rows () =
  let plan =
    match
      Campaign.Driver.parse_grid
        "lock=tas,ticket,mcs,clh,bakery,filter n=2-3 crashes=0"
    with
    | Ok grid -> { Campaign.Driver.grid; brackets = [] }
    | Error m -> failwith m
  in
  let cache = Campaign.Cache.in_memory () in
  let time () =
    let t0 = Unix.gettimeofday () in
    let r =
      Campaign.Driver.run ~jobs:1 ~max_nodes:200_000 ~cache plan
    in
    (Unix.gettimeofday () -. t0, r)
  in
  let cold_s, cold = time () in
  assert (cold.Campaign.Driver.executed = List.length plan.grid);
  (* warm: same cache, so every cell answers from it *)
  let warm_best = ref infinity in
  for _ = 1 to 5 do
    let warm_s, warm = time () in
    assert (warm.Campaign.Driver.executed = 0);
    assert (warm.Campaign.Driver.hits = List.length plan.grid);
    if warm_s < !warm_best then warm_best := warm_s
  done;
  let cells = float_of_int (List.length plan.grid) in
  [
    row "price_adaptive campaign/small-grid cold" (cells /. cold_s)
      "cells_per_sec";
    row "price_adaptive campaign/small-grid warm" (cells /. !warm_best)
      "cells_per_sec";
    row "price_adaptive campaign warm speedup" (cold_s /. !warm_best) "x";
  ]

let bench_lincheck =
  Test.make ~name:"lincheck/faa 12 ops"
    (Staged.stage (fun () ->
         let layout = Tsim.Layout.create () in
         let c = Objects.Counter.make_faa layout in
         let _, v =
           Lincheck.Workload.run_and_check
             ~schedule:(Lincheck.Workload.Rand 42) ~layout ~n:4
             ~ops_per_proc:3
             (fun p _ ->
               Lincheck.Workload.op "faa" (c.Objects.Counter.fetch_inc p))
             Lincheck.Spec.counter
         in
         assert v.Lincheck.Checker.linearizable))

let tests =
  [
    make_lock_bench Locks.Ticket.family ~n:8;
    make_lock_bench Locks.Mcs.family ~n:8;
    make_lock_bench Locks.Bakery.family ~n:8;
    make_lock_bench Locks.Tournament.family ~n:8;
    bench_construction;
    bench_erasure;
    bench_bounds;
    bench_inset;
    bench_mcheck;
    bench_mcheck_nopor;
    bench_mcheck_crash;
    bench_mcheck_abort;
    bench_lincheck;
  ]

(* Run every Bechamel test and return [(name, value, unit)] rows: the
   wall-clock benches in ns/run, plus the model-checker per-node costs
   and node counts (por on/off) as their own rows. *)
let rows () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 500) ()
  in
  let raw_results =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"price_adaptive" ~fmt:"%s %s" tests)
  in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let results = Analyze.merge ols instances results in
  let bench_rows =
    match Hashtbl.find_opt results (Measure.label Instance.monotonic_clock)
    with
    | None -> []
    | Some tbl ->
        Hashtbl.fold
          (fun name ols_result acc ->
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] -> row name est "ns_per_run" :: acc
            | _ -> acc)
          tbl []
        |> List.sort compare
  in
  let pj_peak, pj_upn = peterson_journal_gauges () in
  let rj_peak, rj_upn = rtas_journal_gauges () in
  bench_rows
  @ [
      per_node_row "price_adaptive mcheck/peterson n=2 per-node"
        (mcheck_per_node_ns ~por:true ());
      per_node_row "price_adaptive mcheck/peterson n=2 per-node (no por)"
        (mcheck_per_node_ns ~por:false ());
      per_node_row "price_adaptive mcheck/peterson n=2 per-node (ndjson sink)"
        (mcheck_per_node_ns_sinks ());
      per_node_row
        "price_adaptive mcheck/peterson n=2 per-node (compiled engine)"
        (mcheck_per_node_ns ~engine:`Compiled ~por:true ());
      per_node_row
        "price_adaptive mcheck/peterson n=2 per-node (compiled engine, no \
         por)"
        (mcheck_per_node_ns ~engine:`Compiled ~por:false ());
      row "price_adaptive mcheck/peterson n=2 minor words per node (compiled)"
        (mcheck_minor_words_per_node ~engine:`Compiled ~por:true ())
        "words_per_node";
      row "price_adaptive mcheck/peterson n=2 minor words per node (journal)"
        (mcheck_minor_words_per_node ~engine:`Journal ~por:true ())
        "words_per_node";
      row "price_adaptive mcheck/peterson n=2 nodes"
        (mcheck_nodes ~por:true ()) "nodes";
      row "price_adaptive mcheck/peterson n=2 nodes (no por)"
        (mcheck_nodes ~por:false ()) "nodes";
      row "price_adaptive mcheck/peterson n=2 journal peak" pj_peak "records";
      row "price_adaptive mcheck/peterson n=2 undo records per node" pj_upn
        "records_per_node";
      per_node_row "price_adaptive mcheck/recoverable-tas n=2 crash per-node"
        (mcheck_crash_per_node_ns ~por:true ());
      per_node_row
        "price_adaptive mcheck/recoverable-tas n=2 crash per-node (compiled \
         engine)"
        (mcheck_crash_per_node_ns ~engine:`Compiled ~por:true ());
      row "price_adaptive mcheck/recoverable-tas n=2 crash nodes"
        (mcheck_crash_nodes ~por:true ()) "nodes";
      row "price_adaptive mcheck/recoverable-tas n=2 crash nodes (no por)"
        (mcheck_crash_nodes ~por:false ()) "nodes";
      row "price_adaptive mcheck/recoverable-tas n=2 journal peak" rj_peak
        "records";
      row "price_adaptive mcheck/recoverable-tas n=2 undo records per node"
        rj_upn "records_per_node";
      per_node_row "price_adaptive mcheck/abortable-tas n=2 abort per-node"
        (mcheck_abort_per_node_ns ~por:true ());
      per_node_row
        "price_adaptive mcheck/abortable-tas n=2 abort per-node (compiled \
         engine)"
        (mcheck_abort_per_node_ns ~engine:`Compiled ~por:true ());
      row "price_adaptive mcheck/abortable-tas n=2 abort nodes"
        (mcheck_abort_nodes ~por:true ()) "nodes";
      row "price_adaptive mcheck/abortable-tas n=2 abort nodes (no por)"
        (mcheck_abort_nodes ~por:false ()) "nodes";
    ]
  @ profile_overhead_rows () @ estimator_rows () @ campaign_rows ()
  @ scaling_rows ()

let print_rows rows =
  Printf.printf "\n%-62s %16s\n" "benchmark" "value";
  List.iter
    (fun r -> Printf.printf "%-62s %13.0f %s\n" r.r_name r.r_value r.r_unit)
    rows;
  let find n =
    List.find_map
      (fun r -> if r.r_name = n then Some r.r_value else None)
      rows
  in
  (match find "price_adaptive mcheck/peterson n=2 per-node" with
  | Some ns ->
      Printf.printf "%-62s %13.0f nodes/sec\n" "mcheck explorer throughput"
        (1e9 /. ns)
  | None -> ());
  (match
     ( find "price_adaptive mcheck/peterson n=2 per-node (compiled engine)",
       find "price_adaptive mcheck/peterson n=2 per-node" )
   with
  | Some comp, Some j when comp > 0. ->
      Printf.printf "%-62s %13.2f x\n" "mcheck compiled vs journal speedup"
        (j /. comp)
  | _ -> ());
  (match find "price_adaptive campaign warm speedup" with
  | Some x -> Printf.printf "%-62s %13.2f x\n" "campaign warm-cache speedup" x
  | None -> ());
  (match
     ( find "price_adaptive mcheck/peterson n=2 nodes",
       find "price_adaptive mcheck/peterson n=2 nodes (no por)" )
   with
  | Some on, Some off when on > 0. ->
      Printf.printf "%-62s %13.2f x\n" "mcheck por node reduction" (off /. on)
  | _ -> ());
  (match
     ( find "price_adaptive mcheck/recoverable-tas n=2 crash nodes",
       find "price_adaptive mcheck/recoverable-tas n=2 crash nodes (no por)" )
   with
  | Some on, Some off when on > 0. ->
      Printf.printf "%-62s %13.2f x\n" "mcheck por node reduction (crashes)"
        (off /. on)
  | _ -> ());
  match
    ( find "price_adaptive mcheck/peterson n=2 passages=3 per-node (d=1)",
      find "price_adaptive mcheck/peterson n=2 passages=3 per-node (d=8)" )
  with
  | Some one, Some eight when eight > 0. ->
      Printf.printf "%-62s %13.2f x\n"
        "mcheck parallel throughput d=8 vs d=1" (one /. eight)
  | _ -> ()

let run () =
  let rs = rows () in
  print_rows rs;
  rs
