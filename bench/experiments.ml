(* Experiment printers E1-E9 (see DESIGN.md §3).

   The paper has one figure (Fig. 1) and a set of theorems/corollaries as
   its "evaluation"; each experiment regenerates one of them from the
   implementation. EXPERIMENTS.md records the outputs. *)

open Tsim
open Tsim.Ids

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ---------------------------------------------------------------------- *)
(* E1 — Figure 1: structure of the inductive construction                  *)
(* ---------------------------------------------------------------------- *)

let e1_fig1_construction_trace () =
  hr "E1 (Figure 1): structure of the inductive construction";
  Printf.printf
    "Per induction step: surviving |Act|, |Fin|, fence range over active\n\
     processes, and the sequence of construction rounds (read / fence /\n\
     write-low / write-high / rmw), for two targets.\n";
  List.iter
    (fun ((fam : Locks.Lock_intf.family), n) ->
      let lock = fam.Locks.Lock_intf.instantiate ~n in
      let c = Adversary.Construction.create lock ~n in
      let report = Adversary.Construction.run ~min_act:1 c in
      Format.printf "@.%a" Adversary.Report.pp report)
    [
      (Locks.Adaptive_list.family, 16);
      (Locks.Adaptive_tree.family, 16);
      (Locks.Tournament.family, 16);
    ]

(* ---------------------------------------------------------------------- *)
(* E2 — Theorems 1 and 3: Act trajectory and the forced-fence witness      *)
(* ---------------------------------------------------------------------- *)

let e2_trajectory_for (fam : Locks.Lock_intf.family) ~n =
  let lock = fam.Locks.Lock_intf.instantiate ~n in
  let c = Adversary.Construction.create lock ~n in
  let report = Adversary.Construction.run ~min_act:1 c in
  let log2_n = Bounds.Logspace.log2 (float_of_int n) in
  Printf.printf
    "\n%s, N = %d. Theorem 3 bound uses l_i = max criticals.\n"
    fam.Locks.Lock_intf.family_name n;
  Printf.printf "%4s %12s %22s %14s\n" "i" "|Act(H_i)|"
    "Thm3 bound (log2)" "fences/active";
  List.iter
    (fun (s : Adversary.Report.step) ->
      let i = s.Adversary.Report.index + 1 in
      let ell = max 1 s.Adversary.Report.max_criticals in
      let bound = Bounds.Theorem3.log2_act_bound ~log2_n ~ell ~i in
      Printf.printf "%4d %12d %22.2f %14s\n" i s.Adversary.Report.act_size
        bound
        (Printf.sprintf "[%d..%d]" s.Adversary.Report.min_fences
           s.Adversary.Report.max_fences))
    report.Adversary.Report.steps;
  match Adversary.Witness.extract c with
  | Some w ->
      Printf.printf "Theorem 1 witness: %s\n" w.Adversary.Witness.detail
  | None -> Printf.printf "Theorem 1 witness: (none — all finished)\n"

let e2_thm1_act_trajectory () =
  hr "E2 (Theorems 1 & 3): |Act(H_i)| trajectory and the fence witness";
  e2_trajectory_for Locks.Adaptive_list.family ~n:48;
  e2_trajectory_for Locks.Cascade.family ~n:48;
  Printf.printf
    "\nPaper: at total contention i+1 a process executes i fences (linear\n\
     adaptivity); measured above: fences = contention - 1 for the\n\
     announce list, and ~2 fences per step against the read/write\n\
     cascade (each splitter publish costs a fence pair).\n"

(* ---------------------------------------------------------------------- *)
(* E3 — Corollary 1: forced fences, adaptive vs non-adaptive               *)
(* ---------------------------------------------------------------------- *)

let e3_cor1_forced_fences () =
  hr "E3 (Corollary 1): forced fences vs contention, per target";
  let ks = [ 2; 4; 8; 16; 32; 64 ] in
  let targets =
    [
      Locks.Adaptive_list.family;
      Locks.Adaptive_tree.family;
      Locks.Cascade.family;
      Locks.Ticket.family;
      Locks.Bakery.family;
      Locks.Tournament.family;
      Locks.Fastpath.family;
    ]
  in
  Printf.printf "%-15s" "target \\ k";
  List.iter (fun k -> Printf.printf "%8d" k) ks;
  Printf.printf "\n";
  List.iter
    (fun (fam : Locks.Lock_intf.family) ->
      Printf.printf "%-15s" fam.Locks.Lock_intf.family_name;
      List.iter
        (fun k ->
          let lock = fam.Locks.Lock_intf.instantiate ~n:k in
          let c = Adversary.Construction.create lock ~n:k in
          let report = Adversary.Construction.run ~min_act:1 c in
          Printf.printf "%8d" report.Adversary.Report.best_fences)
        ks;
      Printf.printf "\n")
    targets;
  Printf.printf
    "\nThe adaptive target's forced fences grow linearly with total\n\
     contention k (no O(1)-fence adaptive algorithm, Corollary 1); the\n\
     non-adaptive ticket/bakery rows stay constant, and the tournament\n\
     grows only with its log-depth fence count. The cascade row is the\n\
     headline: a genuine READ/WRITE linear-adaptive lock (Kim-Anderson\n\
     shape) forced into Theta(k) fences through the paper's full\n\
     three-phase pipeline; adaptive-tree (single renaming stage) pays its\n\
     fences up front and saturates.\n"

(* ---------------------------------------------------------------------- *)
(* E4 / E5 — Corollaries 2 and 3: tradeoff sweeps                          *)
(* ---------------------------------------------------------------------- *)

let sweep_rows f closed log2_ns =
  List.iter
    (fun log2_n ->
      Printf.printf "%14.0f %10d %14.2f\n" log2_n
        (Bounds.Theorem1.max_forced_fences ~f ~log2_n ())
        (closed ~log2_n))
    log2_ns

let e4_cor2_linear_tradeoff () =
  hr "E4 (Corollary 2): linear adaptivity forces Omega(log log N) fences";
  List.iter
    (fun c ->
      Printf.printf "\nf(i) = %g i:\n%14s %10s %14s\n" c "log2 N" "forced"
        "(1/3c)loglogN";
      sweep_rows
        (Bounds.Adaptivity.linear c)
        (fun ~log2_n -> Bounds.Corollaries.cor2_closed_form ~c ~log2_n)
        [ 16.; 64.; 256.; 1024.; 4096.; 65536.; 1048576.; 1073741824. ])
    [ 1.0; 2.0 ]

let e5_cor3_exp_tradeoff () =
  hr "E5 (Corollary 3): exponential adaptivity forces Omega(logloglog N)";
  List.iter
    (fun c ->
      Printf.printf "\nf(i) = 2^(%g i):\n%14s %10s %14s\n" c "log2 N"
        "forced" "(1/c)(lll N-1)";
      sweep_rows
        (Bounds.Adaptivity.exponential c)
        (fun ~log2_n -> Bounds.Corollaries.cor3_closed_form ~c ~log2_n)
        [ 16.; 64.; 256.; 1024.; 4096.; 65536.; 1048576.; 1073741824. ])
    [ 1.0 ]

(* ---------------------------------------------------------------------- *)
(* E6 — lock zoo evaluation: RMRs and fences per passage                   *)
(* ---------------------------------------------------------------------- *)

let e6_eval_lock_zoo () =
  hr "E6: lock zoo — RMRs and fences per passage (round-robin schedule)";
  let n = 16 in
  let ks = [ 1; 4; 16 ] in
  List.iter
    (fun model ->
      Printf.printf "\n[%s]  n = %d\n" (Config.mem_model_name model) n;
      Printf.printf "%-15s" "lock \\ k";
      List.iter
        (fun k -> Printf.printf "   %12s" (Printf.sprintf "k=%d r/f" k))
        ks;
      Printf.printf "\n";
      List.iter
        (fun (fam : Locks.Lock_intf.family) ->
          Printf.printf "%-15s" fam.Locks.Lock_intf.family_name;
          List.iter
            (fun k ->
              let lock = fam.Locks.Lock_intf.instantiate ~n in
              let _, stats =
                Locks.Harness.run_contended ~model lock ~n ~k
              in
              Printf.printf "   %12s"
                (Printf.sprintf "%d/%d" stats.Locks.Harness.max_rmrs_per_passage
                   stats.Locks.Harness.max_fences_per_passage))
            ks;
          Printf.printf "\n")
        Locks.Zoo.all)
    [ Config.Dsm; Config.Cc_wt; Config.Cc_wb ];
  Printf.printf
    "\n(max RMRs / max fences per passage; tournament = O(log n) RMR\n\
     read/write baseline, ticket = O(1)-fence non-adaptive baseline,\n\
     bakery = Theta(n) RMR with O(1) fences, adaptive-list = O(k).)\n"

(* ---------------------------------------------------------------------- *)
(* E7 — PSO tradeoff frontier (Discussion, Inequality 3)                   *)
(* ---------------------------------------------------------------------- *)

let e7_pso_frontier () =
  hr "E7 (Ineq. 3): PSO fence/RMR frontier vs the TSO point";
  List.iter
    (fun n_log2 ->
      Printf.printf "\nn = 2^%g:\n%8s %16s\n" n_log2 "fences" "min RMRs";
      List.iter
        (fun (row : Bounds.Pso.frontier_row) ->
          Printf.printf "%8.0f %16.1f\n" row.Bounds.Pso.fences
            row.Bounds.Pso.rmrs_min)
        (Bounds.Pso.frontier ~n_log2 [ 1.; 2.; 4.; 8.; 16.; n_log2 ]);
      let tf, tr = Bounds.Pso.tso_point ~n_log2 in
      Printf.printf
        "TSO point (fences=%g, RMRs=%g) feasible under PSO bound: %b\n" tf tr
        (Bounds.Pso.feasible ~n_log2 ~fences:tf ~rmrs:tr))
    [ 10.0; 20.0; 30.0 ]

(* ---------------------------------------------------------------------- *)
(* E8 — Lemma 9 reduction                                                  *)
(* ---------------------------------------------------------------------- *)

let e8_lemma9_reduction () =
  hr "E8 (Lemma 9): mutex from counter / queue / stack";
  let n = 12 in
  Printf.printf "%-26s %10s %10s %10s %6s %6s\n" "object" "rmr(avg)"
    "rmr(max)" "fence(max)" "excl" "CSs";
  List.iter
    (fun (fam : Locks.Lock_intf.family) ->
      let lock = fam.Locks.Lock_intf.instantiate ~n in
      let _, stats =
        Locks.Harness.run_contended ~model:Config.Cc_wb lock ~n ~k:n
      in
      Printf.printf "%-26s %10.2f %10d %10d %6b %6d\n"
        fam.Locks.Lock_intf.family_name
        stats.Locks.Harness.avg_rmrs_per_passage
        stats.Locks.Harness.max_rmrs_per_passage
        stats.Locks.Harness.max_fences_per_passage
        stats.Locks.Harness.exclusion_ok stats.Locks.Harness.cs_entries)
    Objects.Mutex_from_object.families;
  (* converse direction: objects FROM mutex (monitors) *)
  Printf.printf
    "\nConverse direction (objects from mutex, via a ticket monitor):\n";
  Printf.printf "%-26s %10s %10s\n" "object" "rmr(max)" "fence(max)";
  let run_locked name mk_op =
    let layout = Tsim.Layout.create () in
    let op = mk_op layout in
    let nn = 8 in
    let cfg =
      Tsim.Config.make ~model:Tsim.Config.Cc_wb ~check_exclusion:false ~n:nn
        ~layout
        ~entry:(fun p -> Tsim.Prog.bind (op p) (fun _ -> Tsim.Prog.unit))
        ~exit_section:(fun _ -> Tsim.Prog.unit)
        ()
    in
    let machine = Tsim.Machine.create cfg in
    ignore (Tsim.Sched.round_robin machine);
    let max_r = ref 0 and max_f = ref 0 in
    for p = 0 to nn - 1 do
      max_r := max !max_r (Tsim.Machine.rmrs machine p);
      max_f := max !max_f (Tsim.Machine.fences_completed machine p)
    done;
    Printf.printf "%-26s %10d %10d\n" name !max_r !max_f
  in
  run_locked "locked-counter" (fun layout ->
      let c = Objects.Monitor.locked_counter layout "lc" in
      fun _ -> Objects.Monitor.locked_fetch_inc c);
  run_locked "locked-stack push" (fun layout ->
      let st = Objects.Monitor.locked_stack layout "ls" ~capacity:16 in
      fun p -> Objects.Monitor.locked_push st p);
  run_locked "locked-queue enq" (fun layout ->
      let q = Objects.Monitor.locked_queue layout "lq" ~capacity:16 in
      fun p -> Objects.Monitor.locked_enqueue q p);
  Printf.printf
    "\nEach passage = one object operation + O(1) extra steps, so the\n\
     fence lower bound for adaptive locks transfers to adaptive counters,\n\
     stacks and queues (Corollary 1); conversely each object op above is\n\
     one lock passage + O(1) sequential steps.\n"

(* ---------------------------------------------------------------------- *)
(* E9 — invariant audit (Lemmas of Section 4, dynamically checked)         *)
(* ---------------------------------------------------------------------- *)

let e9_lemma_invariant_audit () =
  hr "E9: IN-set invariant audit across construction runs";
  Printf.printf
    "At every step boundary: IN0-IN2, IN4, IN5 of Act(H_i) and uniform\n\
     fence/critical counts (IN3 is not checked per step); every erasure is\n\
     replayed.\n\n";
  let targets =
    [
      (Locks.Adaptive_list.family, 12);
      (Locks.Bakery.family, 10);
      (Locks.Tournament.family, 10);
      (Locks.Fastpath.family, 10);
      (Locks.Ticket.family, 10);
      (Locks.Adaptive_list.family, 48);
      (Locks.Cascade.family, 128);
    ]
  in
  Printf.printf "%-15s %6s %8s %10s %9s %12s\n" "target" "n" "steps"
    "violations" "run (s)" "outcome";
  List.iter
    (fun ((fam : Locks.Lock_intf.family), n) ->
      let lock = fam.Locks.Lock_intf.instantiate ~n in
      let c = Adversary.Construction.create ~audit:true lock ~n in
      let t0 = Unix.gettimeofday () in
      let report = Adversary.Construction.run ~min_act:1 c in
      let secs = Unix.gettimeofday () -. t0 in
      let fails = Adversary.Construction.audit_failures c in
      Printf.printf "%-15s %6d %8d %10d %9.3f %12s\n"
        fam.Locks.Lock_intf.family_name n
        (List.length report.Adversary.Report.steps)
        (List.length fails) secs
        (Adversary.Report.outcome_name report.Adversary.Report.outcome);
      List.iter (fun f -> Printf.printf "    !! %s\n" f) fails)
    targets;
  (* erasure determinism spot-check (Lemma 4) *)
  let lock = Locks.Adaptive_list.family.Locks.Lock_intf.instantiate ~n:10 in
  let c = Adversary.Construction.create lock ~n:10 in
  ignore (Adversary.Construction.run ~min_act:3 c);
  let m = Adversary.Construction.machine c in
  let act = Adversary.Construction.active c in
  let tr = Execution.Trace.of_machine m in
  let ok =
    Pidset.for_all
      (fun p ->
        Execution.Erasure.erase_ok
          (Execution.Erasure.erase (Machine.config m) tr (Pidset.singleton p)))
      act
  in
  Printf.printf
    "\nLemma 4 spot-check: erasing each surviving active process replays \
     deterministically: %b\n"
    ok

(* ---------------------------------------------------------------------- *)
(* E10 — ablation: the construction without Turán independent sets         *)
(* ---------------------------------------------------------------------- *)

let e10_ablation_no_independent_sets () =
  hr "E10 (ablation): which parts of the construction are load-bearing?";
  Printf.printf
    "Two design choices the proof depends on are switched off in turn:\n\
     (a) the Turán independent sets of the read/write phases, and\n\
     (b) the regularization phase (finishing the visible max-ID process\n\
         after a high-contention write / RMW round — the paper's Lemma 8\n\
         and the 'essential for obtaining our tradeoff' scheduling rule).\n\
     Breakage is detected by the per-step IN-set audit and by divergent\n\
     erasure replays.\n\n";
  Printf.printf "%-15s %-22s %10s %30s\n" "target" "variant" "violations"
    "outcome";
  let run_variant fam n label ~no_is ~no_reg =
    let lock = fam.Locks.Lock_intf.instantiate ~n in
    let c =
      Adversary.Construction.create ~audit:true ~no_independent_sets:no_is
        ~no_regularization:no_reg lock ~n
    in
    let report = Adversary.Construction.run ~min_act:1 c in
    Printf.printf "%-15s %-22s %10d %30s\n"
      fam.Locks.Lock_intf.family_name label
      (List.length (Adversary.Construction.audit_failures c))
      (Adversary.Report.outcome_name report.Adversary.Report.outcome)
  in
  List.iter
    (fun ((fam : Locks.Lock_intf.family), n) ->
      run_variant fam n "full" ~no_is:false ~no_reg:false;
      run_variant fam n "no-independent-sets" ~no_is:true ~no_reg:false;
      run_variant fam n "no-regularization" ~no_is:false ~no_reg:true)
    [ (Locks.Adaptive_list.family, 10); (Locks.Tournament.family, 10) ];
  Printf.printf
    "\nWithout regularization, every survivor is aware of the still-active\n\
     visible process (IN1 violations), and erasing it diverges — exactly\n\
     the failure Lemma 8 exists to prevent.\n"

(* ---------------------------------------------------------------------- *)
(* E11 — object linearizability sweep                                      *)
(* ---------------------------------------------------------------------- *)

let e11_linearizability_sweep () =
  hr "E11: linearizability of the Section 5 objects (Wing & Gong)";
  let sweep name mk =
    let ok = ref 0 and total = 20 in
    for seed = 1 to total do
      let layout = Tsim.Layout.create () in
      let gen, spec = mk layout in
      let _, v =
        Lincheck.Workload.run_and_check
          ~schedule:(Lincheck.Workload.Rand (seed * 31)) ~layout ~n:4
          ~ops_per_proc:3 gen spec
      in
      if v.Lincheck.Checker.linearizable then incr ok
    done;
    Printf.printf "%-14s %d/%d random schedules linearizable\n" name !ok total
  in
  sweep "counter-faa" (fun layout ->
      let c = Objects.Counter.make_faa layout in
      ( (fun p _ -> Lincheck.Workload.op "faa" (c.Objects.Counter.fetch_inc p)),
        Lincheck.Spec.counter ));
  sweep "counter-cas" (fun layout ->
      let c = Objects.Counter.make_cas layout in
      ( (fun p _ -> Lincheck.Workload.op "faa" (c.Objects.Counter.fetch_inc p)),
        Lincheck.Spec.counter ));
  sweep "stack" (fun layout ->
      let st = Objects.Ostack.make layout ~n:4 ~ops_per_proc:4 in
      ( (fun p i ->
          if p < 2 then
            let v = (p * 100) + i in
            Lincheck.Workload.op ~arg:v "push"
              (Tsim.Prog.bind (Objects.Ostack.push st p v) (fun () ->
                   Tsim.Prog.return 0))
          else Lincheck.Workload.op "pop" (Objects.Ostack.pop st p)),
        Lincheck.Spec.stack ));
  sweep "queue" (fun layout ->
      let q = Objects.Oqueue.make layout ~capacity:32 in
      ( (fun p i ->
          if p < 3 then
            let v = (p * 100) + i in
            Lincheck.Workload.op ~arg:v "enq"
              (Tsim.Prog.bind (Objects.Oqueue.enqueue q v) (fun () ->
                   Tsim.Prog.return 0))
          else Lincheck.Workload.op "deq" (Objects.Oqueue.dequeue_nonempty q)),
        Lincheck.Spec.queue ));
  Printf.printf
    "\n(a non-atomic read;write counter fails the same sweep — see the\n\
     lincheck test suite and examples/lincheck_demo.ml)\n"

(* ---------------------------------------------------------------------- *)
(* E12 — the Laws-of-Order premise: fences are unavoidable                 *)
(* ---------------------------------------------------------------------- *)

let e12_fences_unavoidable () =
  hr "E12: fences are unavoidable for read/write mutex on TSO ([5])";
  Printf.printf
    "The paper builds on Attiya et al.'s Laws of Order: every read/write\n\
     mutex must fence. The bounded model checker explores every schedule\n\
     of 2-process Peterson with and without its fence:\n\n";
  let open Tsim in
  let open Tsim.Prog in
  let peterson ~fenced =
    let layout = Layout.create () in
    let flag = Layout.array layout ~init:0 "flag" 2 in
    let turn = Layout.var layout ~init:0 "turn" in
    Config.make ~model:Config.Cc_wb ~check_exclusion:true ~n:2 ~layout
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
  in
  List.iter
    (fun fenced ->
      let r = Mcheck.Explore.explore ~max_nodes:2_000_000 (peterson ~fenced) in
      Printf.printf "Peterson %-9s: %7d states, %s\n"
        (if fenced then "fenced" else "unfenced")
        r.Mcheck.Explore.nodes
        (if r.Mcheck.Explore.verified then "exclusion VERIFIED over all schedules"
         else
           match r.Mcheck.Explore.violations with
           | { kind = `Exclusion (a, b); schedule } :: _ ->
               Printf.sprintf
                 "exclusion VIOLATED (p%d/p%d) after %d scheduler moves" a b
                 (List.length schedule)
           | _ -> "no exclusion violation (bounded)"))
    [ true; false ];
  (* show the violating schedule *)
  let r = Mcheck.Explore.explore ~max_nodes:2_000_000 (peterson ~fenced:false) in
  (match r.Mcheck.Explore.violations with
  | { kind = `Exclusion _; schedule } :: _ ->
      Printf.printf "\nviolating schedule: %s\n"
        (String.concat "; "
           (List.map Mcheck.Explore.move_to_string schedule))
  | _ -> ());
  Printf.printf
    "\nThe anomaly is the store-buffering reordering the paper's Section 2\n\
     model permits: both entries read the rival's flag before either\n\
     flag-write commits.\n"

(* ---------------------------------------------------------------------- *)
(* E13 — TSO/PSO separation on real algorithms                             *)
(* ---------------------------------------------------------------------- *)

let e13_tso_pso_separation () =
  hr "E13: TSO/PSO separation on real algorithms (Discussion section)";
  Printf.printf
    "Peterson-style locks rely on TSO's FIFO commit order (flag visible no\n\
     later than turn). A PSO adversary commits out of order and breaks\n\
     them; restoring correctness costs one extra fence per publish pair —\n\
     the concrete face of the PSO fence tax (Inequality 3).\n\n";
  let breaks fam =
    let seeds = List.init 400 (fun i -> (i * 163) + 7) in
    List.exists
      (fun seed ->
        let lock = fam.Locks.Lock_intf.instantiate ~n:4 in
        let cfg =
          Locks.Harness.config_of_lock ~model:Tsim.Config.Cc_wb
            ~ordering:Tsim.Config.Pso lock ~n:4
        in
        let m = Tsim.Machine.create cfg in
        match Tsim.Sched.random ~seed ~commit_bias:0.4 m with
        | _ -> false
        | exception Tsim.Machine.Exclusion_violation _ -> true)
      seeds
  in
  let fences fam =
    let lock = fam.Locks.Lock_intf.instantiate ~n:8 in
    let _, stats =
      Locks.Harness.run_contended ~model:Tsim.Config.Cc_wb lock ~n:8 ~k:8
    in
    stats.Locks.Harness.max_fences_per_passage
  in
  Printf.printf "%-18s %22s %16s\n" "lock" "PSO exclusion broken?"
    "fences/passage";
  List.iter
    (fun (fam : Locks.Lock_intf.family) ->
      Printf.printf "%-18s %22b %16d\n" fam.Locks.Lock_intf.family_name
        (breaks fam) (fences fam))
    [
      Locks.Tournament.family;
      Locks.Tournament.family_pso;
      Locks.Bakery.family;
      Locks.Bakery.family_pso;
      Locks.Ticket.family;
    ];
  Printf.printf
    "\nThe pso-safe tournament pays one extra fence per tree level — under\n\
     PSO, read/write algorithms cannot keep both fence and RMR counts low\n\
     (Attiya-Hendler-Woelfel's bound, experiment E7).\n"

let all =
  [
    ("e1", "Figure 1 construction trace", e1_fig1_construction_trace);
    ("e2", "Theorem 1/3 Act trajectory + witness", e2_thm1_act_trajectory);
    ("e3", "Corollary 1 forced fences", e3_cor1_forced_fences);
    ("e4", "Corollary 2 linear tradeoff", e4_cor2_linear_tradeoff);
    ("e5", "Corollary 3 exponential tradeoff", e5_cor3_exp_tradeoff);
    ("e6", "Lock zoo evaluation", e6_eval_lock_zoo);
    ("e7", "PSO frontier", e7_pso_frontier);
    ("e8", "Lemma 9 reduction", e8_lemma9_reduction);
    ("e9", "Invariant audit", e9_lemma_invariant_audit);
    ("e10", "Ablation: no independent sets", e10_ablation_no_independent_sets);
    ("e11", "Object linearizability sweep", e11_linearizability_sweep);
    ("e12", "Laws of Order: fences unavoidable", e12_fences_unavoidable);
    ("e13", "TSO/PSO separation", e13_tso_pso_separation);
  ]
