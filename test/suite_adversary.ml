(* The lower-bound construction: soundness (IN-set invariants hold at every
   step boundary, erasures replay cleanly, exclusion is never violated) and
   effectiveness (forced fences grow linearly with contention for the
   adaptive target; non-adaptive targets saturate at their constant). *)

open Tsim.Ids
open Locks

let run_construction ?(audit = false) ?(min_act = 1) fam ~n =
  let lock = fam.Lock_intf.instantiate ~n in
  let c = Adversary.Construction.create ~audit lock ~n in
  let report = Adversary.Construction.run ~min_act c in
  (c, report)

(* Theorem 1 realized: against the linear-adaptive announce-list lock the
   adversary forces ~k fences at total contention k. *)
let test_adaptive_forced_fences () =
  List.iter
    (fun n ->
      let c, report = run_construction Adaptive_list.family ~n in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d no stuck" n)
        true
        (match report.Adversary.Report.outcome with
        | Adversary.Report.Stuck _ -> false
        | _ -> true);
      match Adversary.Witness.extract c with
      | None -> Alcotest.fail "expected a surviving witness"
      | Some w ->
          Alcotest.(check bool)
            (Printf.sprintf "witness valid (n=%d)" n)
            true w.Adversary.Witness.valid;
          Alcotest.(check int)
            (Printf.sprintf "contention = n (n=%d)" n)
            n w.Adversary.Witness.total_contention;
          (* linear in contention: at least contention - 1 fences *)
          Alcotest.(check bool)
            (Printf.sprintf "fences >= n-1 (n=%d, got %d)" n
               w.Adversary.Witness.fences_in_passage)
            true
            (w.Adversary.Witness.fences_in_passage >= n - 1))
    [ 4; 8; 16; 32 ]

(* The read/write adaptive target (splitter fast path) is forced through
   the paper's full three-phase pipeline: forced fences grow linearly with
   contention (about two fences — one per splitter publish — per step). *)
let test_adaptive_tree_forced_fences () =
  List.iter
    (fun n ->
      let _, report = run_construction Adaptive_tree.family ~n in
      (match report.Adversary.Report.outcome with
      | Adversary.Report.Stuck m -> Alcotest.fail ("stuck: " ^ m)
      | _ -> ());
      let contention = report.Adversary.Report.total_contention in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: fences %d >= contention %d" n
           report.Adversary.Report.best_fences contention)
        true
        (report.Adversary.Report.best_fences >= contention
        && contention >= 3);
      (* the pipeline includes genuine read and write rounds *)
      let kinds =
        List.concat_map
          (fun (s : Adversary.Report.step) ->
            List.map
              (fun (r : Adversary.Report.round) -> r.Adversary.Report.kind)
              s.Adversary.Report.rounds)
          report.Adversary.Report.steps
      in
      Alcotest.(check bool) "has read rounds" true
        (List.mem Adversary.Report.Read_round kinds);
      Alcotest.(check bool) "has write rounds" true
        (List.exists
           (function
             | Adversary.Report.Write_low_round
             | Adversary.Report.Write_high_round _ ->
                 true
             | _ -> false)
           kinds))
    [ 12; 24 ]

(* The ticket lock (one FAA, O(1) fences, non-adaptive) cannot be forced:
   the adversary's best is O(1) fences for any N. *)
let test_ticket_not_forceable () =
  List.iter
    (fun n ->
      let _, report = run_construction Ticket.family ~n in
      Alcotest.(check bool)
        (Printf.sprintf "ticket fences O(1) at n=%d (got %d)" n
           report.Adversary.Report.best_fences)
        true
        (report.Adversary.Report.best_fences <= 3))
    [ 8; 32; 64 ]

(* Bakery: constant fences regardless of N (non-adaptive read/write). *)
let test_bakery_not_forceable () =
  List.iter
    (fun n ->
      let _, report = run_construction Bakery.family ~n in
      Alcotest.(check bool)
        (Printf.sprintf "bakery fences O(1) at n=%d (got %d)" n
           report.Adversary.Report.best_fences)
        true
        (report.Adversary.Report.best_fences <= 4))
    [ 8; 32 ]

(* Tournament: forced fences bounded by its O(log n) per-passage fences. *)
let test_tournament_log_bounded () =
  let _, r16 = run_construction Tournament.family ~n:16 in
  let _, r64 = run_construction Tournament.family ~n:64 in
  Alcotest.(check bool)
    (Printf.sprintf "log-ish growth (%d, %d)" r16.Adversary.Report.best_fences
       r64.Adversary.Report.best_fences)
    true
    (r16.Adversary.Report.best_fences <= 16
    && r64.Adversary.Report.best_fences <= 24
    && r64.Adversary.Report.best_fences < 64)

(* Soundness: with auditing on, the IN-set properties (IN1..IN5, IN3 via
   singleton+full-set erasure checks disabled for speed here but covered
   below) hold at every step boundary, for every target. *)
let audit_case fam n =
  Alcotest.test_case
    (Printf.sprintf "%s: IN-set audit (n=%d)" fam.Lock_intf.family_name n)
    `Quick
    (fun () ->
      let c, report = run_construction ~audit:true fam ~n in
      (match report.Adversary.Report.outcome with
      | Adversary.Report.Stuck m -> Alcotest.fail ("stuck: " ^ m)
      | _ -> ());
      Alcotest.(check (list string))
        "no audit failures" []
        (Adversary.Construction.audit_failures c))

(* The per-step audit's output, pinned: for the no-regularization ablation
   (E10) the number of entries, the MD5 of the entries joined with "\n" and
   the first entry; for the full run, the empty list. The values are those
   of a from-scratch [Inset.check ~in3:false] on each boundary's trace. The
   ablated adaptive-tree, fastpath and tournament runs erase processes
   between step boundaries, so they also cover the audit restarting its
   fold on the replayed machine. *)
let pinned_audit_case fam n ~entries ~md5 ~first =
  Alcotest.test_case
    (Printf.sprintf "%s: pinned audit output (n=%d)" fam.Lock_intf.family_name
       n)
    `Quick
    (fun () ->
      let audit ~no_regularization =
        let lock = fam.Lock_intf.instantiate ~n in
        let c =
          Adversary.Construction.create ~audit:true ~no_regularization lock ~n
        in
        ignore (Adversary.Construction.run ~min_act:1 c);
        Adversary.Construction.audit_failures c
      in
      let ablated = audit ~no_regularization:true in
      Alcotest.(check int) "ablated: entries" entries (List.length ablated);
      Alcotest.(check string) "ablated: md5" md5
        (Digest.to_hex (Digest.string (String.concat "\n" ablated)));
      Alcotest.(check string) "ablated: first entry" first (List.hd ablated);
      Alcotest.(check (list string)) "full run" []
        (audit ~no_regularization:false))

(* Per-step structure: fences of the active survivors grow by one per
   induction step against the adaptive target. *)
let test_fence_growth_per_step () =
  let _, report = run_construction Adaptive_list.family ~n:10 in
  let fences =
    List.filter_map
      (fun (s : Adversary.Report.step) ->
        if s.Adversary.Report.act_size > 0 then
          Some s.Adversary.Report.max_fences
        else None)
      report.Adversary.Report.steps
  in
  let rec increasing = function
    | a :: (b :: _ as tl) -> a < b && increasing tl
    | _ -> true
  in
  Alcotest.(check bool)
    (Printf.sprintf "monotone fence growth: %s"
       (String.concat "," (List.map string_of_int fences)))
    true (increasing fences);
  (* exactly one process finishes per step (Fin(H_{i+1}) grows by one) *)
  List.iteri
    (fun i (s : Adversary.Report.step) ->
      Alcotest.(check int)
        (Printf.sprintf "fin after step %d" i)
        (i + 1) s.Adversary.Report.fin_size)
    report.Adversary.Report.steps

(* The witness execution itself satisfies the paper's statement, and its
   trace passes the full IN-set check including IN3 (erasure-stability of
   criticality). *)
let test_witness_trace_sound () =
  let c, _ = run_construction Adaptive_list.family ~n:8 in
  match Adversary.Witness.extract c with
  | None -> Alcotest.fail "no witness"
  | Some w ->
      Alcotest.(check bool) "valid" true w.Adversary.Witness.valid;
      let tr = w.Adversary.Witness.trace in
      Alcotest.(check int) "one active process" 1
        (Pidset.cardinal (Execution.Trace.active tr));
      let act = Execution.Trace.active tr in
      let verdict = Analysis.Inset.check ~in3:true tr act in
      Alcotest.(check bool) "witness trace IN-set (incl. IN3)" true
        verdict.Analysis.Inset.ok

(* Erasing the active processes of the final execution of a construction
   run replays cleanly (Lemma 4 end-to-end). *)
let test_final_erasure_lemma4 () =
  let c, _ = run_construction ~min_act:3 Adaptive_list.family ~n:12 in
  let m = Adversary.Construction.machine c in
  let act = Adversary.Construction.active c in
  Alcotest.(check bool) "at least 3 survivors" true (Pidset.cardinal act >= 3);
  let tr = Execution.Trace.of_machine m in
  (* erase each single active, then all active: all replay cleanly *)
  Pidset.iter
    (fun p ->
      let r = Execution.Erasure.erase (Tsim.Machine.config m) tr (Pidset.singleton p) in
      Alcotest.(check bool)
        (Printf.sprintf "erase p%d ok" p)
        true
        (Execution.Erasure.erase_ok r))
    act;
  let r = Execution.Erasure.erase (Tsim.Machine.config m) tr act in
  Alcotest.(check bool) "erase all actives ok" true (Execution.Erasure.erase_ok r)

(* Ablation (E10): disabling the regularization phase must be *detected* —
   either the step audit reports IN1/IN5 violations or an erasure replay
   diverges. The full construction reports neither (tested above), so this
   pins that the checks are sensitive, not vacuous. *)
let test_ablation_detected () =
  let n = 10 in
  let lock = Adaptive_list.family.Lock_intf.instantiate ~n in
  let c =
    Adversary.Construction.create ~audit:true ~no_regularization:true lock ~n
  in
  let report = Adversary.Construction.run ~min_act:1 c in
  let stuck =
    match report.Adversary.Report.outcome with
    | Adversary.Report.Stuck _ -> true
    | _ -> false
  in
  let violations = Adversary.Construction.audit_failures c in
  let contains_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "breakage detected" true (stuck || violations <> []);
  Alcotest.(check bool) "IN1 violations reported" true
    (List.exists (fun s -> contains_sub s "IN1") violations || stuck)

(* Property: the construction never gets stuck and never breaks exclusion,
   across targets and sizes. *)
let prop_construction_never_stuck =
  QCheck.Test.make ~name:"construction sound across targets and sizes"
    ~count:30
    QCheck.(pair (int_range 2 20) (int_bound 4))
    (fun (n, which) ->
      let fams =
        [
          Adaptive_list.family;
          Ticket.family;
          Bakery.family;
          Tournament.family;
          Fastpath.family;
        ]
      in
      let fam = List.nth fams which in
      let _, report = run_construction fam ~n in
      match report.Adversary.Report.outcome with
      | Adversary.Report.Stuck _ -> false
      | _ -> true)

let suite =
  [
    Alcotest.test_case "adaptive target: forced fences ~ contention" `Quick
      test_adaptive_forced_fences;
    Alcotest.test_case "r/w adaptive-tree: full 3-phase pipeline" `Quick
      test_adaptive_tree_forced_fences;
    Alcotest.test_case "ticket cannot be forced" `Quick
      test_ticket_not_forceable;
    Alcotest.test_case "bakery cannot be forced" `Quick
      test_bakery_not_forceable;
    Alcotest.test_case "tournament log-bounded" `Quick
      test_tournament_log_bounded;
    audit_case Adaptive_list.family 10;
    audit_case Adaptive_tree.family 12;
    audit_case Cascade.family 12;
    audit_case Bakery.family 8;
    audit_case Tournament.family 8;
    audit_case Fastpath.family 8;
    audit_case Ticket.family 8;
    pinned_audit_case Adaptive_list.family 48 ~entries:49
      ~md5:"894d269f1f0bc8edd86251010584198c"
      ~first:
        "H_1: IN5: v96 accessed by >1 active processes but last written by \
         invisible p47";
    pinned_audit_case Cascade.family 64 ~entries:70
      ~md5:"9e31d4e626a1087dca384f30f510fa7a"
      ~first:
        "H_1: IN5: v0 accessed by >1 active processes but last written by \
         invisible p63";
    pinned_audit_case Adaptive_tree.family 32 ~entries:38
      ~md5:"9ce1ec90a8d440011d4a2e8402d1d78d"
      ~first:
        "H_1: IN5: v0 accessed by >1 active processes but last written by \
         invisible p31";
    pinned_audit_case Fastpath.family 32 ~entries:35
      ~md5:"ded7f8d77e2028f1dc5ef94c47146bcd"
      ~first:
        "H_1: IN5: v33 accessed by >1 active processes but last written by \
         invisible p31";
    pinned_audit_case Tournament.family 32 ~entries:1
      ~md5:"0103501b0ddcd5329203aab2da90c847"
      ~first:
        "H_5: IN5: v65 accessed by >1 active processes but last written by \
         invisible p16";
    Alcotest.test_case "fence growth per step" `Quick
      test_fence_growth_per_step;
    Alcotest.test_case "witness trace sound (incl. IN3)" `Quick
      test_witness_trace_sound;
    Alcotest.test_case "final erasure (Lemma 4)" `Quick
      test_final_erasure_lemma4;
    Alcotest.test_case "ablation is detected (E10)" `Quick
      test_ablation_detected;
    QCheck_alcotest.to_alcotest prop_construction_never_stuck;
  ]
