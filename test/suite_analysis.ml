(* Flow reconstruction, IN-set predicates and ordered-execution checks. *)

open Tsim
open Tsim.Ids
open Execution
open Prog

(* Scenario machine: n processes, each writes its own announce cell then
   optionally reads somebody else's. *)
let scenario ~n ~reads entry_extra =
  let layout = Layout.create () in
  let cells = Layout.array layout ~owner_fn:(fun i -> Some i) "cell" n in
  let cfg =
    Config.make ~model:Config.Dsm ~check_exclusion:false ~n ~layout
      ~entry:(fun p ->
        let* () = write cells.(p) (p + 1) in
        let* () = fence in
        let* () =
          match List.assoc_opt p reads with
          | Some q ->
              let* _ = read cells.(q) in
              unit
          | None -> unit
        in
        entry_extra cells p)
      ~exit_section:(fun _ -> Prog.unit)
      ()
  in
  (cfg, Machine.create cfg, cells)

let test_flow_matches_machine () =
  let _, m, _ = scenario ~n:4 ~reads:[ (1, 0); (3, 2) ] (fun _ _ -> Prog.unit) in
  for p = 0 to 3 do
    Tutil.run_entry m p
  done;
  let t = Trace.of_machine m in
  let s = Analysis.Flow.analyze t in
  (* recomputed criticality agrees with the machine's online flags *)
  Alcotest.(check (list int)) "criticality agrees" []
    (Analysis.Flow.criticality_disagreements t s);
  (* awareness agrees *)
  for p = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "awareness of p%d agrees" p)
      true
      (Pidset.equal
         (Pidset.add p (Analysis.Flow.get_aw s p))
         (Machine.awareness m p))
  done;
  Alcotest.(check bool) "p1 aware of p0" true
    (Pidset.mem 0 (Analysis.Flow.get_aw s 1));
  Alcotest.(check bool) "p1 not aware of p2" false
    (Pidset.mem 2 (Analysis.Flow.get_aw s 1))

let test_inset_accepts_independent () =
  (* all processes write their own cell, nobody reads anybody: everyone
     active and mutually invisible -> Act(E) is an IN-set, E regular *)
  let _, m, _ = scenario ~n:4 ~reads:[] (fun _ _ -> Prog.unit) in
  for p = 0 to 3 do
    ignore (Machine.step m p) (* Enter *);
    ignore (Machine.step m p) (* issue *)
  done;
  let t = Trace.of_machine m in
  let v = Analysis.Inset.check_regular t in
  Alcotest.(check bool) "regular" true v.Analysis.Inset.ok

let test_inset_rejects_awareness () =
  (* p1 reads p0's committed cell: p1 is aware of p0, so a set containing
     p0 (with p1 present) violates IN1 *)
  let _, m, _ = scenario ~n:2 ~reads:[ (1, 0) ] (fun _ _ -> Prog.unit) in
  Tutil.run_entry m 0;
  Tutil.run_entry m 1;
  let t = Trace.of_machine m in
  let v = Analysis.Inset.check t (Tutil.pidset [ 0; 1 ]) in
  Alcotest.(check bool) "IN1 violated" false v.Analysis.Inset.ok;
  Alcotest.(check bool) "names IN1" true
    (List.exists
       (fun viol -> viol.Analysis.Inset.property = "IN1")
       v.Analysis.Inset.violations)

let test_inset_in2_rejects_finished () =
  let _, m, _ = scenario ~n:2 ~reads:[] (fun _ _ -> Prog.unit) in
  assert (Machine.run_until_passages m 0 ~target:1);
  ignore (Machine.step m 1);
  ignore (Machine.step m 1);
  let t = Trace.of_machine m in
  (* p0 finished: not even in Act, flagged via IN0 *)
  let v = Analysis.Inset.check t (Tutil.pidset [ 0 ]) in
  Alcotest.(check bool) "rejected" false v.Analysis.Inset.ok

let test_inset_in4_remote_owned_by_active () =
  (* p1 reads p0's DSM-local cell while p0 is active: IN4 violation *)
  let _, m, _ = scenario ~n:2 ~reads:[ (1, 0) ] (fun _ _ -> Prog.unit) in
  ignore (Machine.step m 0) (* p0 Enter: active *);
  ignore (Machine.step m 0) (* issue *);
  Tutil.run_entry m 1;
  let t = Trace.of_machine m in
  let v = Analysis.Inset.check ~in3:false t (Tutil.pidset [ 1 ]) in
  Alcotest.(check bool) "IN4 violated" true
    (List.exists
       (fun viol -> viol.Analysis.Inset.property = "IN4")
       v.Analysis.Inset.violations)

let test_in5_violation () =
  (* two active processes access a shared variable last written by an
     invisible candidate *)
  let layout = Layout.create () in
  let v = Layout.var layout "shared" in
  let cfg =
    Config.make ~model:Config.Cc_wb ~check_exclusion:false ~n:3 ~layout
      ~entry:(fun p ->
        if p = 0 then
          let* () = write v 1 in
          fence
        else
          let* _ = read v in
          unit)
      ~exit_section:(fun _ -> Prog.unit)
      ()
  in
  let m = Machine.create cfg in
  Tutil.run_entry m 0;
  Tutil.run_entry m 1;
  Tutil.run_entry m 2;
  let t = Trace.of_machine m in
  let verdict = Analysis.Inset.check ~in3:false t (Tutil.pidset [ 0 ]) in
  Alcotest.(check bool) "IN5 violated" true
    (List.exists
       (fun viol -> viol.Analysis.Inset.property = "IN5")
       verdict.Analysis.Inset.violations)

let test_in3_detects_writer_chain () =
  (* p0 commits to v, then invisible p1 commits to v, then p0 commits
     again: in E p0's second commit is critical (writer = p1); erasing p1
     makes it non-critical. *)
  let layout = Layout.create () in
  let v = Layout.var layout "shared" in
  let cfg =
    Config.make ~model:Config.Cc_wb ~check_exclusion:false ~n:2 ~layout
      ~entry:(fun p ->
        if p = 0 then
          let* () = write v 1 in
          let* () = fence in
          let* () = write v 2 in
          fence
        else
          let* () = write v 9 in
          fence)
      ~exit_section:(fun _ -> Prog.unit)
      ()
  in
  let m = Machine.create cfg in
  (* interleave: p0 first commit, p1 commit, p0 second commit *)
  ignore (Machine.step m 0) (* Enter *);
  ignore (Machine.step m 0) (* issue v:=1 *);
  ignore (Machine.step m 0) (* BeginFence *);
  ignore (Machine.step m 0) (* commit *);
  ignore (Machine.step m 0) (* EndFence *);
  ignore (Machine.step m 1);
  ignore (Machine.step m 1);
  ignore (Machine.step m 1);
  ignore (Machine.step m 1);
  ignore (Machine.step m 1) (* p1 committed 9 *);
  Tutil.run_entry m 0 (* p0 commits 2, critical *);
  let t = Trace.of_machine m in
  let s = Analysis.Flow.analyze t in
  let viols = Analysis.Inset.check_in3_subset t s (Pidset.singleton 1) in
  Alcotest.(check bool) "IN3 violation found" true (viols <> [])

let test_ordered_clauses () =
  (* Build a trace where v0 satisfies (a), v1 satisfies (b). *)
  let layout = Layout.create () in
  let v0 = Layout.var layout "v0" in
  let v1 = Layout.var layout "v1" in
  let cfg =
    Config.make ~model:Config.Cc_wb ~check_exclusion:false ~n:2 ~layout
      ~entry:(fun p ->
        if p = 0 then
          let* () = write v0 1 in
          fence
        else
          let* () = write v1 2 in
          let* () = fence in
          let* _ = read v1 in
          unit)
      ~exit_section:(fun _ -> Prog.unit)
      ()
  in
  let m = Machine.create cfg in
  assert (Machine.run_until_passages m 0 ~target:1) (* p0 finished: (a) *);
  Tutil.run_entry m 1 (* p1 active, sole accessor of v1: (b) *);
  let t = Trace.of_machine m in
  let verdict = Analysis.Ordered.check t in
  Alcotest.(check bool) "ordered" true verdict.Analysis.Ordered.ok

let test_ordered_clause_c () =
  (* Both processes committed to the same variable, in ID order, inside
     still-open fences: clause (c). *)
  let layout = Layout.create () in
  let v = Layout.var layout "v" in
  let cfg =
    Config.make ~model:Config.Cc_wb ~check_exclusion:false ~n:2 ~layout
      ~entry:(fun _ ->
        let* () = write v 1 in
        let* () = fence in
        let* () = write v 2 in
        fence)
      ~exit_section:(fun _ -> Prog.unit)
      ()
  in
  let m = Machine.create cfg in
  (* both processes: Enter, issue, BeginFence *)
  for p = 0 to 1 do
    ignore (Machine.step m p);
    ignore (Machine.step m p);
    ignore (Machine.step m p)
  done;
  (* commits in ID order, fences left open *)
  ignore (Machine.step m 0);
  ignore (Machine.step m 1);
  let t = Trace.of_machine m in
  let verdict = Analysis.Ordered.check t in
  Alcotest.(check bool) "clause (c) holds" true verdict.Analysis.Ordered.ok;
  (* close p0's fence: p0 no longer "executing the fence in which it
     committed" — clause (c) must now fail *)
  ignore (Machine.step m 0) (* EndFence *);
  let t = Trace.of_machine m in
  let verdict = Analysis.Ordered.check t in
  Alcotest.(check bool) "violated after EndFence" false
    verdict.Analysis.Ordered.ok

(* Property: for machines whose processes only touch private variables,
   any subset of active processes forms an IN-set. *)
let prop_private_vars_inset =
  QCheck.Test.make ~name:"private-variable processes form IN-sets" ~count:40
    QCheck.(int_range 2 6)
    (fun n ->
      let _, m, _ = scenario ~n ~reads:[] (fun _ _ -> Prog.unit) in
      for p = 0 to n - 1 do
        ignore (Machine.step m p);
        ignore (Machine.step m p)
      done;
      let t = Trace.of_machine m in
      (Analysis.Inset.check_regular t).Analysis.Inset.ok)

(* IN4 read off the trace directly: every remote access to a variable owned
   by a process in Act(E), in trace order. *)
let in4_by_scan t =
  let act = Trace.active t and layout = Trace.layout t in
  List.filter_map
    (fun (e : Event.t) ->
      match Event.accessed_var e with
      | Some v when Layout.is_remote layout e.Event.pid v -> (
          match Layout.owner layout v with
          | Some q when Pidset.mem q act ->
              Some
                (Printf.sprintf
                   "event #%d by p%d remotely accesses %s owned by active p%d"
                   e.Event.seq e.Event.pid (Layout.name layout v) q)
          | _ -> None)
      | _ -> None)
    (Array.to_list (Trace.events t))

(* Property: the fold fed a partial execution in random chunks gives, after
   every chunk, what a from-scratch fold of that prefix gives: the same
   IN0/IN1/IN2/IN4/IN5 violations in the same order for a random candidate
   set, and the same criticality flags. Its Act(E) and IN4 also match the
   trace read directly. Processes stop mid-passage (step cap) and may start
   a second passage. Each property must fire somewhere in the run, or the
   comparison could hold vacuously. *)
let test_resumed_fold_is_batch_fold () =
  let fams =
    Locks.[ Mcs.family; Clh.family; Bakery.family; Adaptive_list.family;
            Tournament.family ]
  in
  let fired = Hashtbl.create 8 in
  let gen =
    QCheck.(
      make
        ~print:(fun (f, n, dsm, seed) ->
          Printf.sprintf "%s n=%d %s seed=%d"
            (List.nth fams f).Locks.Lock_intf.family_name n
            (if dsm then "dsm" else "cc-wb") seed)
        Gen.(
          quad (int_bound (List.length fams - 1)) (int_range 3 5) bool
            (int_bound 1_000_000)))
  in
  let prop (f, n, dsm, seed) =
    let model = if dsm then Config.Dsm else Config.Cc_wb in
    let lock = (List.nth fams f).Locks.Lock_intf.instantiate ~n in
    let max_passages = if lock.Locks.Lock_intf.one_time then 1 else 2 in
    let m =
      Machine.create
        (Locks.Harness.config_of_lock ~model ~max_passages lock ~n)
    in
    let rng = Random.State.make [| seed |] in
    ignore
      (Sched.random ~seed ~max_steps:(20 + Random.State.int rng 300) m);
    let t = Trace.of_machine m in
    let events = Trace.events t in
    let s = Analysis.Flow.create (Trace.layout t) in
    let rec chunks from =
      from >= Array.length events
      ||
      let upto =
        min (Array.length events) (from + 1 + Random.State.int rng 25)
      in
      Array.iter (Analysis.Flow.feed s) (Array.sub events from (upto - from));
      let prefix = Trace.of_events (Trace.layout t) (Array.sub events 0 upto) in
      let inv =
        Pidset.of_list
          (List.filter (fun _ -> Random.State.bool rng) (List.init n Fun.id))
      in
      let want = Analysis.Inset.check ~in3:false prefix inv in
      List.iter
        (fun v ->
          let p = v.Analysis.Inset.property in
          Hashtbl.replace fired p
            (1 + Option.value ~default:0 (Hashtbl.find_opt fired p)))
        want.Analysis.Inset.violations;
      let got = (Analysis.Inset.check_flow s inv).Analysis.Inset.violations in
      got = want.Analysis.Inset.violations
      && Pidset.equal (Analysis.Flow.active s) (Trace.active prefix)
      && List.filter_map
           (fun v ->
             if v.Analysis.Inset.property = "IN4" then
               Some v.Analysis.Inset.detail
             else None)
           got
         = in4_by_scan prefix
      && Vec.to_list s.Analysis.Flow.critical
         = Vec.to_list (Analysis.Flow.analyze prefix).Analysis.Flow.critical
      && chunks upto
    in
    chunks 0
  in
  (* a fixed seed keeps the firing counts below reproducible *)
  QCheck.Test.check_exn ~rand:(Random.State.make [| 2015 |])
    (QCheck.Test.make ~name:"resumed fold = batch fold" ~count:150 gen prop);
  List.iter
    (fun p ->
      let k = Option.value ~default:0 (Hashtbl.find_opt fired p) in
      Alcotest.(check bool) (Printf.sprintf "%s fired (%d times)" p k) true
        (k > 0))
    [ "IN0"; "IN1"; "IN2"; "IN4"; "IN5" ]

let suite =
  [
    Alcotest.test_case "flow matches machine" `Quick test_flow_matches_machine;
    Alcotest.test_case "IN-set accepts independent" `Quick
      test_inset_accepts_independent;
    Alcotest.test_case "IN1 rejects awareness" `Quick
      test_inset_rejects_awareness;
    Alcotest.test_case "IN0/IN2 rejects finished" `Quick
      test_inset_in2_rejects_finished;
    Alcotest.test_case "IN4 remote-owned-by-active" `Quick
      test_inset_in4_remote_owned_by_active;
    Alcotest.test_case "IN5 invisible last writer" `Quick test_in5_violation;
    Alcotest.test_case "IN3 writer chain" `Quick test_in3_detects_writer_chain;
    Alcotest.test_case "ordered clauses a/b" `Quick test_ordered_clauses;
    Alcotest.test_case "ordered clause c" `Quick test_ordered_clause_c;
    QCheck_alcotest.to_alcotest prop_private_vars_inset;
    Alcotest.test_case "resumed fold = batch fold on every prefix" `Quick
      test_resumed_fold_is_batch_fold;
  ]
