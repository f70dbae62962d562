(* TSO machine semantics: litmus tests, RMR accounting per memory model,
   criticality, awareness, fences, transitions. *)

open Tsim
open Tsim.Ids
open Prog

(* --- store-buffering litmus (the TSO signature) ----------------------- *)

(* p0: x := 1; r0 := y     p1: y := 1; r1 := x
   Under TSO both r0 and r1 may be 0 when commits are delayed. *)
let test_store_buffering () =
  let results = Array.make 2 (-1) in
  let m, v, _ =
    Tutil.machine ~n:2 ~nvars:2 (fun vars p ->
        let mine = vars.(p) and other = vars.(1 - p) in
        let* () = write mine 1 in
        let* r = read other in
        results.(p) <- r;
        unit)
  in
  ignore v;
  (* interleave without ever committing: both processes read 0 *)
  Tutil.run_entry m 0;
  Tutil.run_entry m 1;
  Alcotest.(check int) "p0 reads 0" 0 results.(0);
  Alcotest.(check int) "p1 reads 0" 0 results.(1)

(* With a fence between write and read, at least one process must see the
   other's write in any schedule where both fences complete first. *)
let test_store_buffering_fenced () =
  let results = Array.make 2 (-1) in
  let m, _, _ =
    Tutil.machine ~n:2 ~nvars:2 (fun vars p ->
        let mine = vars.(p) and other = vars.(1 - p) in
        let* () = write mine 1 in
        let* () = fence in
        let* r = read other in
        results.(p) <- r;
        unit)
  in
  (* run p0 fully, then p1: p1 must observe p0's committed write *)
  Tutil.run_entry m 0;
  Tutil.run_entry m 1;
  Alcotest.(check int) "p1 sees p0's write" 1 results.(1)

let test_forwarding_src () =
  let m, _, _ =
    Tutil.machine ~n:1 ~nvars:1 (fun vars _ ->
        let* () = write vars.(0) 7 in
        let* r = read vars.(0) in
        assert (r = 7);
        unit)
  in
  Tutil.run_entry m 0;
  let reads =
    Tutil.find_events m (fun e ->
        match e.Event.kind with Event.Read _ -> true | _ -> false)
  in
  match reads with
  | [ e ] -> (
      match e.Event.kind with
      | Event.Read { src = Event.From_buffer; value = 7; _ } -> ()
      | _ -> Alcotest.fail "expected buffer-forwarded read of 7")
  | _ -> Alcotest.fail "expected exactly one read"

(* A buffered write is invisible to other processes until committed. *)
let test_write_invisible_until_commit () =
  let seen = ref (-1) in
  let m, _, _ =
    Tutil.machine ~n:2 ~nvars:1 (fun vars p ->
        if p = 0 then write vars.(0) 5
        else
          let* r = read vars.(0) in
          seen := r;
          unit)
  in
  (* p0 issues its write (still buffered) *)
  ignore (Machine.step m 0) (* Enter *);
  ignore (Machine.step m 0) (* issue *);
  ignore (Machine.step m 1) (* Enter *);
  ignore (Machine.step m 1) (* read *);
  Alcotest.(check int) "invisible" 0 !seen;
  (* now commit and have a fresh look: use writer/mem *)
  ignore (Machine.commit m 0);
  Alcotest.(check int) "memory updated" 5 (Machine.mem_value m 0);
  Alcotest.(check (option int)) "writer set" (Some 0) (Machine.writer_of m 0)

(* Fence: step-driving a process inside a fence commits its buffer in
   order, then EndFence completes the fence. *)
let test_fence_drains_in_order () =
  let m, _, _ =
    Tutil.machine ~n:1 ~nvars:3 (fun vars _ ->
        let* () = write vars.(2) 1 in
        let* () = write vars.(0) 2 in
        let* () = write vars.(1) 3 in
        fence)
  in
  Tutil.run_entry m 0;
  let commits =
    Tutil.find_events m (fun e -> Event.is_commit e)
    |> List.map (fun e ->
           match e.Event.kind with
           | Event.Commit_write { var; _ } -> var
           | _ -> assert false)
  in
  Alcotest.(check (list int)) "commit order" [ 2; 0; 1 ] commits;
  Alcotest.(check int) "one fence completed" 1 (Machine.fences_completed m 0);
  Alcotest.(check bool) "buffer empty" true
    (Wbuf.is_empty (Machine.proc m 0).Machine.buf)

(* mode(p, E) = write while executing a fence. *)
let test_mode_during_fence () =
  let m, _, _ =
    Tutil.machine ~n:1 ~nvars:1 (fun vars _ ->
        let* () = write vars.(0) 1 in
        fence)
  in
  ignore (Machine.step m 0) (* Enter *);
  ignore (Machine.step m 0) (* issue *);
  Alcotest.(check bool) "read mode" true (Machine.mode m 0 = `Read);
  ignore (Machine.step m 0) (* BeginFence *);
  Alcotest.(check bool) "write mode" true (Machine.mode m 0 = `Write);
  ignore (Machine.step m 0) (* commit *);
  ignore (Machine.step m 0) (* EndFence *);
  Alcotest.(check bool) "read mode again" true (Machine.mode m 0 = `Read)

(* --- RMR accounting --------------------------------------------------- *)

let rmr_count m p = Machine.rmrs m p

(* DSM: local accesses free, remote reads always RMRs. *)
let test_dsm_rmrs () =
  let m, _, _ =
    Tutil.machine ~model:Config.Dsm
      ~owner:(fun i -> if i = 0 then Some 0 else None)
      ~n:2 ~nvars:2
      (fun vars p ->
        if p = 0 then
          (* reads own variable twice: no RMRs *)
          let* _ = read vars.(0) in
          let* _ = read vars.(0) in
          unit
        else
          (* remote variable: every read is an RMR in DSM *)
          let* _ = read vars.(0) in
          let* _ = read vars.(0) in
          unit)
  in
  Tutil.run_entry m 0;
  Tutil.run_entry m 1;
  Alcotest.(check int) "owner free" 0 (rmr_count m 0);
  Alcotest.(check int) "remote pays per read" 2 (rmr_count m 1)

(* CC-WB: first read misses, subsequent reads hit until invalidation. *)
let test_ccwb_read_caching () =
  let m, _, _ =
    Tutil.machine ~model:Config.Cc_wb ~n:2 ~nvars:1 (fun vars p ->
        if p = 0 then
          let* _ = read vars.(0) in
          let* _ = read vars.(0) in
          let* _ = read vars.(0) in
          unit
        else
          let* () = write vars.(0) 9 in
          fence)
  in
  (* p0: miss, hit, hit *)
  ignore (Machine.step m 0);
  ignore (Machine.step m 0);
  ignore (Machine.step m 0);
  Alcotest.(check int) "one miss" 1 (rmr_count m 0);
  ignore (Machine.step m 0);
  Alcotest.(check int) "still one" 1 (rmr_count m 0)

(* CC-WB: a committed write invalidates other copies; the next read pays. *)
let test_ccwb_invalidation () =
  let m, _, _ =
    Tutil.machine ~model:Config.Cc_wb ~n:2 ~nvars:1 (fun vars p ->
        if p = 0 then
          let* _ = read vars.(0) in
          let* _ = read vars.(0) in
          unit
        else
          let* () = write vars.(0) 9 in
          fence)
  in
  ignore (Machine.step m 0) (* enter *);
  ignore (Machine.step m 0) (* read: miss *);
  Tutil.run_entry m 1 (* write + fence commits, invalidates p0 *);
  ignore (Machine.step m 0) (* read: miss again *);
  Alcotest.(check int) "two misses" 2 (rmr_count m 0)

(* CC-WB: writer holding Exclusive pays nothing for further writes. *)
let test_ccwb_exclusive_writes () =
  let m, _, _ =
    Tutil.machine ~model:Config.Cc_wb ~n:1 ~nvars:1 (fun vars _ ->
        let* () = write vars.(0) 1 in
        let* () = fence in
        let* () = write vars.(0) 2 in
        fence)
  in
  Tutil.run_entry m 0;
  Alcotest.(check int) "only first commit pays" 1 (rmr_count m 0)

(* CC-WT: every commit is an RMR. *)
let test_ccwt_writes_always_rmr () =
  let m, _, _ =
    Tutil.machine ~model:Config.Cc_wt ~n:1 ~nvars:1 (fun vars _ ->
        let* () = write vars.(0) 1 in
        let* () = fence in
        let* () = write vars.(0) 2 in
        fence)
  in
  Tutil.run_entry m 0;
  Alcotest.(check int) "both commits pay" 2 (rmr_count m 0)

(* --- criticality (Definition 2) --------------------------------------- *)

let test_critical_reads () =
  let m, _, _ =
    Tutil.machine ~model:Config.Cc_wb ~n:1 ~nvars:2 (fun vars _ ->
        let* _ = read vars.(0) in
        let* _ = read vars.(0) in
        let* _ = read vars.(1) in
        unit)
  in
  Tutil.run_entry m 0;
  let crits =
    Tutil.find_events m (fun e -> e.Event.critical)
    |> List.map (fun e -> Option.get (Event.accessed_var e))
  in
  (* first read of each variable is critical, the repeat is not *)
  Alcotest.(check (list int)) "critical reads" [ 0; 1 ] crits

let test_critical_writes () =
  let m, _, _ =
    Tutil.machine ~model:Config.Cc_wb ~n:2 ~nvars:1 (fun vars p ->
        if p = 0 then
          let* () = write vars.(0) 1 in
          let* () = fence in
          (* second commit overwrites own value: non-critical *)
          let* () = write vars.(0) 2 in
          fence
        else
          let* () = write vars.(0) 3 in
          fence)
  in
  Tutil.run_entry m 0;
  Alcotest.(check int) "first commit critical only" 1 (Machine.criticals m 0);
  Tutil.run_entry m 1;
  (* p1 overwrites p0's value: critical *)
  Alcotest.(check int) "overwrite is critical" 1 (Machine.criticals m 1)

(* --- awareness (Definition 1) ----------------------------------------- *)

let test_awareness_direct_and_transitive () =
  let m, _, _ =
    Tutil.machine ~model:Config.Cc_wb ~n:3 ~nvars:2 (fun vars p ->
        match p with
        | 0 ->
            let* () = write vars.(0) 1 in
            fence
        | 1 ->
            (* read v0 (learn of p0), then write v1 *)
            let* _ = read vars.(0) in
            let* () = write vars.(1) 2 in
            fence
        | _ ->
            let* _ = read vars.(1) in
            unit)
  in
  Tutil.run_entry m 0;
  Tutil.run_entry m 1;
  Tutil.run_entry m 2;
  let aw2 = Machine.awareness m 2 in
  Alcotest.(check bool) "p2 aware of p1" true (Pidset.mem 1 aw2);
  Alcotest.(check bool) "p2 aware of p0 transitively" true (Pidset.mem 0 aw2)

(* Awareness snapshots are taken at *issue* time: information a writer
   gains after issuing a write does not flow through that write. *)
let test_awareness_issue_time () =
  let m, _, _ =
    Tutil.machine ~model:Config.Cc_wb ~n:3 ~nvars:3 (fun vars p ->
        match p with
        | 0 ->
            let* () = write vars.(0) 1 in
            fence
        | 1 ->
            (* issue write to v1 BEFORE learning about p0 *)
            let* () = write vars.(1) 2 in
            let* _ = read vars.(0) in
            (* p1 is now aware of p0, but the buffered write predates it *)
            fence
        | _ ->
            let* _ = read vars.(1) in
            unit)
  in
  Tutil.run_entry m 0;
  Tutil.run_entry m 1;
  Tutil.run_entry m 2;
  let aw2 = Machine.awareness m 2 in
  Alcotest.(check bool) "p2 aware of p1" true (Pidset.mem 1 aw2);
  Alcotest.(check bool) "p2 NOT aware of p0" false (Pidset.mem 0 aw2)

(* --- RMW semantics ----------------------------------------------------- *)

let test_cas_success_failure () =
  let got = ref [] in
  let m, _, _ =
    Tutil.machine ~model:Config.Cc_wb ~n:2 ~nvars:1 (fun vars _ ->
        let* ok = cas vars.(0) ~expected:0 ~desired:1 in
        got := ok :: !got;
        unit)
  in
  Tutil.run_entry m 0;
  Tutil.run_entry m 1;
  Alcotest.(check (list bool)) "first wins" [ false; true ] !got;
  Alcotest.(check int) "value" 1 (Machine.mem_value m 0)

let test_rmw_drains_buffer () =
  let m, _, _ =
    Tutil.machine ~model:Config.Cc_wb ~n:1 ~nvars:2 (fun vars _ ->
        let* () = write vars.(1) 5 in
        let* _ = faa vars.(0) 1 in
        unit)
  in
  Tutil.run_entry m 0;
  (* the FAA forced the pending write to commit, and counted one fence *)
  Alcotest.(check int) "buffered write committed" 5 (Machine.mem_value m 1);
  Alcotest.(check int) "one implicit fence" 1 (Machine.fences_completed m 0);
  Alcotest.(check int) "faa applied" 1 (Machine.mem_value m 0)

let test_faa_returns_previous () =
  let seen = ref [] in
  let m, _, _ =
    Tutil.machine ~model:Config.Cc_wb ~n:3 ~nvars:1 (fun vars _ ->
        let* x = faa vars.(0) 1 in
        seen := x :: !seen;
        unit)
  in
  Tutil.run_entry m 0;
  Tutil.run_entry m 1;
  Tutil.run_entry m 2;
  Alcotest.(check (list int)) "tickets" [ 2; 1; 0 ] !seen

let test_swap () =
  let m, _, _ =
    Tutil.machine ~model:Config.Cc_wb ~n:1 ~nvars:1 (fun vars _ ->
        let* old = swap vars.(0) 42 in
        assert (old = 0);
        unit)
  in
  Tutil.run_entry m 0;
  Alcotest.(check int) "stored" 42 (Machine.mem_value m 0)

(* --- transitions and passages ------------------------------------------ *)

let test_transitions_and_passage_log () =
  let layout = Layout.create () in
  let v = Layout.var layout "x" in
  let cfg =
    Config.make ~model:Config.Cc_wb ~max_passages:2 ~check_exclusion:false
      ~n:1 ~layout
      ~entry:(fun _ ->
        let* () = write v 1 in
        fence)
      ~exit_section:(fun _ -> Prog.unit)
      ()
  in
  let m = Machine.create cfg in
  assert (Machine.run_until_passages m 0 ~target:2);
  Alcotest.(check int) "two passages" 2 (Machine.passages m 0);
  Alcotest.(check int) "two log entries" 2
    (Vec.length (Machine.passage_log m 0));
  Alcotest.(check bool) "finished" true (Machine.pending m 0 = Machine.P_done);
  let enters = Tutil.count_events m (fun e -> e.Event.kind = Event.Enter) in
  let css = Tutil.count_events m (fun e -> e.Event.kind = Event.Cs) in
  let exits = Tutil.count_events m (fun e -> e.Event.kind = Event.Exit) in
  Alcotest.(check (list int)) "transition counts" [ 2; 2; 2 ]
    [ enters; css; exits ]

(* Criticality is relative to the whole execution, not the passage: the
   first remote read of a variable in a SECOND passage is non-critical if
   the first passage already read it (Definition 2 counts per execution). *)
let test_criticality_across_passages () =
  let layout = Layout.create () in
  let v = Layout.var layout "x" in
  let cfg =
    Config.make ~model:Config.Cc_wb ~max_passages:2 ~check_exclusion:false
      ~n:1 ~layout
      ~entry:(fun _ ->
        let* _ = read v in
        unit)
      ~exit_section:(fun _ -> Prog.unit)
      ()
  in
  let m = Machine.create cfg in
  assert (Machine.run_until_passages m 0 ~target:2);
  Alcotest.(check int) "only the first read is critical" 1
    (Machine.criticals m 0);
  let log = Machine.passage_log m 0 in
  Alcotest.(check int) "passage 1 critical" 1 (Vec.get log 0).Machine.p_criticals;
  Alcotest.(check int) "passage 2 non-critical" 0
    (Vec.get log 1).Machine.p_criticals

(* run_until_special stops exactly at special events *)
let test_run_until_special () =
  let m, _, _ =
    Tutil.machine ~model:Config.Cc_wb ~n:1 ~nvars:2 (fun vars _ ->
        let* () = write vars.(0) 1 in
        (* issue: not special *)
        let* _ = read vars.(0) in
        (* buffer-forwarded: not special *)
        let* _ = read vars.(1) in
        (* first remote read: special *)
        fence)
  in
  ignore (Machine.step m 0) (* Enter, transition, special — get past it *);
  let steps, reason = Machine.run_until_special m 0 in
  Alcotest.(check int) "two non-special events" 2 steps;
  Alcotest.(check bool) "stopped at special" true
    (reason = Machine.At_special);
  Alcotest.(check bool) "pending is the critical read" true
    (Machine.pending m 0 = Machine.P_read 1)

(* The accounting tables are paged: a clone must copy the pages its
   source wrote and share no page it allocates later. x sits in the page
   the source wrote (p0 committed it and holds its line Exclusive), y in
   a page it never wrote. The clone's p1 reads and commits both; the
   source's writers, access sets and the RMR decision of p0's next read
   of x (a CC-WB hit) must not move. *)
let test_clone_shares_no_accounting_page () =
  let m, vars, _ =
    Tutil.machine ~model:Config.Cc_wb ~n:2 ~nvars:600 (fun vars p ->
        if p = 0 then
          let* () = write vars.(5) 1 in
          let* () = fence in
          let* _ = read vars.(5) in
          unit
        else
          let* _ = read vars.(5) in
          let* _ = read vars.(520) in
          let* () = write vars.(5) 2 in
          let* () = write vars.(520) 3 in
          fence)
  in
  let x = vars.(5) and y = vars.(520) in
  while Machine.pending m 0 <> Machine.P_read x do
    ignore (Machine.step m 0)
  done;
  let before = Machine.clone m and c = Machine.clone m in
  Tutil.run_entry c 1;
  Alcotest.(check (option int)) "clone wrote x" (Some 1)
    (Machine.writer_of c x);
  Alcotest.(check (option int)) "clone wrote y" (Some 1)
    (Machine.writer_of c y);
  Alcotest.(check bool) "source unchanged" true (Machine.equal m before);
  Alcotest.(check (option int)) "writer of x" (Some 0) (Machine.writer_of m x);
  Alcotest.(check (option int)) "writer of y" None (Machine.writer_of m y);
  Alcotest.(check bool) "accessed x" true
    (Pidset.equal (Pidset.singleton 0) (Machine.accessed_set m x));
  Alcotest.(check bool) "accessed y" true
    (Pidset.is_empty (Machine.accessed_set m y));
  let e = Machine.step m 0 in
  Alcotest.(check bool) "p0's read of x still hits" false e.Event.rmr

let suite =
  [
    Alcotest.test_case "store buffering litmus" `Quick test_store_buffering;
    Alcotest.test_case "fenced store buffering" `Quick
      test_store_buffering_fenced;
    Alcotest.test_case "store-to-load forwarding" `Quick test_forwarding_src;
    Alcotest.test_case "writes invisible until commit" `Quick
      test_write_invisible_until_commit;
    Alcotest.test_case "fence drains in order" `Quick
      test_fence_drains_in_order;
    Alcotest.test_case "mode during fence" `Quick test_mode_during_fence;
    Alcotest.test_case "DSM RMR accounting" `Quick test_dsm_rmrs;
    Alcotest.test_case "CC-WB read caching" `Quick test_ccwb_read_caching;
    Alcotest.test_case "CC-WB invalidation" `Quick test_ccwb_invalidation;
    Alcotest.test_case "CC-WB exclusive writes" `Quick
      test_ccwb_exclusive_writes;
    Alcotest.test_case "CC-WT writes always RMR" `Quick
      test_ccwt_writes_always_rmr;
    Alcotest.test_case "critical reads" `Quick test_critical_reads;
    Alcotest.test_case "critical writes" `Quick test_critical_writes;
    Alcotest.test_case "awareness direct+transitive" `Quick
      test_awareness_direct_and_transitive;
    Alcotest.test_case "awareness is issue-time" `Quick
      test_awareness_issue_time;
    Alcotest.test_case "cas success/failure" `Quick test_cas_success_failure;
    Alcotest.test_case "rmw drains buffer" `Quick test_rmw_drains_buffer;
    Alcotest.test_case "faa returns previous" `Quick test_faa_returns_previous;
    Alcotest.test_case "swap" `Quick test_swap;
    Alcotest.test_case "transitions and passage log" `Quick
      test_transitions_and_passage_log;
    Alcotest.test_case "criticality across passages" `Quick
      test_criticality_across_passages;
    Alcotest.test_case "run_until_special" `Quick test_run_until_special;
    Alcotest.test_case "clone shares no accounting page" `Quick
      test_clone_shares_no_accounting_page;
  ]
