(* Bounded exhaustive schedule exploration: locks verified over their full
   (deduplicated) schedule space at n = 2, and the Laws-of-Order premise —
   a read/write mutex with its fence removed has a reachable exclusion
   violation under TSO, which the explorer exhibits as a schedule.

   Test configurations use small spin fuels: every spin iteration is a
   distinct continuation state, so unbounded spins blow up the DFS; small
   fuel with the explorer's [`Prune] policy keeps the space exact for
   exclusion checking (spin re-reads cannot change shared state). *)

open Tsim
open Tsim.Prog

(* Peterson's 2-process algorithm, with or without the fence after the
   flag/turn writes. On TSO the fence is what forbids both processes
   reading each other's un-committed flag (store buffering). *)
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

(* Inline ticket lock with a small spin fuel. *)
let small_ticket () =
  let layout = Layout.create () in
  let next = Layout.var layout "next" in
  let serving = Layout.var layout "serving" in
  Config.make ~model:Config.Cc_wb ~check_exclusion:true ~n:2 ~layout
    ~entry:(fun _ ->
      let* t = faa next 1 in
      let* _ = spin_until ~fuel:6 serving (fun s -> s = t) in
      unit)
    ~exit_section:(fun _ ->
      let* s = read serving in
      let* () = write serving (s + 1) in
      fence)
    ()

(* Inline test-and-set with small retry budget. *)
let small_tas () =
  let layout = Layout.create () in
  let lockw = Layout.var layout "lock" in
  Config.make ~model:Config.Cc_wb ~check_exclusion:true ~n:2 ~layout
    ~entry:(fun _ ->
      let rec acquire fuel =
        if fuel <= 0 then raise (Prog.Spin_exhausted lockw)
        else
          let* ok = cas lockw ~expected:0 ~desired:1 in
          if ok then unit else acquire (fuel - 1)
      in
      acquire 4)
    ~exit_section:(fun _ ->
      let* () = write lockw 0 in
      fence)
    ()

let test_fenced_peterson_verified () =
  let r = Mcheck.Explore.explore ~max_nodes:2_000_000 (peterson ~fenced:true) in
  Alcotest.(check bool)
    (Printf.sprintf "exhausted (%d nodes)" r.Mcheck.Explore.nodes)
    true r.Mcheck.Explore.exhausted;
  Alcotest.(check bool) "no violations" true r.Mcheck.Explore.verified

let test_unfenced_peterson_broken () =
  let r =
    Mcheck.Explore.explore ~max_nodes:2_000_000 (peterson ~fenced:false)
  in
  Alcotest.(check bool) "violation found" true
    (r.Mcheck.Explore.violations <> []);
  match r.Mcheck.Explore.violations with
  | { kind = `Exclusion _; schedule } :: _ ->
      (* the schedule replays to the violation on a fresh machine *)
      Alcotest.(check bool) "schedule nonempty" true (schedule <> []);
      ignore (fst (Mcheck.Explore.replay (peterson ~fenced:false) schedule))
  | _ -> Alcotest.fail "expected an exclusion violation"

let test_ticket_verified () =
  let r = Mcheck.Explore.explore ~max_nodes:2_000_000 (small_ticket ()) in
  Alcotest.(check bool)
    (Printf.sprintf "exhausted (%d nodes, depth %d)" r.Mcheck.Explore.nodes
       r.Mcheck.Explore.max_depth)
    true r.Mcheck.Explore.exhausted;
  Alcotest.(check bool) "no violations" true r.Mcheck.Explore.verified

let test_tas_verified () =
  let r = Mcheck.Explore.explore ~max_nodes:2_000_000 (small_tas ()) in
  Alcotest.(check bool) "no violations" true r.Mcheck.Explore.verified

(* A deliberately broken "flag lock" (test then set, no atomicity). *)
let test_flag_lock_broken () =
  let layout = Layout.create () in
  let flag = Layout.var layout "flag" in
  let cfg =
    Config.make ~model:Config.Cc_wb ~check_exclusion:true ~n:2 ~layout
      ~entry:(fun _ ->
        let* _ = spin_until ~fuel:4 flag (fun x -> x = 0) in
        let* () = write flag 1 in
        fence)
      ~exit_section:(fun _ ->
        let* () = write flag 0 in
        fence)
      ()
  in
  let r = Mcheck.Explore.explore ~max_nodes:500_000 cfg in
  Alcotest.(check bool) "violation found" true
    (List.exists
       (fun v ->
         match v.Mcheck.Explore.kind with `Exclusion _ -> true | _ -> false)
       r.Mcheck.Explore.violations)

(* Exhaustive litmus reachability via exclusion encoding: p1 completes
   its entry section ONLY when it observes the message-passing anomaly
   (flag = 1 but data = 0); p0 always completes. The anomaly is reachable
   iff the explorer finds an exclusion violation. Under TSO the FIFO
   buffer forbids it (verified over the full space); under PSO the
   out-of-order Commit_var moves reach it. *)
let mp_reachability ~ordering =
  let layout = Layout.create () in
  let data = Layout.var layout "data" in
  let flag = Layout.var layout "flag" in
  let blocked = Layout.var layout "blocked" in
  Config.make ~model:Config.Cc_wb ~ordering ~check_exclusion:true ~n:2
    ~layout
    ~entry:(fun p ->
      if p = 0 then
        let* () = write data 1 in
        let* () = write flag 1 in
        unit
      else
        let* f = read flag in
        let* d = read data in
        if f = 1 && d = 0 then unit (* anomaly: complete entry *)
        else
          (* otherwise block forever (pruned) *)
          let* _ = spin_until ~fuel:1 blocked (fun x -> x = 1) in
          unit)
    ~exit_section:(fun _ -> Prog.unit)
    ()

let test_mp_exhaustive_tso_vs_pso () =
  let tso =
    Mcheck.Explore.explore ~max_nodes:500_000 (mp_reachability ~ordering:Config.Tso)
  in
  Alcotest.(check bool)
    (Printf.sprintf "TSO: anomaly unreachable over full space (%d states)"
       tso.Mcheck.Explore.nodes)
    true tso.Mcheck.Explore.exhausted;
  Alcotest.(check bool) "TSO: no violation" true
    (tso.Mcheck.Explore.violations = []);
  let pso =
    Mcheck.Explore.explore ~max_nodes:500_000 (mp_reachability ~ordering:Config.Pso)
  in
  Alcotest.(check bool) "PSO: anomaly reachable" true
    (List.exists
       (fun v ->
         match v.Mcheck.Explore.kind with `Exclusion _ -> true | _ -> false)
       pso.Mcheck.Explore.violations);
  (* the schedule uses an out-of-order commit *)
  match pso.Mcheck.Explore.violations with
  | { schedule; _ } :: _ ->
      Alcotest.(check bool) "schedule contains Commit_var" true
        (List.exists
           (function Mcheck.Explore.Commit_var _ -> true | _ -> false)
           schedule)
  | [] -> Alcotest.fail "expected violation"

(* POR-on state counts of zoo searches, pinned exactly: a change to how
   a state is explored (sleep-set filtering, buffer scans, how a lock
   builds its programs) must leave which states are explored alone.
   Tournament n=4 is the end-to-end benchmark's search; its move codec
   uses 56 of the 61 encodable bits, so it covers sleep masks near the
   top of the word. The nine grid locks at n=3 are the campaign
   benchmark's grid (under PSO the read/write locks stop at their first
   violation), and mcs n=4 is its bracket probe, cut at the campaign's
   200,000-node cap. To re-pin after a change meant to move a count,
   take the actual line from the failure output and record why it
   moved. *)
let search ?(ordering = Config.Tso) ?(max_crashes = 0) ?(max_aborts = 0)
    ?(max_nodes = 2_000_000) name n =
  let fam = Option.get (Locks.Zoo.find name) in
  let r =
    Mcheck.Explore.explore ~max_nodes ~max_crashes ~max_aborts
      (Locks.Harness.config_of_lock ~model:Config.Cc_wb ~ordering
         (fam.Locks.Lock_intf.instantiate ~n) ~n)
  in
  Printf.sprintf "%s n=%d %s%s%s: %d states, depth %d, %s" name n
    (Config.ordering_name ordering)
    (if max_crashes > 0 then Printf.sprintf " crashes<=%d" max_crashes else "")
    (if max_aborts > 0 then Printf.sprintf " aborts<=%d" max_aborts else "")
    r.Mcheck.Explore.nodes r.Mcheck.Explore.max_depth
    (if r.Mcheck.Explore.verified then "verified"
     else if r.Mcheck.Explore.violations <> [] then "violation"
     else "partial")

let test_por_counts () =
  let grid =
    List.concat_map
      (fun name -> [ search name 3; search ~ordering:Config.Pso name 3 ])
      [ "tas"; "ticket"; "mcs"; "clh"; "anderson"; "bakery"; "filter";
        "tournament"; "fastpath" ]
  in
  Alcotest.(check (list string)) "POR-on searches"
    [ "tournament n=4 TSO: 955284 states, depth 134, verified";
      "recoverable-tas n=3 TSO crashes<=2: 58732 states, depth 61, verified";
      "abortable-tas n=2 TSO aborts<=1: 1849 states, depth 84, verified";
      "mcs n=4 TSO: 200000 states, depth 99, partial";
      "tas n=3 TSO: 1166 states, depth 49, verified";
      "tas n=3 PSO: 1166 states, depth 49, verified";
      "ticket n=3 TSO: 1956 states, depth 36, verified";
      "ticket n=3 PSO: 1956 states, depth 36, verified";
      "mcs n=3 TSO: 10343 states, depth 70, verified";
      "mcs n=3 PSO: 13388 states, depth 70, verified";
      "clh n=3 TSO: 2515 states, depth 42, verified";
      "clh n=3 PSO: 3023 states, depth 42, verified";
      "anderson n=3 TSO: 1711 states, depth 35, verified";
      "anderson n=3 PSO: 1711 states, depth 35, verified";
      "bakery n=3 TSO: 80373 states, depth 90, verified";
      "bakery n=3 PSO: 521 states, depth 75, violation";
      "filter n=3 TSO: 69327 states, depth 95, verified";
      "filter n=3 PSO: 1156 states, depth 88, violation";
      "tournament n=3 TSO: 24920 states, depth 97, verified";
      "tournament n=3 PSO: 376 states, depth 75, violation";
      "fastpath n=3 TSO: 95452 states, depth 147, verified";
      "fastpath n=3 PSO: 24061 states, depth 125, violation" ]
    ([ search "tournament" 4;
       search ~max_crashes:2 "recoverable-tas" 3;
       search ~max_aborts:1 "abortable-tas" 2;
       search ~max_nodes:200_000 "mcs" 4 ]
    @ grid)

(* An exception in one worker stops them all before [explore] re-raises
   it. Every step of tournament n=4's programs bumps a shared counter,
   and the 50,000th raises; a worker left running after the raise would
   keep the counter moving, and one left running to the end of the
   955,284-state space would take it far past 100,000. *)
let test_raise_stops_workers () =
  let steps = Atomic.make 0 in
  let rec counting : type a. a Prog.t -> a Prog.t = function
    | Return _ as r -> r
    | Bind (op, k) ->
        Bind
          ( op,
            fun x ->
              if Atomic.fetch_and_add steps 1 = 49_999 then
                failwith "step 50000";
              counting (k x) )
  in
  let n = 4 in
  let lock =
    (Option.get (Locks.Zoo.find "tournament")).Locks.Lock_intf.instantiate ~n
  in
  let cfg = Locks.Harness.config_of_lock ~model:Config.Cc_wb lock ~n in
  let cfg =
    { cfg with
      Config.entry = (fun p -> counting (cfg.Config.entry p));
      exit_section = (fun p -> counting (cfg.Config.exit_section p)) }
  in
  (match Mcheck.Explore.explore ~max_nodes:2_000_000 ~domains:2 cfg with
  | _ -> Alcotest.fail "the search returned"
  | exception Failure msg ->
      Alcotest.(check string) "re-raised" "step 50000" msg);
  let at_raise = Atomic.get steps in
  if at_raise >= 100_000 then
    Alcotest.failf "%d steps run before the raise returned" at_raise;
  Unix.sleepf 0.1;
  Alcotest.(check int) "no step after the raise" at_raise (Atomic.get steps)

(* At fuel 0 every spin raises before its first read, so a search would
   prune each branch at its first spin: recoverable-tas-naive n=2 with
   one crash, a violation at fuel 1 and at the default 6, verified that
   way in 9 states. The explorer refuses the fuel instead, and fuel 1
   still finds the violation. *)
let test_spin_fuel_below_one () =
  let n = 2 in
  let lock =
    (Option.get (Locks.Zoo.find "recoverable-tas-naive"))
      .Locks.Lock_intf.instantiate ~n
  in
  let cfg = Locks.Harness.config_of_lock ~model:Config.Cc_wb lock ~n in
  Alcotest.check_raises "fuel 0 rejected"
    (Invalid_argument "Explore.explore: spin_fuel must be >= 1") (fun () ->
      ignore (Mcheck.Explore.explore ~spin_fuel:0 ~max_crashes:1 cfg));
  let r = Mcheck.Explore.explore ~spin_fuel:1 ~max_crashes:1 cfg in
  Alcotest.(check int) "fuel 1 finds the violation" 1
    (List.length r.Mcheck.Explore.violations)

let suite =
  [
    Alcotest.test_case "MP litmus: exhaustive TSO vs PSO" `Quick
      test_mp_exhaustive_tso_vs_pso;
    Alcotest.test_case "Peterson (fenced): verified" `Quick
      test_fenced_peterson_verified;
    Alcotest.test_case "Peterson (unfenced): TSO breaks it" `Quick
      test_unfenced_peterson_broken;
    Alcotest.test_case "ticket n=2: verified" `Quick test_ticket_verified;
    Alcotest.test_case "tas n=2: verified" `Quick test_tas_verified;
    Alcotest.test_case "flag lock: race found" `Quick test_flag_lock_broken;
    Alcotest.test_case "POR-on state counts pinned" `Quick test_por_counts;
    Alcotest.test_case "a raising worker stops every worker" `Quick
      test_raise_stops_workers;
    Alcotest.test_case "spin fuel below 1 rejected" `Quick
      test_spin_fuel_below_one;
  ]
