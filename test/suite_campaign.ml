(* Campaign orchestrator: cache-key stability, cache corruption
   tolerance, bracketing, budget escalation, warm-run determinism and
   the adaptive-vs-dense job-count guarantee. *)

module Cell = Campaign.Cell
module Cache = Campaign.Cache
module Bracket = Campaign.Bracket
module Runner = Campaign.Runner
module Driver = Campaign.Driver

let report_string r = Obs.Json.to_string (Driver.report_json r)

let tmpfile =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pa_campaign_test_%d_%d.ndjson" (Unix.getpid ()) !n)

(* --- key stability ------------------------------------------------------ *)

(* Golden keys: these exact bytes are persistent-cache identities. If
   this test fails, the key format changed — bump Cell.code_salt and
   update the goldens deliberately, never silently. *)
let test_golden_keys () =
  Alcotest.(check string)
    "default verify key"
    "verify lock=tas n=2 model=cc-wb ord=tso pass=1 crashes=0 aborts=0 \
     csem=drop store=exact por=on"
    (Cell.key (Cell.make ~lock:"tas" ~n:2 ()));
  Alcotest.(check string)
    "every field off-default"
    "adversary lock=ticket n=7 model=dsm ord=pso pass=3 crashes=2 aborts=1 \
     csem=prefix store=bitstate:20:4 por=off"
    (Cell.key
       (Cell.make ~kind:Cell.Adversary ~model:Tsim.Config.Dsm
          ~ordering:Tsim.Config.Pso ~passages:3 ~max_crashes:2 ~max_aborts:1
          ~crash_semantics:Tsim.Config.Atomic_prefix
          ~store:(Tsim.Config.Store_bitstate { log2_bits = 20; hashes = 4 })
          ~por:false ~lock:"ticket" ~n:7 ()));
  (* there is no bounded store: its code does not parse, a cached key
     that names it is rejected, and so is a grid that asks for it —
     before any cell runs *)
  Alcotest.(check bool) "bounded store code rejected" true
    (Cell.store_of_code "bounded:12" = None);
  (match
     Cell.of_key
       "verify lock=mcs n=3 model=cc-wt ord=tso pass=1 crashes=0 aborts=0 \
        csem=flush store=bounded:12 por=on"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bounded store key accepted");
  match Driver.parse_grid "lock=mcs n=3 store=bounded:12" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bounded store grid accepted"

let cell_gen =
  let open QCheck.Gen in
  let* kind = oneofl [ Cell.Verify; Cell.Adversary ] in
  let* lock = oneofl [ "tas"; "ticket"; "mcs"; "weird-name"; "x" ] in
  let* n = int_range 2 64 in
  let* model =
    oneofl [ Tsim.Config.Dsm; Tsim.Config.Cc_wt; Tsim.Config.Cc_wb ]
  in
  let* ordering = oneofl [ Tsim.Config.Tso; Tsim.Config.Pso ] in
  let* passages = int_range 1 9 in
  let* max_crashes = int_range 0 5 in
  let* max_aborts = int_range 0 5 in
  let* crash_semantics =
    oneofl
      [ Tsim.Config.Drop_buffer; Tsim.Config.Flush_buffer;
        Tsim.Config.Atomic_prefix ]
  in
  let* store =
    oneof
      [
        return Tsim.Config.Store_exact;
        (let* b = int_range 10 36 in
         let* h = int_range 1 8 in
         return (Tsim.Config.Store_bitstate { log2_bits = b; hashes = h }));
      ]
  in
  let* por = bool in
  return
    (Cell.make ~kind ~model ~ordering ~passages ~max_crashes ~max_aborts
       ~crash_semantics ~store ~por ~lock ~n ())

let prop_key_roundtrip =
  QCheck.Test.make ~name:"of_key inverts key (canonical, injective)"
    ~count:500
    (QCheck.make cell_gen)
    (fun c ->
      match Cell.of_key (Cell.key c) with
      | Ok c' -> Cell.equal c c' && Cell.key c = Cell.key c'
      | Error _ -> false)

let prop_outcome_json_roundtrip =
  let open QCheck.Gen in
  let outcome_gen =
    let* verdict =
      oneof
        [
          return Cell.Verified;
          (let* ks =
             oneofl
               [ [ "deadlock" ]; [ "exclusion" ];
                 [ "deadlock"; "exclusion"; "spin-exhausted" ] ]
           in
           return (Cell.Violation ks));
          (let* r = oneofl [ "nodes"; "millis"; "interrupted" ] in
           return (Cell.Partial r));
          (let* k = int_range 0 40 in
           return (Cell.Fences k));
        ]
    in
    let* nodes = int_range 0 1_000_000 in
    let* max_depth = int_range 0 10_000 in
    let* budget_nodes = int_range 1 2_000_000 in
    return { Cell.verdict; nodes; max_depth; budget_nodes }
  in
  QCheck.Test.make ~name:"outcome JSON round-trips" ~count:300
    (QCheck.make outcome_gen)
    (fun o ->
      match Cell.outcome_of_json (Cell.outcome_to_json o) with
      | Ok o' -> o = o'
      | Error _ -> false)

(* --- bracketing --------------------------------------------------------- *)

let test_bracket_least_exhaustive () =
  (* every threshold position over modest ranges must match the dense
     scan exactly, and never evaluate a point twice *)
  for hi = 1 to 24 do
    for t = 1 to hi + 1 do
      let stats = Bracket.new_stats () in
      let p x = x >= t in
      let got = Bracket.least ~stats ~lo:1 ~hi p in
      let want = if t <= hi then Some t else None in
      if got <> want then
        Alcotest.failf "least hi=%d t=%d: got %s want %s" hi t
          (match got with Some v -> string_of_int v | None -> "none")
          (match want with Some v -> string_of_int v | None -> "none");
      let pts = List.map fst stats.Bracket.probed in
      if List.length pts <> List.length (List.sort_uniq compare pts) then
        Alcotest.failf "least hi=%d t=%d re-evaluated a point" hi t
    done
  done

let test_bracket_greatest_exhaustive () =
  for hi = 1 to 24 do
    for t = 0 to hi + 1 do
      let stats = Bracket.new_stats () in
      let p x = x <= t in
      let got = Bracket.greatest ~stats ~lo:1 ~hi p in
      let want = if t >= 1 then Some (min t hi) else None in
      if got <> want then
        Alcotest.failf "greatest hi=%d t=%d: got %s want %s" hi t
          (match got with Some v -> string_of_int v | None -> "none")
          (match want with Some v -> string_of_int v | None -> "none")
    done
  done

let prop_bracket_logarithmic =
  QCheck.Test.make ~name:"bracket evals are logarithmic, not linear"
    ~count:300
    QCheck.(pair (QCheck.make QCheck.Gen.(int_range 2 100_000))
              (QCheck.make QCheck.Gen.(int_range 1 100_000)))
    (fun (hi, t) ->
      let t = min t hi in
      let stats = Bracket.new_stats () in
      let got = Bracket.least ~stats ~lo:1 ~hi (fun x -> x >= t) in
      let log2 = int_of_float (ceil (log (float_of_int hi) /. log 2.0)) in
      got = Some t && stats.Bracket.evals <= (3 * log2) + 4)

(* --- cache persistence and tolerance ------------------------------------ *)

let o1 = { Cell.verdict = Cell.Verified; nodes = 10; max_depth = 3;
           budget_nodes = 4096 }
let o2 = { Cell.verdict = Cell.Partial "nodes"; nodes = 4096; max_depth = 9;
           budget_nodes = 4096 }

let test_cache_resume_and_supersede () =
  let path = tmpfile () in
  let c, _ = Cache.open_file ~resume:false path in
  Cache.add c "k1" o1;
  Cache.add c "k2" o2;
  Cache.add c "k2" { o2 with Cell.verdict = Cell.Verified };
  Cache.close c;
  let c2, stats = Cache.open_file ~resume:true path in
  Alcotest.(check int) "loaded" 2 stats.Cache.loaded;
  Alcotest.(check int) "skipped" 0 stats.Cache.skipped;
  Alcotest.(check bool) "header ok" false stats.Cache.invalid_header;
  (match Cache.find c2 "k2" with
  | Some o -> Alcotest.(check bool) "last write wins" true
                (o.Cell.verdict = Cell.Verified)
  | None -> Alcotest.fail "k2 missing after resume");
  Cache.close c2;
  Sys.remove path

let test_cache_torn_tail () =
  let path = tmpfile () in
  let c, _ = Cache.open_file ~resume:false path in
  Cache.add c "k1" o1;
  Cache.add c "k2" o2;
  Cache.close c;
  (* simulate a kill mid-write: truncate the file inside the last line *)
  let full = In_channel.with_open_text path In_channel.input_all in
  let cut = String.length full - 7 in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (String.sub full 0 cut));
  let c2, stats = Cache.open_file ~resume:true path in
  Alcotest.(check int) "survivors loaded" 1 stats.Cache.loaded;
  Alcotest.(check int) "torn line skipped" 1 stats.Cache.skipped;
  Alcotest.(check bool) "k1 intact" true (Cache.find c2 "k1" = Some o1);
  Alcotest.(check bool) "k2 dropped" true (Cache.find c2 "k2" = None);
  (* the reopened cache must still be appendable *)
  Cache.add c2 "k3" o1;
  Cache.close c2;
  let c3, stats3 = Cache.open_file ~resume:true path in
  Alcotest.(check int) "append after torn tail" 2 stats3.Cache.loaded;
  Cache.close c3;
  Sys.remove path

let test_cache_version_mismatch () =
  let path = tmpfile () in
  let c, _ = Cache.open_file ~resume:false path in
  Cache.add c "k1" o1;
  Cache.close c;
  (* rewrite the header with a different salt: every entry must be
     discarded, never silently trusted *)
  let lines =
    String.split_on_char '\n'
      (In_channel.with_open_text path In_channel.input_all)
  in
  let entries = List.tl lines in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc
        "{\"format\":\"price_adaptive.campaign.cache\",\"version\":1,\
         \"salt\":\"some-other-build\"}\n";
      List.iter
        (fun l -> if l <> "" then (Out_channel.output_string oc l;
                                   Out_channel.output_char oc '\n'))
        entries);
  let c2, stats = Cache.open_file ~resume:true path in
  Alcotest.(check bool) "header rejected" true stats.Cache.invalid_header;
  Alcotest.(check int) "nothing loaded" 0 stats.Cache.loaded;
  Alcotest.(check bool) "entry gone" true (Cache.find c2 "k1" = None);
  (* the file was rewritten with a fresh valid header *)
  Cache.add c2 "k2" o2;
  Cache.close c2;
  let c3, stats3 = Cache.open_file ~resume:true path in
  Alcotest.(check bool) "fresh header valid" false
    stats3.Cache.invalid_header;
  Alcotest.(check int) "fresh entries" 1 stats3.Cache.loaded;
  Cache.close c3;
  Sys.remove path

let test_cache_garbage_file () =
  let path = tmpfile () in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc "not json at all\n\x00\x01garbage\n");
  let c, stats = Cache.open_file ~resume:true path in
  Alcotest.(check bool) "garbage header rejected" true
    stats.Cache.invalid_header;
  Alcotest.(check int) "nothing loaded" 0 stats.Cache.loaded;
  Cache.close c;
  Sys.remove path

(* --- the usable/cacheable contract -------------------------------------- *)

let test_usable_rule () =
  Alcotest.(check bool) "definitive always usable" true
    (Cell.usable o1 ~budget_nodes:1_000_000);
  Alcotest.(check bool) "partial at >= budget usable" true
    (Cell.usable o2 ~budget_nodes:4096);
  Alcotest.(check bool) "partial below budget not usable" false
    (Cell.usable o2 ~budget_nodes:8192)

(* --- driver: escalation, determinism, warm re-runs ----------------------- *)

let small_grid = "lock=tas,ticket,mcs,clh,bakery,filter n=2-3"

let parse_grid_exn s =
  match Driver.parse_grid s with
  | Ok g -> g
  | Error m -> Alcotest.failf "parse_grid %S: %s" s m

let parse_bracket_exn s =
  match Driver.parse_bracket s with
  | Ok b -> b
  | Error m -> Alcotest.failf "parse_bracket %S: %s" s m

let test_grid_product () =
  let g = parse_grid_exn "lock=tas,ticket n=2-4 crashes=0,1" in
  Alcotest.(check int) "2 locks x 3 n x 2 crashes" 12 (List.length g);
  (* duplicates collapse in the schedule *)
  let p = Driver.planned (g @ g) in
  Alcotest.(check int) "planned dedups" 12 (List.length p);
  (* cheap-first: costs are non-decreasing along the schedule *)
  let costs = List.map Cell.cost_hint p in
  Alcotest.(check bool) "cheap first" true
    (List.for_all2 ( <= ) costs (List.tl costs @ [ infinity ]))

let test_grid_rejects () =
  (match Driver.parse_grid "n=2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "grid without lock accepted");
  (match Driver.parse_grid "lock=tas banana=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown field accepted");
  (match Driver.parse_grid "lock=tas n=5-2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "inverted range accepted");
  match Driver.parse_bracket "min-n-fences lock=tas" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "min-n-fences without k accepted"

let test_bad_cell_rejected_up_front () =
  (* unknown lock, and aborts on a non-abortable lock: both must raise
     before anything runs *)
  let cache = Cache.in_memory () in
  (try
     ignore
       (Driver.run ~cache
          { Driver.grid = parse_grid_exn "lock=nosuchlock"; brackets = [] });
     Alcotest.fail "unknown lock not rejected"
   with Runner.Bad_cell _ -> ());
  try
    ignore
      (Driver.run ~cache
         { Driver.grid = parse_grid_exn "lock=tas aborts=1"; brackets = [] });
    Alcotest.fail "aborts on non-abortable lock not rejected"
  with Runner.Bad_cell _ -> ()

let test_budget_escalation () =
  (* tas n=4 needs more nodes than the first 4096-node rung but fits the
     cap: the driver must escalate and come back verified, with the
     final (escalated) budget recorded *)
  let cache = Cache.in_memory () in
  let r =
    Driver.run ~max_nodes:500_000 ~cache
      { Driver.grid = parse_grid_exn "lock=tas n=4"; brackets = [] }
  in
  match r.Driver.cells with
  | [ { outcome; _ } ] ->
      Alcotest.(check bool) "verified after escalation" true
        (outcome.Cell.verdict = Cell.Verified);
      Alcotest.(check bool)
        (Printf.sprintf "needed more than one rung (nodes=%d budget=%d)"
           outcome.Cell.nodes outcome.Cell.budget_nodes)
        true
        (outcome.Cell.budget_nodes > 4096 && outcome.Cell.nodes > 4096)
  | _ -> Alcotest.fail "expected exactly one cell"

let test_partial_at_cap_cached_and_reused () =
  (* a cell that cannot finish under the cap must end as a nodes-partial
     at the full cap, be cached, and be reused by a warm run at the same
     cap but re-run under a larger one *)
  let cache = Cache.in_memory () in
  let plan = { Driver.grid = parse_grid_exn "lock=ticket n=4"; brackets = [] } in
  let r = Driver.run ~max_nodes:10_000 ~cache plan in
  (match r.Driver.cells with
  | [ { outcome; _ } ] ->
      Alcotest.(check bool) "partial at cap" true
        (outcome.Cell.verdict = Cell.Partial "nodes"
        && outcome.Cell.budget_nodes = 10_000)
  | _ -> Alcotest.fail "expected one cell");
  let r2 = Driver.run ~max_nodes:10_000 ~cache plan in
  Alcotest.(check int) "same cap: cache hit" 1 r2.Driver.hits;
  Alcotest.(check int) "same cap: nothing executed" 0 r2.Driver.executed;
  let r3 = Driver.run ~max_nodes:40_000 ~cache plan in
  Alcotest.(check int) "bigger cap: partial not reused" 1 r3.Driver.executed

(* Verdicts depend on the spin fuel, which is not a cell axis: at fuel 1
   abortable-tas-buggy's retry loop never reaches its abort window, so
   the violation fuel 6 finds goes unseen. A cache filled at one fuel
   must not answer for another. *)
let test_cache_keyed_by_fuel () =
  let cache = Cache.in_memory () in
  let plan =
    {
      Driver.grid = parse_grid_exn "lock=abortable-tas-buggy n=2 aborts=1";
      brackets = [];
    }
  in
  let verdict r =
    match r.Driver.cells with
    | [ c ] -> Cell.verdict_to_string c.Driver.outcome.Cell.verdict
    | _ -> Alcotest.fail "expected one cell"
  in
  let r6 = Driver.run ~spin_fuel:6 ~cache plan in
  Alcotest.(check string) "fuel 6 finds the violation" "violation:exclusion"
    (verdict r6);
  let r1 = Driver.run ~spin_fuel:1 ~cache plan in
  Alcotest.(check int) "fuel 1 executes the cell" 1 r1.Driver.executed;
  Alcotest.(check string) "fuel 1 verifies" "verified" (verdict r1);
  let r6' = Driver.run ~spin_fuel:6 ~cache plan in
  Alcotest.(check int) "fuel 6 again: answered from the cache" 1
    r6'.Driver.hits;
  Alcotest.(check string) "fuel 6 again: the violation" "violation:exclusion"
    (verdict r6')

let test_millis_partial_never_cached () =
  let cache = Cache.in_memory () in
  let plan = { Driver.grid = parse_grid_exn "lock=ticket n=4"; brackets = [] } in
  let r = Driver.run ~max_nodes:5_000_000 ~max_millis:0 ~cache plan in
  (match r.Driver.cells with
  | [ { outcome; _ } ] ->
      Alcotest.(check bool) "time-limited partial" true
        (outcome.Cell.verdict = Cell.Partial "millis")
  | _ -> Alcotest.fail "expected one cell");
  Alcotest.(check int) "wall-clock outcomes never cached" 0
    (Cache.entries cache)

let test_stop_flag_interrupts () =
  let cache = Cache.in_memory () in
  let stop = Atomic.make true in
  let r =
    Driver.run ~stop ~cache
      { Driver.grid = parse_grid_exn small_grid; brackets = [] }
  in
  Alcotest.(check bool) "interrupted" true r.Driver.interrupted;
  Alcotest.(check int) "nothing ran" 0 r.Driver.executed;
  (match Obs.Json.member "complete" (Driver.report_json r) with
  | Some (Obs.Json.Bool false) -> ()
  | _ -> Alcotest.fail "partial report must carry complete=false");
  match Driver.validate_report (Driver.report_json r) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "partial report fails schema: %s" m

let test_jobs_report_identical () =
  let plan =
    {
      Driver.grid = parse_grid_exn small_grid;
      brackets = [ parse_bracket_exn "min-crashes-refute lock=recoverable-tas-naive lo=0 hi=3" ];
    }
  in
  let run jobs =
    let cache = Cache.in_memory () in
    report_string (Driver.run ~jobs ~max_nodes:100_000 ~cache plan)
  in
  let seq = run 1 in
  Alcotest.(check string) "jobs=3 report byte-equal to jobs=1" seq (run 3);
  Alcotest.(check string) "jobs=8 report byte-equal to jobs=1" seq (run 8)

let test_warm_rerun_fast_hits_identical () =
  let path = tmpfile () in
  let plan =
    {
      Driver.grid = parse_grid_exn small_grid;
      brackets = [ parse_bracket_exn "min-n-fences lock=tournament k=6 lo=2 hi=17" ];
    }
  in
  let cold_cache, _ = Cache.open_file ~resume:false path in
  let t0 = Unix.gettimeofday () in
  let cold = Driver.run ~max_nodes:100_000 ~cache:cold_cache plan in
  let cold_dt = Unix.gettimeofday () -. t0 in
  Cache.close cold_cache;
  Alcotest.(check int) "cold run hit nothing" 0 cold.Driver.hits;
  let warm_cache, stats = Cache.open_file ~resume:true path in
  Alcotest.(check int) "all outcomes persisted"
    (cold.Driver.executed) stats.Cache.loaded;
  let t1 = Unix.gettimeofday () in
  let warm = Driver.run ~max_nodes:100_000 ~cache:warm_cache plan in
  let warm_dt = Unix.gettimeofday () -. t1 in
  Cache.close warm_cache;
  Sys.remove path;
  Alcotest.(check int) "warm run executes nothing" 0 warm.Driver.executed;
  let total = warm.Driver.hits + warm.Driver.executed in
  Alcotest.(check bool)
    (Printf.sprintf "warm hit rate >= 95%% (%d/%d)" warm.Driver.hits total)
    true
    (float_of_int warm.Driver.hits >= 0.95 *. float_of_int total);
  Alcotest.(check string) "warm report byte-identical"
    (report_string cold) (report_string warm);
  (* the headline contract: a fully warm cache makes the re-run at
     least 10x faster end-to-end *)
  Alcotest.(check bool)
    (Printf.sprintf "warm (%.4fs) at least 10x faster than cold (%.4fs)"
       warm_dt cold_dt)
    true
    (warm_dt *. 10.0 <= cold_dt)

let test_bracket_beats_dense_sweep () =
  (* the acceptance bound: bracketing the smallest n forcing k fences
     must cost at most half the explorer jobs of the dense sweep over
     the same range — and agree with it *)
  let lo = 2 and hi = 17 and k = 6 in
  let dense_answer =
    (* ground truth by dense sweep, outside the campaign *)
    let rec scan n =
      if n > hi then None
      else
        let o =
          Runner.run ~budget_nodes:1
            (Cell.make ~kind:Cell.Adversary ~lock:"tournament" ~n ())
        in
        match o.Cell.verdict with
        | Cell.Fences f when f >= k -> Some n
        | _ -> scan (n + 1)
    in
    scan lo
  in
  let cache = Cache.in_memory () in
  let spec =
    parse_bracket_exn
      (Printf.sprintf "min-n-fences lock=tournament k=%d lo=%d hi=%d" k lo hi)
  in
  let r = Driver.run ~cache { Driver.grid = []; brackets = [ spec ] } in
  let dense_jobs = hi - lo + 1 in
  match r.Driver.brackets with
  | [ br ] ->
      Alcotest.(check bool)
        (Printf.sprintf "answer %s agrees with dense sweep %s"
           (match br.Driver.answer with
            | Some a -> string_of_int a | None -> "none")
           (match dense_answer with
            | Some a -> string_of_int a | None -> "none"))
        true
        (br.Driver.answer = dense_answer);
      Alcotest.(check bool)
        (Printf.sprintf "%d probe jobs <= half of %d dense jobs"
           r.Driver.executed dense_jobs)
        true
        (2 * r.Driver.executed <= dense_jobs)
  | _ -> Alcotest.fail "expected one bracket result"

let test_refute_brackets () =
  (* the fault-budget frontiers seen end-to-end: the naive recoverable
     lock falls at one crash, the buggy abortable lock at one abort, and
     the sound recoverable lock never falls in range *)
  let cache = Cache.in_memory () in
  let plan =
    {
      Driver.grid = [];
      brackets =
        [
          parse_bracket_exn "min-crashes-refute lock=recoverable-tas-naive lo=0 hi=3";
          parse_bracket_exn "min-aborts-refute lock=abortable-tas-buggy lo=0 hi=3";
          parse_bracket_exn "min-crashes-refute lock=recoverable-tas lo=0 hi=2";
          parse_bracket_exn "max-exhaustive-n lock=ticket lo=2 hi=6";
        ];
    }
  in
  let r = Driver.run ~max_nodes:50_000 ~cache plan in
  match r.Driver.brackets with
  | [ crash_naive; abort_buggy; crash_sound; exhaust ] ->
      Alcotest.(check (option int)) "naive recoverable falls at 1 crash"
        (Some 1) crash_naive.Driver.answer;
      Alcotest.(check (option int)) "buggy abortable falls at 1 abort"
        (Some 1) abort_buggy.Driver.answer;
      Alcotest.(check (option int)) "sound recoverable never falls"
        None crash_sound.Driver.answer;
      Alcotest.(check (option int)) "ticket exhaustible to n=3 at 50k"
        (Some 3) exhaust.Driver.answer
  | _ -> Alcotest.fail "expected four bracket results"

let test_validate_report_rejects () =
  let open Obs.Json in
  let good =
    let cache = Cache.in_memory () in
    Driver.report_json
      (Driver.run ~cache
         { Driver.grid = parse_grid_exn "lock=tas n=2"; brackets = [] })
  in
  (match Driver.validate_report good with
  | Ok () -> ()
  | Error m -> Alcotest.failf "good report rejected: %s" m);
  let mangle f =
    match good with
    | Obj kvs -> Obj (List.map f kvs)
    | _ -> assert false
  in
  let cases =
    [
      ("wrong format", mangle (function
         | "format", _ -> ("format", String "nope")
         | kv -> kv));
      ("future version", mangle (function
         | "version", _ -> ("version", Int 99)
         | kv -> kv));
      ("bad cell key", mangle (function
         | "cells", List [ Obj kvs ] ->
             ( "cells",
               List [ Obj (List.map (function
                   | "key", _ -> ("key", String "garbage")
                   | kv -> kv) kvs) ] )
         | kv -> kv));
      ("cells out of order", mangle (function
         | "cells", List [ c ] -> ("cells", List [ c; c ])
         | kv -> kv));
    ]
  in
  List.iter
    (fun (name, bad) ->
      match Driver.validate_report bad with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "%s accepted" name)
    cases

let suite =
  [
    Alcotest.test_case "golden cache keys" `Quick test_golden_keys;
    QCheck_alcotest.to_alcotest prop_key_roundtrip;
    QCheck_alcotest.to_alcotest prop_outcome_json_roundtrip;
    Alcotest.test_case "bracket least = dense scan" `Quick
      test_bracket_least_exhaustive;
    Alcotest.test_case "bracket greatest = dense scan" `Quick
      test_bracket_greatest_exhaustive;
    QCheck_alcotest.to_alcotest prop_bracket_logarithmic;
    Alcotest.test_case "cache resume, last write wins" `Quick
      test_cache_resume_and_supersede;
    Alcotest.test_case "cache tolerates a torn tail" `Quick
      test_cache_torn_tail;
    Alcotest.test_case "cache rejects salt mismatch wholesale" `Quick
      test_cache_version_mismatch;
    Alcotest.test_case "cache survives a garbage file" `Quick
      test_cache_garbage_file;
    Alcotest.test_case "cached-outcome reuse rule" `Quick test_usable_rule;
    Alcotest.test_case "grid product and schedule" `Quick test_grid_product;
    Alcotest.test_case "bad specs rejected" `Quick test_grid_rejects;
    Alcotest.test_case "bad cells rejected before running" `Quick
      test_bad_cell_rejected_up_front;
    Alcotest.test_case "budget escalation" `Quick test_budget_escalation;
    Alcotest.test_case "cap-partial cached and reused by budget" `Quick
      test_partial_at_cap_cached_and_reused;
    Alcotest.test_case "cache entries keyed by spin fuel" `Quick
      test_cache_keyed_by_fuel;
    Alcotest.test_case "time-limited partials never cached" `Quick
      test_millis_partial_never_cached;
    Alcotest.test_case "stop flag: partial report, nothing poisoned" `Quick
      test_stop_flag_interrupts;
    Alcotest.test_case "report identical across job counts" `Quick
      test_jobs_report_identical;
    Alcotest.test_case "warm re-run: >=95% hits, 10x faster, identical"
      `Quick test_warm_rerun_fast_hits_identical;
    Alcotest.test_case "bracket beats the dense sweep" `Quick
      test_bracket_beats_dense_sweep;
    Alcotest.test_case "fault-budget and exhaustion frontiers" `Quick
      test_refute_brackets;
    Alcotest.test_case "report schema validation" `Quick
      test_validate_report_rejects;
  ]
