(* Campaign orchestrator: cache-key stability, cache corruption
   tolerance, bracketing, one search per distinct search, warm-run
   determinism and the adaptive-vs-dense job-count guarantee. *)

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

(* The first doubling point at or past threshold [t] of a least-search
   from [lo]: min hi (lo + 2^ceil(log2 (t - lo))), or [lo] itself when
   [p lo] already holds. No probe may lie above it. *)
let doubling_bound ~lo ~hi t =
  if t <= lo then lo
  else
    let rec pow2 s = if s >= t - lo then s else pow2 (2 * s) in
    min hi (lo + pow2 1)

let check_probe_bound name ~hi ~t ~bound (stats : Bracket.stats) =
  List.iter
    (fun (x, _) ->
      if x > bound then
        Alcotest.failf "%s hi=%d t=%d probed %d above the frontier bound %d"
          name hi t x bound)
    stats.Bracket.probed

let test_bracket_least_exhaustive () =
  (* every threshold position over modest ranges must match the dense
     scan exactly, never evaluate a point twice, and never probe past
     the first doubling point at or beyond the flip *)
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
        Alcotest.failf "least hi=%d t=%d re-evaluated a point" hi t;
      check_probe_bound "least" ~hi ~t
        ~bound:(doubling_bound ~lo:1 ~hi t)
        stats
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
          (match want with Some v -> string_of_int v | None -> "none");
      (* the negated predicate (x > t) flips at t + 1 *)
      check_probe_bound "greatest" ~hi ~t
        ~bound:(doubling_bound ~lo:1 ~hi (t + 1))
        stats
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

(* --- driver: shared searches, determinism, warm re-runs ------------------ *)

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
  (match Driver.parse_grid "lock=tas n=2 store=bounded:256" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "removed bounded store accepted");
  (* an adversary cell is checked against the configuration its
     construction runs under, so n=0 is refused before anything runs *)
  (match Driver.parse_grid "kind=adversary lock=tas n=0" with
  | Error _ -> ()
  | Ok grid -> (
      match List.iter Runner.resolve (Driver.planned grid) with
      | () -> Alcotest.fail "adversary cell with n=0 accepted"
      | exception Runner.Bad_cell _ -> ()));
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

let test_one_search_at_cap () =
  (* tas n=4 needs 13,853 nodes, more than a small first slice of the
     cap would give it: it must still run once, at the cap, and come
     back verified with the cap recorded *)
  let cache = Cache.in_memory () in
  let r =
    Driver.run ~max_nodes:500_000 ~cache
      { Driver.grid = parse_grid_exn "lock=tas n=4"; brackets = [] }
  in
  Alcotest.(check int) "one search" 1 r.Driver.executed;
  match r.Driver.cells with
  | [ { outcome; _ } ] ->
      Alcotest.(check bool) "verified" true
        (outcome.Cell.verdict = Cell.Verified);
      Alcotest.(check bool)
        (Printf.sprintf "needs more than 4096 nodes (nodes=%d)"
           outcome.Cell.nodes)
        true
        (outcome.Cell.nodes > 4096);
      Alcotest.(check int) "the cap is recorded" 500_000
        outcome.Cell.budget_nodes
  | _ -> Alcotest.fail "expected exactly one cell"

(* Sharing one search across models (Cell.search_key) holds only while
   no search reads Config.model. Every zoo family at n=2, fault-free and
   at one crash or abort where it has a recovery or abort section, must
   give equal outcomes under the three models, with both orderings. *)
let test_search_ignores_model () =
  let open Tsim.Config in
  List.iter
    (fun (fam : Locks.Lock_intf.family) ->
      let lock = fam.Locks.Lock_intf.instantiate ~n:2 in
      let faults =
        ((0, 0)
        :: (if Option.is_some lock.Locks.Lock_intf.recovery then [ (1, 0) ]
            else []))
        @
        if Option.is_some lock.Locks.Lock_intf.abort then [ (0, 1) ] else []
      in
      List.iter
        (fun (max_crashes, max_aborts) ->
          List.iter
            (fun ordering ->
              let run model =
                let cell =
                  Cell.make ~model ~ordering ~max_crashes ~max_aborts
                    ~lock:fam.Locks.Lock_intf.family_name ~n:2 ()
                in
                ( Cell.key cell,
                  Obs.Json.to_string
                    (Cell.outcome_to_json
                       (Runner.run ~budget_nodes:200_000 cell)) )
              in
              let _, want = run Cc_wb in
              List.iter
                (fun model ->
                  let key, got = run model in
                  Alcotest.(check string) key want got)
                [ Dsm; Cc_wt ])
            [ Tso; Pso ])
        faults)
    Locks.Zoo.(all @ two_process @ recoverable @ abortable)

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

(* At fuel 0 every search would prune each branch at its first spin and
   cache its cell as verified (recoverable-tas-naive with one crash, a
   violation at fuel 6). [run] refuses the fuel before it looks anything
   up or caches anything. *)
let test_fuel_below_one_rejected () =
  let cache = Cache.in_memory () in
  let plan =
    {
      Driver.grid = parse_grid_exn "lock=recoverable-tas-naive n=2 crashes=1";
      brackets = [];
    }
  in
  Alcotest.check_raises "fuel 0 rejected"
    (Invalid_argument "Driver.run: spin_fuel must be >= 1") (fun () ->
      ignore (Driver.run ~spin_fuel:0 ~cache plan));
  Alcotest.(check int) "nothing cached" 0 (Cache.entries cache)

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

(* Adversary cells stop between construction rounds with a verify cell's
   partial verdicts: the wall-clock budget gives [Partial "millis"],
   which is never cached and which a bracket probe counts as the goal
   not reached; the stop flag gives [Partial "interrupted"]. *)
let test_adversary_millis_partial () =
  let cache = Cache.in_memory () in
  let plan =
    {
      Driver.grid = parse_grid_exn "kind=adversary lock=cascade n=64";
      brackets = [ parse_bracket_exn "min-n-fences k=2 lock=cascade" ];
    }
  in
  let r = Driver.run ~max_millis:0 ~cache plan in
  (match r.Driver.cells with
  | [ { outcome; _ } ] ->
      Alcotest.(check string) "time-limited partial" "partial:millis"
        (Cell.verdict_to_string outcome.Cell.verdict)
  | _ -> Alcotest.fail "expected one cell");
  Alcotest.(check (list (option int))) "no probe reached k" [ None ]
    (List.map (fun b -> b.Driver.answer) r.Driver.brackets);
  Alcotest.(check int) "wall-clock outcomes never cached" 0
    (Cache.entries cache)

let test_adversary_stop_flag () =
  let cell = List.hd (parse_grid_exn "kind=adversary lock=cascade n=64") in
  let o = Runner.run ~stop:(Atomic.make true) ~budget_nodes:1 cell in
  Alcotest.(check string) "interrupted" "partial:interrupted"
    (Cell.verdict_to_string o.Cell.verdict)

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

(* Domains get increasing ids, so the id of a fresh domain tells how
   many were spawned since the last one. *)
let fresh_domain_id () =
  (Domain.join (Domain.spawn (fun () -> Domain.self ())) :> int)

(* Once [stop] is set no search starts, but every task still takes what
   the cache knows: over a cache that answers the whole plan, the
   interrupted report carries every grid cell and the bracket's answer,
   and no worker domain is started. *)
let test_stop_keeps_cached_cells () =
  let cache = Cache.in_memory () in
  let plan =
    {
      Driver.grid = parse_grid_exn small_grid;
      brackets =
        [ parse_bracket_exn "max-exhaustive-n lock=ticket lo=2 hi=4" ];
    }
  in
  let cold = Driver.run ~max_nodes:100_000 ~cache plan in
  let stop = Atomic.make true in
  let before = fresh_domain_id () in
  let r = Driver.run ~jobs:2 ~max_nodes:100_000 ~stop ~cache plan in
  Alcotest.(check int) "no domain started" (before + 1) (fresh_domain_id ());
  Alcotest.(check bool) "interrupted" true r.Driver.interrupted;
  Alcotest.(check int) "nothing ran" 0 r.Driver.executed;
  Alcotest.(check int) "every grid cell reported"
    (List.length cold.Driver.cells)
    (List.length r.Driver.cells);
  Alcotest.(check bool) "every cell from the cache" true
    (List.for_all (fun c -> c.Driver.from_cache) r.Driver.cells);
  let outcomes (res : Driver.result) =
    List.map (fun c -> (Cell.key c.Driver.cell, c.Driver.outcome)) res.cells
  in
  Alcotest.(check bool) "the cold run's outcomes" true
    (outcomes cold = outcomes r);
  Alcotest.(check (list (option int))) "the bracket answered from the cache"
    (List.map (fun b -> b.Driver.answer) cold.Driver.brackets)
    (List.map (fun b -> b.Driver.answer) r.Driver.brackets)

(* A bracket's base cell goes through the grid's field table: every grid
   field but [kind], which the goal sets, with one value each. *)
let test_bracket_takes_grid_fields () =
  let fields =
    "lock=recoverable-tas n=3 model=dsm ord=pso pass=2 crashes=1 aborts=0 \
     csem=flush store=bitstate:20:3 por=off"
  in
  let b = parse_bracket_exn ("min-crashes-refute " ^ fields ^ " lo=1 hi=2") in
  (match parse_grid_exn fields with
  | [ cell ] ->
      Alcotest.(check string) "base = the one-cell grid" (Cell.key cell)
        (Cell.key b.Driver.base)
  | _ -> Alcotest.fail "expected a one-cell grid");
  Alcotest.(check (pair int int)) "bounds" (1, 2) (b.Driver.lo, b.Driver.hi);
  List.iter
    (fun spec ->
      match Driver.parse_bracket spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "bracket %S accepted" spec)
    [
      "max-exhaustive-n lock=tas n=2,3";
      "max-exhaustive-n lock=tas n=2-3";
      "max-exhaustive-n lock=tas,ticket";
      "max-exhaustive-n lock=tas model=dsm,cc-wb";
      "max-exhaustive-n lock=tas hi=4,5";
      "max-exhaustive-n kind=verify lock=tas";
      "max-exhaustive-n lock=tas n=2 n=3";
    ];
  match Driver.parse_grid "lock=tas lock=ticket" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "grid field given twice accepted"

(* The cell a bracket probes at point [x] (Driver's own rule). *)
let probe_cell (spec : Driver.bracket_spec) x =
  match spec.Driver.goal with
  | Driver.Min_n_fences _ | Driver.Max_exhaustive_n ->
      { spec.Driver.base with Cell.n = x }
  | Driver.Min_crashes_refute -> { spec.Driver.base with Cell.max_crashes = x }
  | Driver.Min_aborts_refute -> { spec.Driver.base with Cell.max_aborts = x }

(* The model axis makes every verify search appear twice in the grid;
   each runs once and both cells get its outcome, at any job count. The
   crash bracket's probes never meet a grid cell; the ticket bracket's
   probes n=2 and n=3 are grid searches and n=4 is not, so depending on
   the schedule a probe runs a grid search, waits on one or reuses one.
   Each distinct search still runs exactly once. *)
let test_jobs_report_identical () =
  let grid = parse_grid_exn (small_grid ^ " model=dsm,cc-wb") in
  let plan =
    {
      Driver.grid = grid;
      brackets =
        [
          parse_bracket_exn
            "min-crashes-refute lock=recoverable-tas-naive lo=0 hi=3";
          parse_bracket_exn "max-exhaustive-n lock=ticket lo=2 hi=4";
        ];
    }
  in
  let distinct keys = List.length (List.sort_uniq String.compare keys) in
  let grid_keys = List.map Cell.search_key grid in
  let searches = distinct grid_keys in
  let run jobs =
    let cache = Cache.in_memory () in
    let r = Driver.run ~jobs ~max_nodes:100_000 ~cache plan in
    let probe_keys =
      List.concat_map
        (fun (b : Driver.bracket_result) ->
          List.map
            (fun (x, _) -> Cell.search_key (probe_cell b.Driver.spec x))
            b.Driver.probed)
        r.Driver.brackets
    in
    Alcotest.(check int)
      (Printf.sprintf "jobs=%d: one run per distinct search key" jobs)
      (distinct (grid_keys @ probe_keys))
      r.Driver.executed;
    Alcotest.(check int)
      (Printf.sprintf "jobs=%d: the other model's cells shared" jobs)
      (List.length grid - searches) r.Driver.shared;
    (report_string r, (r.Driver.executed, r.Driver.shared, r.Driver.hits))
  in
  let seq, seq_counts = run 1 in
  List.iter
    (fun jobs ->
      let report, counts = run jobs in
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d report byte-equal to jobs=1" jobs)
        seq report;
      Alcotest.(check (triple int int int))
        (Printf.sprintf "jobs=%d executed/shared/hits equal to jobs=1" jobs)
        seq_counts counts)
    [ 3; 8 ]

(* Each search's span is stamped on the worker that ran it, on that
   worker's lane, so the spans of one lane never overlap. *)
let test_cell_spans_per_worker () =
  let sink, events = Obs.Sink.memory () in
  let obs = Obs.Telemetry.create ~sinks:[ sink ] () in
  let cache = Cache.in_memory () in
  let jobs = 2 in
  let r =
    Driver.run ~jobs ~max_nodes:100_000 ~obs ~cache
      {
        Driver.grid = parse_grid_exn small_grid;
        brackets =
          [ parse_bracket_exn "max-exhaustive-n lock=ticket lo=2 hi=4" ];
      }
  in
  let lanes = Hashtbl.create 4 in
  List.iter
    (fun (e : Obs.Event.t) ->
      let lane = Option.value ~default:[] (Hashtbl.find_opt lanes e.tid) in
      match e.payload with
      | Obs.Event.Span_begin ("campaign.cell", _) ->
          Hashtbl.replace lanes e.tid ((e.ts_us, -1) :: lane)
      | Obs.Event.Span_end "campaign.cell" -> (
          match lane with
          | (ts0, -1) :: rest ->
              Hashtbl.replace lanes e.tid ((ts0, e.ts_us) :: rest)
          | _ -> Alcotest.failf "tid %d: span end without a begin" e.tid)
      | _ -> ())
    (events ());
  let spans = Hashtbl.fold (fun _ l n -> n + List.length l) lanes 0 in
  Alcotest.(check int) "one span per search" r.Driver.executed spans;
  Hashtbl.iter
    (fun tid lane ->
      if tid < 0 || tid >= jobs then
        Alcotest.failf "span on tid %d, not a worker index" tid;
      let rec disjoint = function
        | (a0, a1) :: ((b0, _) :: _ as rest) ->
            if b0 < a1 then
              Alcotest.failf "tid %d: spans [%d, %d] and [%d, ...] overlap"
                tid a0 a1 b0;
            disjoint rest
        | _ -> ()
      in
      disjoint (List.sort compare lane))
    lanes

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
    Alcotest.test_case "every cell runs once at the cap" `Quick
      test_one_search_at_cap;
    Alcotest.test_case "verify searches ignore the model" `Quick
      test_search_ignores_model;
    Alcotest.test_case "cap-partial cached and reused by budget" `Quick
      test_partial_at_cap_cached_and_reused;
    Alcotest.test_case "cache entries keyed by spin fuel" `Quick
      test_cache_keyed_by_fuel;
    Alcotest.test_case "spin fuel below 1 rejected" `Quick
      test_fuel_below_one_rejected;
    Alcotest.test_case "time-limited partials never cached" `Quick
      test_millis_partial_never_cached;
    Alcotest.test_case "adversary cells honour the wall-clock budget" `Quick
      test_adversary_millis_partial;
    Alcotest.test_case "adversary cells honour the stop flag" `Quick
      test_adversary_stop_flag;
    Alcotest.test_case "stop flag: partial report, nothing poisoned" `Quick
      test_stop_flag_interrupts;
    Alcotest.test_case "stop flag: cached cells still reported" `Quick
      test_stop_keeps_cached_cells;
    Alcotest.test_case "brackets take the grid's fields, one value each"
      `Quick test_bracket_takes_grid_fields;
    Alcotest.test_case "report identical across job counts" `Quick
      test_jobs_report_identical;
    Alcotest.test_case "cell spans never overlap on one worker lane" `Quick
      test_cell_spans_per_worker;
    Alcotest.test_case "warm re-run: >=95% hits, 10x faster, identical"
      `Quick test_warm_rerun_fast_hits_identical;
    Alcotest.test_case "bracket beats the dense sweep" `Quick
      test_bracket_beats_dense_sweep;
    Alcotest.test_case "fault-budget and exhaustion frontiers" `Quick
      test_refute_brackets;
    Alcotest.test_case "report schema validation" `Quick
      test_validate_report_rejects;
  ]
