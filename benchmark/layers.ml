(* The traced run behind the per-layer metrics. One workload runs once with
   an in-memory telemetry hub (the explore.* / adversary.* / campaign.*
   spans and counters the libraries already emit); then each layer it
   exercises is timed from outside, through public functions, on a
   seeded corpus. Nothing here reaches into library internals.

   For the two explorer workloads the layer costs are rolled up into a
   cost ledger: layer cost x calls per explored state, summed, against
   the measured ns per state. What no public call can time — the private
   seen-table probe of the sequential engine, sleep-set filtering,
   singleton-ample validation, DFS bookkeeping — is the residual, which
   is reported as its own metric so the parts always add up. *)

open Tsim

type metric = { name : string; unit_ : string; value : float }

(* Per-layer names carry the workload's tag: one traced run covers all. *)
let metric ~tag name unit_ value = { name = tag ^ "." ^ name; unit_; value }

type result = {
  metrics : metric list;
  events : Obs.Event.t list;  (** telemetry of the traced workload run *)
  wall_s : float;  (** the traced workload run alone *)
  checked : int;  (** answers compared with the known answer *)
  ok : bool;  (** every compared answer matched *)
}

(* --- reading the telemetry --------------------------------------------- *)

type span = { sname : string; dur_us : int; self_us : int }

(* Pair span begin/end events per lane; a span's self time is its duration
   minus that of the spans directly nested in it. *)
let spans events =
  let stacks = Hashtbl.create 4 in
  let out = ref [] in
  List.iter
    (fun (e : Obs.Event.t) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks e.Obs.Event.tid) in
      match e.Obs.Event.payload with
      | Obs.Event.Span_begin (name, _) ->
          Hashtbl.replace stacks e.Obs.Event.tid ((name, e.Obs.Event.ts_us, ref 0) :: stack)
      | Obs.Event.Span_end name -> (
          match stack with
          | (n, t0, children) :: rest when n = name ->
              let dur = e.Obs.Event.ts_us - t0 in
              out := { sname = n; dur_us = dur; self_us = dur - !children } :: !out;
              (match rest with (_, _, c) :: _ -> c := !c + dur | [] -> ());
              Hashtbl.replace stacks e.Obs.Event.tid rest
          | _ -> ())
      | _ -> ())
    events;
  List.rev !out

let spans_named events name = List.filter (fun s -> s.sname = name) (spans events)

let last_counter events name =
  List.fold_left
    (fun acc (e : Obs.Event.t) ->
      match e.Obs.Event.payload with
      | Obs.Event.Counter (n, v) when n = name -> float_of_int v
      | _ -> acc)
    0.0 events

let gauges events name =
  List.filter_map
    (fun (e : Obs.Event.t) ->
      match e.Obs.Event.payload with
      | Obs.Event.Gauge (n, v) when n = name -> Some v
      | _ -> None)
    events

(* Run [f] against a fresh in-memory hub; returns its result, the events,
   and the wall seconds of [f] alone. *)
let traced f =
  let sink, events = Obs.Sink.memory () in
  let obs = Obs.Telemetry.create ~sinks:[ sink ] () in
  let wall, r = Stats.timed (fun () -> f obs) in
  Obs.Telemetry.close obs;
  (r, events (), wall)

(* --- machine-level layers on a random-walk corpus ---------------------- *)

(* Apply [mv] and roll it back; [false] if it raised (exclusion, spin
   exhaustion, illegal move), which keeps it out of the timed corpus. *)
let applies m mv =
  let mark = Machine.Journal.mark m in
  match Mcheck.Explore.apply m mv with
  | () ->
      Machine.Journal.undo_to m mark;
      true
  | exception (Machine.Exclusion_violation _ | Prog.Spin_exhausted _ | Invalid_argument _) ->
      Machine.Journal.undo_to m mark;
      false

(* A search machine as the explorer builds one: no trace, lean, journaled. *)
let search_machine cfg =
  let m = Machine.create cfg in
  Machine.set_lean m true;
  Machine.Journal.enable m;
  m

(* [size] states from seeded random walks of the workload's search space,
   each with the moves that apply cleanly there. *)
let corpus ~rng ~size ~max_crashes cfg =
  let states = ref [] and count = ref 0 in
  while !count < size do
    let m = search_machine cfg in
    let rec walk () =
      if !count < size then
        match List.filter (applies m) (Mcheck.Explore.enabled_moves ~max_crashes m) with
        | [] -> ()
        | moves ->
            states := (Machine.clone m, Array.of_list moves) :: !states;
            incr count;
            Mcheck.Explore.apply m (List.nth moves (Random.State.int rng (List.length moves)));
            walk ()
    in
    walk ()
  done;
  Array.of_list (List.rev !states)

type machine_costs = {
  apply_ns : float;
  minor_words_per_apply : float;
  fingerprint_fast_ns : float;
  fingerprint_full_ns : float;
  undo_ns_per_record : float;
  clone_us : float;
  create_us : float;
  enabled_moves_ns : float;
  footprint_ns : float;
  independent_ns : float;
}

(* One (state, move) pair per op. Each round clones a private machine per
   op and times each layer over all ops at once, so per-op costs far below
   the clock's resolution are measured over thousands of calls; the
   reported cost is the median over rounds. *)
let machine_costs ~rng ~size ~rounds ~max_crashes cfg =
  let states = corpus ~rng ~size ~max_crashes cfg in
  let ops =
    Array.concat
      (Array.to_list (Array.mapi (fun i (_, moves) -> Array.map (fun mv -> (i, mv)) moves) states))
  in
  let nops = Array.length ops in
  let per_op t = t *. 1e9 /. float_of_int nops in
  let sink = ref 0 in
  let scratch = Mcheck.Footprint.make_scratch () in
  let round () =
    let ms = Array.make nops (fst states.(0)) in
    let t_clone, () =
      Stats.timed (fun () ->
          Array.iteri (fun k (i, _) -> ms.(k) <- Machine.clone (fst states.(i))) ops)
    in
    Array.iter Machine.Journal.enable ms;
    let marks = Array.map Machine.Journal.mark ms in
    let t_full, () =
      Stats.timed (fun () -> Array.iter (fun m -> sink := !sink lxor Machine.fingerprint m) ms)
    in
    let t_enabled, () =
      Stats.timed (fun () ->
          Array.iter (fun m -> ignore (Mcheck.Explore.enabled_moves ~max_crashes m)) ms)
    in
    let t_foot, () =
      Stats.timed (fun () ->
          Array.iteri (fun k (_, mv) -> Mcheck.Footprint.of_move_into scratch ms.(k) mv) ops)
    in
    let w0 = Gc.minor_words () in
    let t_apply, () =
      Stats.timed (fun () -> Array.iteri (fun k (_, mv) -> Mcheck.Explore.apply ms.(k) mv) ops)
    in
    let words = Gc.minor_words () -. w0 in
    (* a fingerprint read is a few ns: repeat it so the batch is long *)
    let reps = 16 in
    let t_fast, () =
      Stats.timed (fun () ->
          for _ = 1 to reps do
            Array.iter (fun m -> sink := !sink lxor Machine.fingerprint_fast m) ms
          done)
    in
    let records = Array.fold_left (fun a m -> a + Machine.Journal.records m) 0 ms in
    let t_undo, () =
      Stats.timed (fun () -> Array.iteri (fun k m -> Machine.Journal.undo_to m marks.(k)) ms)
    in
    {
      apply_ns = per_op t_apply;
      minor_words_per_apply = words /. float_of_int nops;
      fingerprint_fast_ns = per_op t_fast /. float_of_int reps;
      fingerprint_full_ns = per_op t_full;
      undo_ns_per_record = t_undo *. 1e9 /. float_of_int (max 1 records);
      clone_us = per_op t_clone /. 1e3;
      enabled_moves_ns = per_op t_enabled;
      footprint_ns = per_op t_foot;
      create_us = 0.0;
      independent_ns = 0.0;
    }
  in
  let rs = List.init rounds (fun _ -> round ()) in
  let med f = Stats.median (List.map f rs) in
  (* independence is checked between moves enabled in the same state, as
     the sleep-set filter does *)
  let pairs =
    Array.concat
      (Array.to_list
         (Array.map
            (fun (m, moves) ->
              let fps = Array.map (Mcheck.Footprint.of_move m) moves in
              let n = Array.length fps in
              Array.concat
                (List.init n (fun i ->
                     Array.init (n - 1 - i) (fun j -> (fps.(i), fps.(i + j + 1))))))
            states))
  in
  let indep_reps = 16 in
  let t_indep =
    Stats.median_time ~rounds (fun () ->
        for _ = 1 to indep_reps do
          Array.iter (fun (a, b) -> if Mcheck.Footprint.independent a b then incr sink) pairs
        done)
  in
  let creates = 64 in
  let t_create =
    Stats.median_time ~rounds (fun () ->
        for _ = 1 to creates do
          ignore (Sys.opaque_identity (Machine.create cfg))
        done)
  in
  ignore (Sys.opaque_identity !sink);
  {
    apply_ns = med (fun c -> c.apply_ns);
    minor_words_per_apply = med (fun c -> c.minor_words_per_apply);
    fingerprint_fast_ns = med (fun c -> c.fingerprint_fast_ns);
    fingerprint_full_ns = med (fun c -> c.fingerprint_full_ns);
    undo_ns_per_record = med (fun c -> c.undo_ns_per_record);
    clone_us = med (fun c -> c.clone_us);
    enabled_moves_ns = med (fun c -> c.enabled_moves_ns);
    footprint_ns = med (fun c -> c.footprint_ns);
    create_us = t_create *. 1e6 /. float_of_int creates;
    independent_ns = t_indep *. 1e9 /. float_of_int (max 1 (indep_reps * Array.length pairs));
  }

(* Fpstore.visit at the workload's final occupancy: the store is sized as
   the explorer sizes it, filled with [entries] random fingerprints, then
   probed half with stored and half with fresh ones. *)
let store_visit_ns ~rng ~entries ~rounds =
  let st = Mcheck.Fpstore.create ~mode:Config.Store_exact ~expected:Workloads.max_nodes in
  let fp () = Int64.to_int (Random.State.bits64 rng) in
  let stored = Array.init entries (fun _ -> fp ()) in
  Array.iter (fun f -> ignore (Mcheck.Fpstore.visit st ~fp:f ~cover:max_int)) stored;
  let probes = 50_000 in
  let t =
    Stats.median
      (List.init rounds (fun _ ->
           let fps =
             Array.init probes (fun i ->
                 if i land 1 = 0 then stored.(Random.State.int rng entries) else fp ())
           in
           let covers = Array.init probes (fun _ -> Random.State.bits rng) in
           fst
             (Stats.timed (fun () ->
                  Array.iteri
                    (fun i f -> ignore (Mcheck.Fpstore.visit st ~fp:f ~cover:covers.(i)))
                    fps))))
  in
  (t *. 1e9 /. float_of_int probes, Mcheck.Fpstore.capacity st)

(* --- per-workload ledgers ---------------------------------------------- *)

let explorer ~tag ~rng ~smoke ~check (v : Workloads.verify) =
  let rss0 = Stats.rss_kb () in
  let r, events, wall = traced (fun obs -> Workloads.explore ~obs v) in
  let rss_peak = Stats.proc_status_kb "VmHWM" in
  let ok = check (Workloads.Explored r) in
  let s = r.Mcheck.Explore.stats in
  let nodes = float_of_int r.Mcheck.Explore.nodes in
  let per x = float_of_int x /. nodes in
  (* domain-ns per state: a parallel search spends [domains] x wall *)
  let ns_per_state = wall *. 1e9 *. float_of_int s.Mcheck.Explore.domains_used /. nodes in
  let entries = s.Mcheck.Explore.seen_entries in
  Prog.default_spin_fuel := Workloads.spin_fuel;
  let cfg = { v.Workloads.cfg with Config.record_trace = false } in
  let rounds = if smoke then 1 else 9 in
  let c =
    machine_costs ~rng ~size:(if smoke then 32 else 2048) ~rounds
      ~max_crashes:v.Workloads.max_crashes cfg
  in
  (* calls per explored state, read off the explorer's own tallies: every
     admitted non-root state and every deduplicated revisit is one
     successor visit (one fingerprint read, one seen-store probe); fused
     singleton-ample steps apply without a visit; each node and each chain
     step lists its enabled moves; each chain step takes one footprint *)
  let visits = r.Mcheck.Explore.nodes - 1 + s.Mcheck.Explore.dedup_hits in
  let chain_steps = s.Mcheck.Explore.ample_chains + s.Mcheck.Explore.ample_fused in
  let parts =
    [ ("apply", c.apply_ns *. per (visits + s.Mcheck.Explore.ample_fused));
      ("fingerprint", c.fingerprint_fast_ns *. per visits);
      ("undo", c.undo_ns_per_record *. per s.Mcheck.Explore.undo_records);
      ("enabled_moves", c.enabled_moves_ns *. per (r.Mcheck.Explore.nodes + chain_steps));
      ("footprint", c.footprint_ns *. per chain_steps) ]
  in
  let store =
    if v.Workloads.domains > 1 then begin
      let visit_ns, capacity = store_visit_ns ~rng ~entries ~rounds:(if smoke then 1 else 5) in
      (* an exact-mode slot is two 8-byte words *)
      Some (visit_ns, float_of_int (16 * capacity) /. float_of_int (max 1 entries))
    end
    else None
  in
  let parts =
    match store with Some (visit_ns, _) -> parts @ [ ("store", visit_ns *. per visits) ] | None -> parts
  in
  let m = metric ~tag in
  let explore_rows =
    [ m "explore.states" "count" nodes;
      m "explore.ns_per_state" "ns" ns_per_state;
      m "explore.dedup_hits_per_state" "1/state" (per s.Mcheck.Explore.dedup_hits);
      m "explore.sleep_prunes_per_state" "1/state" (per s.Mcheck.Explore.sleep_prunes);
      m "explore.ample_fused_per_state" "1/state" (per s.Mcheck.Explore.ample_fused);
      m "explore.undo_records_per_state" "1/state" (per s.Mcheck.Explore.undo_records);
      m "explore.journal_peak" "count" (float_of_int s.Mcheck.Explore.journal_peak);
      m "explore.seen_entries" "count" (float_of_int entries);
      m "explore.rss_bytes_per_entry" "B"
        (float_of_int ((rss_peak - rss0) * 1024) /. float_of_int (max 1 entries)) ]
  in
  let parallel_rows =
    if v.Workloads.domains = 1 then []
    else
      let dn = List.map float_of_int s.Mcheck.Explore.domain_nodes in
      let mean = List.fold_left ( +. ) 0.0 dn /. float_of_int (max 1 (List.length dn)) in
      [ m "explore.bfs_seed_s" "s"
          (List.fold_left (fun a sp -> a +. (float_of_int sp.dur_us /. 1e6)) 0.0
             (spans_named events "explore.bfs_seed"));
        m "explore.steals" "count" (float_of_int s.Mcheck.Explore.steals);
        m "explore.merge_stall_s" "s" (float_of_int s.Mcheck.Explore.merge_stall_us /. 1e6);
        m "explore.domain_imbalance" "ratio" (List.fold_left max 0.0 dn /. mean) ]
  in
  let layer_rows =
    [ m "tsim.apply_ns" "ns" c.apply_ns;
      m "tsim.minor_words_per_apply" "words" c.minor_words_per_apply;
      m "tsim.fingerprint_fast_ns" "ns" c.fingerprint_fast_ns;
      m "tsim.fingerprint_full_ns" "ns" c.fingerprint_full_ns;
      m "tsim.undo_ns_per_record" "ns" c.undo_ns_per_record;
      m "tsim.clone_us" "us" c.clone_us;
      m "tsim.create_us" "us" c.create_us;
      m "por.enabled_moves_ns" "ns" c.enabled_moves_ns;
      m "por.footprint_ns" "ns" c.footprint_ns;
      m "por.independent_ns" "ns" c.independent_ns ]
    @
    match store with
    | Some (visit_ns, bytes) ->
        [ m "store.visit_ns" "ns" visit_ns; m "store.bytes_per_entry" "B" bytes ]
    | None -> []
  in
  let ledger_rows = List.map (fun (p, v) -> m ("ledger." ^ p ^ "_ns_per_state") "ns" v) parts in
  let residual = ns_per_state -. List.fold_left (fun a (_, v) -> a +. v) 0.0 parts in
  {
    metrics =
      explore_rows @ parallel_rows @ layer_rows @ ledger_rows
      @ [ m "explore.residual_ns_per_state" "ns" residual ];
    events;
    wall_s = wall;
    checked = 1;
    ok;
  }

let campaign ~tag ~smoke ~work ~check plan cache =
  let r, events, wall = traced (fun obs -> Workloads.run ~obs (Workloads.Campaign { plan; cache })) in
  let ok = check r in
  let cells = spans_named events "campaign.cell" in
  let cell_ms = List.map (fun s -> float_of_int s.dur_us /. 1e3) cells in
  let busy_s = List.fold_left ( +. ) 0.0 cell_ms /. 1e3 in
  (* distinct answers: grid cells plus bracket probe points, by key *)
  let res = match r with Workloads.Campaigned res -> res | _ -> assert false in
  let keys = Hashtbl.create 128 in
  List.iter
    (fun (c : Campaign.Driver.cell_result) ->
      Hashtbl.replace keys (Campaign.Cell.key c.Campaign.Driver.cell) ())
    res.Campaign.Driver.cells;
  List.iter
    (fun (b : Campaign.Driver.bracket_result) ->
      let s = b.Campaign.Driver.spec in
      List.iter
        (fun (x, _) ->
          let base = s.Campaign.Driver.base in
          let cell =
            match s.Campaign.Driver.goal with
            | Campaign.Driver.Min_n_fences _ | Campaign.Driver.Max_exhaustive_n ->
                { base with Campaign.Cell.n = x }
            | Campaign.Driver.Min_crashes_refute -> { base with Campaign.Cell.max_crashes = x }
            | Campaign.Driver.Min_aborts_refute -> { base with Campaign.Cell.max_aborts = x }
          in
          Hashtbl.replace keys (Campaign.Cell.key cell) ())
        b.Campaign.Driver.probed)
    res.Campaign.Driver.brackets;
  let reps = if smoke then 1 else 5 in
  let resolve_s = Stats.median_time ~rounds:reps (fun () -> ignore (Workloads.campaign_plan ~smoke)) in
  (* the resume path: a warm re-run answered from the file the cold run
     filled, checked against the same known answer *)
  let warm_cache, _ = Campaign.Cache.open_file ~resume:true (Workloads.cache_path ~work) in
  let warm_s, warm =
    Fun.protect
      ~finally:(fun () -> Campaign.Cache.close warm_cache)
      (fun () -> Stats.timed (fun () -> Workloads.run_campaign ~cache:warm_cache plan))
  in
  let warm_ok = check (Workloads.Campaigned warm) in
  (* cache primitives on a file-backed cache of their own *)
  let outcomes =
    Array.of_list (List.map (fun (c : Campaign.Driver.cell_result) -> c.Campaign.Driver.outcome) res.Campaign.Driver.cells)
  in
  let n = if smoke then 20 else 1000 in
  let bench_cache, _ = Campaign.Cache.open_file ~resume:false (Filename.concat work "cache-bench.ndjson") in
  let add_s, find_s =
    Fun.protect
      ~finally:(fun () -> Campaign.Cache.close bench_cache)
      (fun () ->
        let key i = Printf.sprintf "bench-cell-%d" i in
        let add_s, () =
          Stats.timed (fun () ->
              for i = 0 to n - 1 do
                Campaign.Cache.add bench_cache (key i) outcomes.(i mod Array.length outcomes)
              done)
        in
        let find_s =
          Stats.median_time ~rounds:reps (fun () ->
              for i = 0 to n - 1 do
                ignore (Campaign.Cache.find bench_cache (key i))
              done)
        in
        (add_s, find_s))
  in
  let m = metric ~tag in
  {
    metrics =
      [ m "campaign.cell_ms_p50" "ms" (Stats.median cell_ms);
        m "campaign.cell_ms_max" "ms" (List.fold_left max 0.0 cell_ms);
        m "campaign.worker_busy_frac" "ratio" (busy_s /. (float_of_int Workloads.campaign_jobs *. wall));
        m "campaign.useful_ratio" "ratio"
          (float_of_int (Hashtbl.length keys) /. float_of_int (max 1 res.Campaign.Driver.executed));
        m "campaign.resolve_ms" "ms" (resolve_s *. 1e3);
        m "campaign.cache_find_us" "us" (find_s *. 1e6 /. float_of_int n);
        m "campaign.cache_add_us" "us" (add_s *. 1e6 /. float_of_int n);
        m "campaign.warm_ms" "ms" (warm_s *. 1e3) ];
    events;
    wall_s = wall;
    checked = 2;
    ok = ok && warm_ok;
  }

let adversary ~tag ~rng ~smoke ~check lock n =
  let r, events, wall = traced (fun obs -> Workloads.run ~obs (Workloads.Adversary { lock; n })) in
  let ok = check r in
  let heap_top_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  let c = match r with Workloads.Constructed c -> c | _ -> assert false in
  let mach = Adversary.Construction.machine c in
  let cfg = Machine.config mach in
  let tr = Execution.Trace.of_machine mach in
  let reps = if smoke then 1 else 5 in
  let replay_s, replayed =
    let replayed = ref 1 in
    let t =
      Stats.median_time ~rounds:reps (fun () ->
          let e = Execution.Erasure.erase cfg tr Ids.Pidset.empty in
          replayed := max 1 e.Execution.Erasure.replayed)
    in
    (t, !replayed)
  in
  let inset_s =
    Stats.median_time ~rounds:reps (fun () ->
        ignore (Analysis.Inset.check ~in3:false tr (Adversary.Construction.active c)))
  in
  (* Turán selection on a seeded random graph of the construction's order
     whose average degree d would leave the median independent set the
     run selected: |IS| = n / (d + 1) *)
  let is = gauges events "adversary.independent_set" in
  let d = if is = [] then 1.0 else max 0.0 ((float_of_int n /. Stats.median is) -. 1.0) in
  let g = Graphs.Graph.create (List.init n Fun.id) in
  let target = int_of_float (Float.round (float_of_int n *. d /. 2.0)) in
  let max_edges = n * (n - 1) / 2 in
  while Graphs.Graph.size g < min target max_edges do
    Graphs.Graph.add_edge g (Random.State.int rng n) (Random.State.int rng n)
  done;
  let turan_reps = if smoke then 1 else 20 in
  let turan_s =
    Stats.median_time ~rounds:reps (fun () ->
        for _ = 1 to turan_reps do
          ignore (Graphs.Turan.independent_set g)
        done)
  in
  let rounds = spans_named events "adversary.round" in
  let m = metric ~tag in
  {
    metrics =
      [ m "adversary.rounds" "count" (last_counter events "adversary.rounds");
        m "adversary.round_ms_p50" "ms"
          (Stats.median (List.map (fun s -> float_of_int s.self_us /. 1e3) rounds));
        m "adversary.regularize_ms" "ms"
          (List.fold_left (fun a s -> a +. (float_of_int s.dur_us /. 1e3)) 0.0
             (spans_named events "adversary.regularize"));
        m "adversary.erased" "count" (last_counter events "adversary.erased");
        m "adversary.fences_forced" "count" (last_counter events "adversary.fences_forced");
        m "adversary.heap_top_mb" "MB" heap_top_mb;
        m "trace.events" "count" (float_of_int (Execution.Trace.length tr));
        m "trace.replay_ns_per_event" "ns" (replay_s *. 1e9 /. float_of_int replayed);
        m "analysis.inset_check_ms" "ms" (inset_s *. 1e3);
        m "graphs.turan_us" "us" (turan_s *. 1e6 /. float_of_int turan_reps) ];
    events;
    wall_s = wall;
    checked = 1;
    ok;
  }

(* The traced run of workload [w]: inputs set up as for a sample, the run
   traced, its answer checked, its layers measured. *)
let run (w : Workloads.t) ~seed ~smoke ~dir ~work =
  let rng = Random.State.make [| seed; Hashtbl.hash w.Workloads.name |] in
  let check o = Workloads.check ~dir ~smoke w o in
  let tag = w.Workloads.tag in
  match Workloads.setup w ~smoke ~work with
  | Workloads.Verify v -> explorer ~tag ~rng ~smoke ~check v
  | Workloads.Campaign { plan; cache } -> campaign ~tag ~smoke ~work ~check plan cache
  | Workloads.Adversary { lock; n } -> adversary ~tag ~rng ~smoke ~check lock n
