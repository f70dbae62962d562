(* The telemetry layer (lib/obs) and its consumers: NDJSON
   round-trips, the JSON codec, hub/sink plumbing, the Chrome
   trace exporter (pinned by a golden file), the explorer's search
   stats + verdict contract, and the online/offline metrics
   cross-check (Machine counters vs Trace.Metrics.compute). *)

open Tsim
open Tsim.Prog

(* --- JSON codec --------------------------------------------------------- *)

let rec gen_json depth =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun i -> Obs.Json.Int i) small_signed_int;
        (* floats from ints: finite, and exact under %.17g round-trip *)
        map (fun i -> Obs.Json.Float (float_of_int i /. 8.)) small_signed_int;
        map (fun s -> Obs.Json.String s) string_printable;
      ]
  in
  if depth = 0 then scalar
  else
    frequency
      [
        (3, scalar);
        (1, map (fun l -> Obs.Json.List l)
              (list_size (int_bound 4) (gen_json (depth - 1))));
        (1,
         map
           (fun kvs -> Obs.Json.Obj kvs)
           (list_size (int_bound 4)
              (pair string_printable (gen_json (depth - 1)))));
      ]

let arb_json =
  QCheck.make ~print:Obs.Json.to_string (gen_json 3)

let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"Json.parse inverts Json.to_string"
    arb_json (fun j ->
      match Obs.Json.parse (Obs.Json.to_string j) with
      | Ok j' -> Obs.Json.equal j j'
      | Error e -> QCheck.Test.fail_reportf "parse error: %s" e)

let test_json_parse_strict () =
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parsed %S" s)
    [ ""; "{"; "[1,"; "tru"; "1 2"; "{\"a\":}"; "\"\\q\""; "[1,]"; "nan";
      "01" ];
  List.iter
    (fun (s, expect) ->
      match Obs.Json.parse s with
      | Ok j ->
          Alcotest.(check bool) (Printf.sprintf "parse %S" s) true
            (Obs.Json.equal j expect)
      | Error e -> Alcotest.failf "parse %S: %s" s e)
    [
      ("  null ", Obs.Json.Null);
      ("-12", Obs.Json.Int (-12));
      ("1.5e2", Obs.Json.Float 150.);
      ("\"a\\u00e9\\n\"", Obs.Json.String "a\xc3\xa9\n");
      ("[1,[true,{}]]",
       Obs.Json.(List [ Int 1; List [ Bool true; Obj [] ] ]));
      ("{\"k\":\"v\",\"n\":{}}",
       Obs.Json.(Obj [ ("k", String "v"); ("n", Obj []) ]));
    ]

(* --- event NDJSON round-trip -------------------------------------------- *)

let gen_args =
  QCheck.Gen.(list_size (int_bound 3) (pair string_printable (gen_json 1)))

let gen_payload =
  let open QCheck.Gen in
  oneof
    [
      map2 (fun n v -> Obs.Event.Counter (n, v)) string_printable
        small_signed_int;
      map2
        (fun n v -> Obs.Event.Gauge (n, float_of_int v /. 4.))
        string_printable small_signed_int;
      map2 (fun n a -> Obs.Event.Span_begin (n, a)) string_printable
        gen_args;
      map (fun n -> Obs.Event.Span_end n) string_printable;
      map2 (fun n a -> Obs.Event.Instant (n, a)) string_printable gen_args;
    ]

let gen_event =
  QCheck.Gen.(
    map
      (fun (ts, pid, tid, payload) ->
        { Obs.Event.ts_us = ts; pid; tid; payload })
      (quad (int_bound 1_000_000) (int_bound 8) (int_bound 32) gen_payload))

let payload_equal a b =
  match (a, b) with
  | Obs.Event.Counter (n, v), Obs.Event.Counter (n', v') -> n = n' && v = v'
  | Obs.Event.Gauge (n, v), Obs.Event.Gauge (n', v') -> n = n' && v = v'
  | Obs.Event.Span_begin (n, a), Obs.Event.Span_begin (n', a')
  | Obs.Event.Instant (n, a), Obs.Event.Instant (n', a') ->
      n = n' && Obs.Json.equal (Obs.Json.Obj a) (Obs.Json.Obj a')
  | Obs.Event.Span_end n, Obs.Event.Span_end n' -> n = n'
  | _ -> false

let event_equal (a : Obs.Event.t) (b : Obs.Event.t) =
  a.Obs.Event.ts_us = b.Obs.Event.ts_us
  && a.Obs.Event.pid = b.Obs.Event.pid
  && a.Obs.Event.tid = b.Obs.Event.tid
  && payload_equal a.Obs.Event.payload b.Obs.Event.payload

let prop_event_roundtrip =
  QCheck.Test.make ~count:500 ~name:"Event NDJSON codec round-trips"
    (QCheck.make ~print:Obs.Event.to_ndjson_line gen_event) (fun e ->
      match Obs.Event.of_ndjson_line (Obs.Event.to_ndjson_line e) with
      | Ok e' -> event_equal e e'
      | Error err -> QCheck.Test.fail_reportf "decode: %s" err)

(* --- hub and sinks ------------------------------------------------------ *)

let test_hub_plumbing () =
  let sink, events = Obs.Sink.memory () in
  let clock, advance = Obs.Telemetry.manual_clock () in
  let t = Obs.Telemetry.create ~clock ~pid:7 ~sinks:[ sink ] () in
  Alcotest.(check bool) "enabled" true (Obs.Telemetry.enabled t);
  Alcotest.(check bool) "null disabled" false
    (Obs.Telemetry.enabled Obs.Telemetry.null);
  let c = Obs.Telemetry.counter t "nodes" in
  Obs.Telemetry.incr c;
  Obs.Telemetry.add c 41;
  Alcotest.(check int) "counter local" 42 (Obs.Telemetry.value c);
  Alcotest.(check int) "bumps don't emit" 0 (List.length (events ()));
  advance 5;
  Obs.Telemetry.emit_counter t c;
  let x = Obs.Telemetry.span t "phase" (fun () -> advance 3; 17) in
  Alcotest.(check int) "span passes result" 17 x;
  Obs.Telemetry.gauge t "rate" 2.5;
  Obs.Telemetry.close t;
  let evs = events () in
  let names = List.map Obs.Event.name evs in
  Alcotest.(check (list string)) "event order"
    [ "nodes"; "phase"; "phase"; "rate"; "nodes" ]
    names;
  (match evs with
  | { Obs.Event.ts_us = 5; pid = 7; payload = Obs.Event.Counter ("nodes", 42); _ }
    :: _ ->
      ()
  | _ -> Alcotest.fail "first event should be the ts=5 counter snapshot");
  (* span begin/end carry the advanced clock *)
  match List.filteri (fun i _ -> i = 1 || i = 2) evs with
  | [ { Obs.Event.ts_us = 5; payload = Obs.Event.Span_begin _; _ };
      { Obs.Event.ts_us = 8; payload = Obs.Event.Span_end _; _ } ] ->
      ()
  | _ -> Alcotest.fail "span timestamps wrong"

let test_span_ends_on_exception () =
  let sink, events = Obs.Sink.memory () in
  let t = Obs.Telemetry.create ~sinks:[ sink ] () in
  (try Obs.Telemetry.span t "boom" (fun () -> failwith "x")
   with Failure _ -> ());
  match List.map (fun e -> e.Obs.Event.payload) (events ()) with
  | [ Obs.Event.Span_begin ("boom", _); Obs.Event.Span_end "boom" ] -> ()
  | _ -> Alcotest.fail "span not closed on exception"

(* The console table, read back word by word: a counter, a gauge (the
   last value set, printed as a float, not truncated to an int) and a
   span timed on a manual clock. *)
let test_console_sink_smoke () =
  let path = Filename.temp_file "console" ".txt" in
  let oc = open_out path in
  let clock, advance = Obs.Telemetry.manual_clock () in
  let t =
    Obs.Telemetry.create ~clock ~sinks:[ Obs.Sink.console ~oc () ] ()
  in
  let c = Obs.Telemetry.counter t "n" in
  Obs.Telemetry.add c 3;
  Obs.Telemetry.gauge t "explore.omission_prob" 0.5;
  Obs.Telemetry.gauge t "explore.omission_prob" 0.255;
  Obs.Telemetry.span t "s" (fun () -> advance 2500);
  Obs.Telemetry.close t;
  close_out oc;
  let words =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.map (fun l ->
           List.filter (( <> ) "") (String.split_on_char ' ' l))
    |> List.filter (( <> ) [])
  in
  Sys.remove path;
  Alcotest.(check (list (list string)))
    "table"
    [ [ "--"; "telemetry:"; "counters"; "--" ];
      [ "n"; "3" ];
      [ "--"; "telemetry:"; "gauges"; "--" ];
      [ "explore.omission_prob"; "0.255" ];
      [ "--"; "telemetry:"; "spans"; "(count"; "/"; "total"; "/"; "max)"; "--" ];
      [ "s"; "1x"; "2.500ms"; "2.500ms" ] ]
    words

let test_json_tables () =
  let kv =
    Obs.Json.pp_kv_table
      [ ("nodes", Obs.Json.Int 1500);
        ("verified", Obs.Json.Bool true);
        ("ns_per_node", Obs.Json.Float 411.25) ]
  in
  List.iter
    (fun needle ->
      if not (List.exists (fun l ->
          String.length l >= String.length needle
          && String.sub (String.trim l) 0 (min (String.length (String.trim l)) (String.length needle)) = needle)
          (String.split_on_char '\n' kv))
      then Alcotest.failf "kv table missing %S in %s" needle kv)
    [ "nodes"; "verified"; "ns_per_node" ];
  let rows =
    Obs.Json.pp_rows
      [ [ ("name", Obs.Json.String "a"); ("v", Obs.Json.Int 1) ];
        [ ("name", Obs.Json.String "b"); ("v", Obs.Json.Int 22) ];
      ]
  in
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' rows)
  in
  (* header + 2 rows *)
  Alcotest.(check int) "row count" 3 (List.length lines)

let test_chrome_sink_valid_json () =
  let buf = Filename.temp_file "obs" ".json" in
  let oc = open_out buf in
  let clock, advance = Obs.Telemetry.manual_clock () in
  let t =
    Obs.Telemetry.create ~clock ~sinks:[ Obs.Sink.chrome_trace oc ] ()
  in
  Obs.Telemetry.span t "outer" (fun () ->
      advance 10;
      Obs.Telemetry.gauge t "g" 1.5;
      Obs.Telemetry.instant t "i";
      advance 5);
  (* an unbalanced begin must be closed by the sink epilogue *)
  let c = Obs.Telemetry.counter t "n" in
  Obs.Telemetry.add c 2;
  Obs.Telemetry.emit_counter t c;
  Obs.Telemetry.close t;
  close_out oc;
  let s = In_channel.with_open_text buf In_channel.input_all in
  Sys.remove buf;
  match Obs.Json.parse s with
  | Error e -> Alcotest.failf "chrome sink output not JSON: %s" e
  | Ok (Obs.Json.List evs) ->
      Alcotest.(check bool) "nonempty" true (evs <> []);
      List.iter
        (fun ev ->
          match
            ( Obs.Json.member "ph" ev,
              Obs.Json.member "ts" ev,
              Obs.Json.member "pid" ev )
          with
          | Some (Obs.Json.String _), Some (Obs.Json.Int _),
            Some (Obs.Json.Int _) ->
              ()
          | _ -> Alcotest.failf "malformed trace event: %s"
                   (Obs.Json.to_string ev))
        evs;
      let phs =
        List.filter_map
          (fun ev ->
            match Obs.Json.member "ph" ev with
            | Some (Obs.Json.String p) -> Some p
            | _ -> None)
          evs
      in
      Alcotest.(check int) "begins balance ends"
        (List.length (List.filter (( = ) "B") phs))
        (List.length (List.filter (( = ) "E") phs))
  | Ok _ -> Alcotest.fail "chrome sink output is not a JSON array"

(* --- Chrome export of a machine trace: golden file ---------------------- *)

(* Must match suite_corpus.peterson (the fixture's provenance), with
   trace recording on. *)
let peterson_unfenced () =
  let layout = Layout.create () in
  let flag = Layout.array layout ~init:0 "flag" 2 in
  let turn = Layout.var layout ~init:0 "turn" in
  Config.make ~model:Config.Cc_wb ~check_exclusion:true ~n:2 ~layout
    ~record_trace:true
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

let golden_file = Filename.concat "corpus" "peterson_unfenced_tso.trace.json"

let exported_fixture () =
  let schedule =
    match
      Mcheck.Explore.load_schedule
        (Filename.concat "corpus" "peterson_unfenced_tso.sched")
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "fixture schedule: %s" e
  in
  let m, outcome = Mcheck.Explore.replay (peterson_unfenced ()) schedule in
  (match outcome with
  | Mcheck.Explore.R_exclusion _ -> ()
  | _ -> Alcotest.fail "fixture replay should end in the exclusion");
  Execution.Chrome.to_string (Execution.Trace.of_machine m)

let test_chrome_golden () =
  let got = exported_fixture () in
  (* bless mode: OBS_BLESS holds an absolute path to (re)write *)
  (match Sys.getenv_opt "OBS_BLESS" with
  | Some path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc got)
  | None -> ());
  if not (Sys.file_exists golden_file) then
    Alcotest.fail
      "golden file missing - regenerate with \
       OBS_BLESS=<abs path to test/corpus/peterson_unfenced_tso.trace.json>";
  let want = In_channel.with_open_bin golden_file In_channel.input_all in
  Alcotest.(check string) "byte-stable Chrome export" want got

let test_chrome_golden_is_valid_trace () =
  let got = exported_fixture () in
  match Obs.Json.parse got with
  | Error e -> Alcotest.failf "export is not valid JSON: %s" e
  | Ok (Obs.Json.List evs) ->
      Alcotest.(check bool) "nonempty" true (evs <> []);
      List.iter
        (fun ev ->
          match
            ( Obs.Json.member "ph" ev,
              Obs.Json.member "ts" ev,
              Obs.Json.member "pid" ev,
              Obs.Json.member "tid" ev )
          with
          | Some (Obs.Json.String _), Some (Obs.Json.Int _),
            Some (Obs.Json.Int _), Some (Obs.Json.Int _) ->
              ()
          | _ ->
              Alcotest.failf "malformed trace event: %s"
                (Obs.Json.to_string ev))
        evs;
      (* per-lane B/E nesting balances (the exporter closes dangling
         spans), and both simulated processes got a lane *)
      let lanes = Hashtbl.create 4 in
      List.iter
        (fun ev ->
          match (Obs.Json.member "ph" ev, Obs.Json.member "tid" ev) with
          | Some (Obs.Json.String ph), Some (Obs.Json.Int tid) ->
              let d = try Hashtbl.find lanes tid with Not_found -> 0 in
              if ph = "B" then Hashtbl.replace lanes tid (d + 1)
              else if ph = "E" then begin
                Alcotest.(check bool) "E under B" true (d > 0);
                Hashtbl.replace lanes tid (d - 1)
              end
          | _ -> ())
        evs;
      Hashtbl.iter
        (fun tid d ->
          Alcotest.(check int) (Printf.sprintf "lane %d balanced" tid) 0 d)
        lanes;
      Alcotest.(check bool) "two process lanes" true
        (Hashtbl.length lanes >= 2)
  | Ok _ -> Alcotest.fail "export is not a JSON array"

(* --- explorer: stats and verdicts --------------------------------------- *)

let dekker () =
  (Locks.Zoo.find "dekker" |> Option.get).Locks.Lock_intf.instantiate ~n:2

let dekker_cfg () =
  Locks.Harness.config_of_lock ~model:Config.Cc_wb (dekker ()) ~n:2

let test_explorer_stats () =
  let r = Mcheck.Explore.explore ~max_nodes:2_000_000 (dekker_cfg ()) in
  let s = r.Mcheck.Explore.stats in
  Alcotest.(check bool) "verified" true r.Mcheck.Explore.verified;
  Alcotest.(check bool) "dedup hits counted" true
    (s.Mcheck.Explore.dedup_hits > 0);
  Alcotest.(check bool) "sleep prunes counted" true
    (s.Mcheck.Explore.sleep_prunes > 0);
  Alcotest.(check bool) "ample chains counted" true
    (s.Mcheck.Explore.ample_chains > 0);
  Alcotest.(check bool) "table occupancy positive" true
    (s.Mcheck.Explore.seen_entries > 0
    && s.Mcheck.Explore.seen_entries <= r.Mcheck.Explore.nodes);
  Alcotest.(check int) "crash-free" 0 s.Mcheck.Explore.crashes_applied;
  Alcotest.(check int) "one domain" 1 s.Mcheck.Explore.domains_used;
  Alcotest.(check (list int)) "domain nodes"
    [ r.Mcheck.Explore.nodes ]
    s.Mcheck.Explore.domain_nodes

let test_explorer_stats_parallel () =
  let r =
    Mcheck.Explore.explore ~max_nodes:2_000_000 ~domains:2 (dekker_cfg ())
  in
  let s = r.Mcheck.Explore.stats in
  Alcotest.(check bool) "verified" true r.Mcheck.Explore.verified;
  Alcotest.(check int) "two domains" 2 s.Mcheck.Explore.domains_used;
  Alcotest.(check int) "one node share per domain" 2
    (List.length s.Mcheck.Explore.domain_nodes);
  Alcotest.(check int) "nodes = sum of domain nodes" r.Mcheck.Explore.nodes
    (List.fold_left ( + ) 0 s.Mcheck.Explore.domain_nodes);
  (* a space worker 0 finishes alone still reports both workers *)
  let tas =
    (Locks.Zoo.find "tas" |> Option.get).Locks.Lock_intf.instantiate ~n:1
  in
  let r =
    Mcheck.Explore.explore ~max_nodes:2_000_000 ~domains:2
      (Locks.Harness.config_of_lock ~model:Config.Cc_wb tas ~n:1)
  in
  let s = r.Mcheck.Explore.stats in
  Alcotest.(check bool) "tas n=1 verified" true r.Mcheck.Explore.verified;
  Alcotest.(check int) "tas n=1: two domains" 2 s.Mcheck.Explore.domains_used;
  Alcotest.(check int) "tas n=1: two node shares" 2
    (List.length s.Mcheck.Explore.domain_nodes);
  Alcotest.(check int) "tas n=1: nodes = sum of domain nodes"
    r.Mcheck.Explore.nodes
    (List.fold_left ( + ) 0 s.Mcheck.Explore.domain_nodes)

(* The CLI bug this release fixes: partial results must not share exit
   code 0 with verification. *)
let test_verdict_mapping () =
  let verified = Mcheck.Explore.explore ~max_nodes:2_000_000 (dekker_cfg ()) in
  let msg, code = Mcheck.Explore.render_verdict verified in
  Alcotest.(check int) "verified exit 0" 0 code;
  Alcotest.(check bool) "verified message" true
    (String.length msg >= 8 && String.sub msg 0 8 = "VERIFIED");
  let violated =
    Mcheck.Explore.explore ~max_nodes:2_000_000
      { (peterson_unfenced ()) with Config.record_trace = false }
  in
  let msg, code = Mcheck.Explore.render_verdict violated in
  Alcotest.(check int) "violation exit 1" 1 code;
  Alcotest.(check bool) "violation message" true
    (String.length msg >= 9 && String.sub msg 0 9 = "VIOLATION");
  let partial = Mcheck.Explore.explore ~max_nodes:40 (dekker_cfg ()) in
  Alcotest.(check bool) "partial, nothing found" true
    (partial.Mcheck.Explore.partial = Some `Nodes
    && partial.Mcheck.Explore.violations = []);
  let msg, code = Mcheck.Explore.render_verdict partial in
  Alcotest.(check int) "partial exit 3" 3 code;
  Alcotest.(check bool) "partial message" true
    (String.length msg >= 7 && String.sub msg 0 7 = "PARTIAL");
  Alcotest.(check bool) "partial names the budget" true
    (String.length msg > 0
    &&
    let re = "node budget" in
    let rec contains i =
      i + String.length re <= String.length msg
      && (String.sub msg i (String.length re) = re || contains (i + 1))
    in
    contains 0)

(* Attaching a hub must not change the search, and must emit heartbeat
   counters whose final snapshot matches the result. *)
let test_explorer_telemetry_agrees () =
  let bare = Mcheck.Explore.explore ~max_nodes:2_000_000 (dekker_cfg ()) in
  let sink, events = Obs.Sink.memory () in
  let obs = Obs.Telemetry.create ~sinks:[ sink ] () in
  let instrumented =
    Mcheck.Explore.explore ~max_nodes:2_000_000 ~obs (dekker_cfg ())
  in
  Obs.Telemetry.close obs;
  Alcotest.(check int) "same node count" bare.Mcheck.Explore.nodes
    instrumented.Mcheck.Explore.nodes;
  Alcotest.(check bool) "same verdict" bare.Mcheck.Explore.verified
    instrumented.Mcheck.Explore.verified;
  let final name =
    List.fold_left
      (fun acc e ->
        match e.Obs.Event.payload with
        | Obs.Event.Counter (n, v) when n = name -> Some v
        | _ -> acc)
      None (events ())
  in
  Alcotest.(check (option int)) "final nodes counter"
    (Some instrumented.Mcheck.Explore.nodes)
    (final "explore.nodes");
  Alcotest.(check (option int)) "final dedup counter"
    (Some instrumented.Mcheck.Explore.stats.Mcheck.Explore.dedup_hits)
    (final "explore.dedup_hits")

(* A search shorter than a second beats once, at its root (depth 0), so
   the depth gauge must come from the final flush: its last value is the
   result's max depth. *)
let test_max_depth_gauge () =
  let sink, events = Obs.Sink.memory () in
  let obs = Obs.Telemetry.create ~sinks:[ sink ] () in
  let r = Mcheck.Explore.explore ~max_nodes:2_000_000 ~obs (dekker_cfg ()) in
  Obs.Telemetry.close obs;
  let last =
    List.fold_left
      (fun acc e ->
        match e.Obs.Event.payload with
        | Obs.Event.Gauge ("explore.max_depth", v) -> Some v
        | _ -> acc)
      None (events ())
  in
  Alcotest.(check bool) "a deep search" true (r.Mcheck.Explore.max_depth > 1);
  Alcotest.(check (option (float 0.0))) "last explore.max_depth"
    (Some (float_of_int r.Mcheck.Explore.max_depth))
    last

(* The N of a [--progress] line. The line must read [search: N nodes],
   optionally followed by [ | R nodes/s] with R a whole number or a count
   of millions to one decimal ("1.2M"), and nothing else. *)
let progress_count line =
  let digits s =
    s <> "" && String.for_all (fun c -> '0' <= c && c <= '9') s
  in
  let rate_ok r =
    match String.split_on_char '.' r with
    | [ whole ] -> digits whole
    | [ whole; tenth ] ->
        digits whole
        && String.length tenth = 2
        && digits (String.sub tenth 0 1)
        && tenth.[1] = 'M'
    | _ -> false
  in
  match String.split_on_char ' ' line with
  | [ "search:"; n; "nodes" ] when digits n -> Some (int_of_string n)
  | [ "search:"; n; "nodes"; "|"; r; "nodes/s" ] when digits n && rate_ok r ->
      Some (int_of_string n)
  | _ -> None

(* The progress sink prints only counts the explorer keeps, at one domain
   and at two: every line is [search: N nodes], with the rate once there
   is one, and the last N is the result's node count. The hub's clock
   moves one second per read, so every 1024-node poll beats and the
   one-domain search prints a line with a rate at each. *)
let test_progress_line () =
  let n = 3 in
  let lock =
    (Locks.Zoo.find "tournament" |> Option.get).Locks.Lock_intf.instantiate ~n
  in
  let cfg = Locks.Harness.config_of_lock ~model:Config.Cc_wb lock ~n in
  List.iter
    (fun domains ->
      let path = Filename.temp_file "progress" ".txt" in
      let oc = open_out path in
      let now = ref 0 in
      let clock () =
        now := !now + 1_000_000;
        !now
      in
      let obs =
        Obs.Telemetry.create ~clock
          ~sinks:[ Obs.Sink.progress ~oc ~tty:false () ]
          ()
      in
      let r = Mcheck.Explore.explore ~max_nodes:2_000_000 ~domains ~obs cfg in
      Obs.Telemetry.close obs;
      close_out oc;
      let lines =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      Sys.remove path;
      let counts =
        List.map
          (fun l ->
            match progress_count l with
            | Some k -> k
            | None -> Alcotest.failf "d=%d: bad progress line %S" domains l)
          lines
      in
      Alcotest.(check bool) (Printf.sprintf "d=%d: verified" domains) true
        r.Mcheck.Explore.verified;
      (match List.rev counts with
      | last :: _ ->
          Alcotest.(check int)
            (Printf.sprintf "d=%d: last count = nodes" domains)
            r.Mcheck.Explore.nodes last
      | [] -> Alcotest.failf "d=%d: no progress line" domains);
      if domains = 1 then begin
        if List.length lines < 10 then
          Alcotest.failf "d=1: %d progress lines for %d nodes"
            (List.length lines) r.Mcheck.Explore.nodes;
        Alcotest.(check bool) "d=1: rates printed" true
          (List.exists (fun l -> String.ends_with ~suffix:"nodes/s" l) lines)
      end)
    [ 1; 2 ]

(* --- adversary telemetry ------------------------------------------------ *)

let test_adversary_telemetry () =
  let sink, events = Obs.Sink.memory () in
  let obs = Obs.Telemetry.create ~sinks:[ sink ] () in
  let n = 8 in
  let lock =
    (Locks.Zoo.find "tas" |> Option.get).Locks.Lock_intf.instantiate ~n
  in
  let c = Adversary.Construction.create ~obs lock ~n in
  let report = Adversary.Construction.run ~min_act:1 c in
  Obs.Telemetry.close obs;
  let evs = events () in
  let has name =
    List.exists (fun e -> Obs.Event.name e = name) evs
  in
  Alcotest.(check bool) "run span" true (has "adversary.run");
  Alcotest.(check bool) "round spans" true (has "adversary.round");
  Alcotest.(check bool) "erased counter" true (has "adversary.erased");
  let spans_balanced =
    List.fold_left
      (fun d e ->
        match e.Obs.Event.payload with
        | Obs.Event.Span_begin _ -> d + 1
        | Obs.Event.Span_end _ -> d - 1
        | _ -> d)
      0 evs
  in
  Alcotest.(check int) "spans balanced" 0 spans_balanced;
  (* the erased counter's final value covers every erasure the report saw *)
  let final_erased =
    List.fold_left
      (fun acc e ->
        match e.Obs.Event.payload with
        | Obs.Event.Counter ("adversary.erased", v) -> v
        | _ -> acc)
      0 evs
  in
  let report_erased =
    List.fold_left
      (fun acc (s : Adversary.Report.step) ->
        List.fold_left
          (fun acc (r : Adversary.Report.round) ->
            acc + Tsim.Ids.Pidset.cardinal r.Adversary.Report.erased)
          acc s.Adversary.Report.rounds)
      0 report.Adversary.Report.steps
  in
  Alcotest.(check bool) "erased counter covers report rounds" true
    (final_erased >= report_erased)

(* --- metrics cross-check (satellite 1) ---------------------------------- *)

(* Random schedules over real locks, all three memory models: the
   machine's online fence/RMR/critical counters must agree exactly with
   Trace.Metrics.compute over the recorded trace. *)
let prop_metrics_cross_check =
  QCheck.Test.make ~count:60
    ~name:"online counters = Metrics.compute on random schedules"
    (QCheck.triple
       (QCheck.oneofl [ Config.Dsm; Config.Cc_wt; Config.Cc_wb ])
       (QCheck.oneofl [ "tas"; "ticket"; "mcs" ])
       (QCheck.pair (QCheck.int_range 2 4) (QCheck.int_bound 10_000)))
    (fun (model, lock_name, (n, seed)) ->
      let lock =
        (Locks.Zoo.find lock_name |> Option.get).Locks.Lock_intf.instantiate
          ~n
      in
      let cfg =
        Locks.Harness.config_of_lock ~model ~max_passages:2 lock ~n
      in
      let cfg = { cfg with Config.record_trace = true } in
      let m = Machine.create cfg in
      ignore (Sched.random ~seed ~commit_bias:0.3 ~max_steps:4_000 m);
      let metrics = Execution.Metrics.compute (Execution.Trace.of_machine m) in
      match Execution.Metrics.cross_check m metrics with
      | [] -> true
      | fails ->
          QCheck.Test.fail_reportf "%s/%s n=%d seed=%d:\n  %s"
            (Config.mem_model_name model)
            lock_name n seed
            (String.concat "\n  " fails))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    Alcotest.test_case "JSON parser is strict" `Quick test_json_parse_strict;
    QCheck_alcotest.to_alcotest prop_event_roundtrip;
    Alcotest.test_case "hub plumbing / manual clock" `Quick
      test_hub_plumbing;
    Alcotest.test_case "span closes on exception" `Quick
      test_span_ends_on_exception;
    Alcotest.test_case "console sink smoke" `Quick test_console_sink_smoke;
    Alcotest.test_case "shared JSON table renderers" `Quick test_json_tables;
    Alcotest.test_case "chrome sink emits valid JSON" `Quick
      test_chrome_sink_valid_json;
    Alcotest.test_case "chrome export golden file" `Quick test_chrome_golden;
    Alcotest.test_case "chrome export well-formed" `Quick
      test_chrome_golden_is_valid_trace;
    Alcotest.test_case "explorer search stats" `Quick test_explorer_stats;
    Alcotest.test_case "explorer search stats (parallel)" `Quick
      test_explorer_stats_parallel;
    Alcotest.test_case "verdict/exit-code mapping" `Quick
      test_verdict_mapping;
    Alcotest.test_case "telemetry does not perturb the search" `Quick
      test_explorer_telemetry_agrees;
    Alcotest.test_case "max-depth gauge on a short search" `Quick
      test_max_depth_gauge;
    Alcotest.test_case "progress line: counts only" `Quick
      test_progress_line;
    Alcotest.test_case "adversary telemetry" `Quick
      test_adversary_telemetry;
    QCheck_alcotest.to_alcotest prop_metrics_cross_check;
  ]
