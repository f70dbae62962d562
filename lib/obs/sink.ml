(* Sink implementations: null, in-memory, NDJSON stream, console
   reporter, Chrome trace-event exporter. *)

type t = {
  emit : Event.t -> unit;
  flush : unit -> unit;
  close : unit -> unit;
}

let null = { emit = ignore; flush = ignore; close = ignore }

let memory () =
  let events = ref [] in
  ( {
      emit = (fun e -> events := e :: !events);
      flush = ignore;
      close = ignore;
    },
    fun () -> List.rev !events )

let ndjson oc =
  {
    emit =
      (fun e ->
        output_string oc (Event.to_ndjson_line e);
        output_char oc '\n');
    flush = (fun () -> flush oc);
    close = (fun () -> flush oc);
  }

(* --- console ----------------------------------------------------------- *)

let console ?(oc = stderr) () =
  let counters : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let counter_order = ref [] in
  (* span aggregation: per name, (count, total_us, max_us); open spans
     per (pid, tid) as a stack *)
  let spans : (string, int * int * int) Hashtbl.t = Hashtbl.create 32 in
  let span_order = ref [] in
  let open_spans : (int * int, (string * int) list) Hashtbl.t =
    Hashtbl.create 8
  in
  let remember order name tbl =
    if not (Hashtbl.mem tbl name) then order := name :: !order
  in
  let emit (e : Event.t) =
    match e.Event.payload with
    | Event.Counter (n, v) ->
        remember counter_order n counters;
        Hashtbl.replace counters n v
    | Event.Gauge (n, v) ->
        remember counter_order n counters;
        Hashtbl.replace counters n (int_of_float v)
    | Event.Span_begin (n, _) ->
        let key = (e.Event.pid, e.Event.tid) in
        let stack =
          Option.value ~default:[] (Hashtbl.find_opt open_spans key)
        in
        Hashtbl.replace open_spans key ((n, e.Event.ts_us) :: stack)
    | Event.Span_end n -> (
        let key = (e.Event.pid, e.Event.tid) in
        match Hashtbl.find_opt open_spans key with
        | Some ((n', t0) :: rest) when n' = n ->
            Hashtbl.replace open_spans key rest;
            let dur = e.Event.ts_us - t0 in
            remember span_order n spans;
            let c, tot, mx =
              Option.value ~default:(0, 0, 0) (Hashtbl.find_opt spans n)
            in
            Hashtbl.replace spans n (c + 1, tot + dur, max mx dur)
        | _ -> () (* unmatched end: drop *))
    | Event.Instant _ -> ()
  in
  let close () =
    let pr fmt = Printf.fprintf oc fmt in
    if Hashtbl.length counters > 0 then begin
      pr "-- telemetry: counters --\n";
      List.iter
        (fun n -> pr "  %-40s %12d\n" n (Hashtbl.find counters n))
        (List.rev !counter_order)
    end;
    if Hashtbl.length spans > 0 then begin
      pr "-- telemetry: spans (count / total / max) --\n";
      List.iter
        (fun n ->
          let c, tot, mx = Hashtbl.find spans n in
          pr "  %-40s %6dx %9.3fms %9.3fms\n" n c
            (float_of_int tot /. 1000.)
            (float_of_int mx /. 1000.))
        (List.rev !span_order)
    end;
    Stdlib.flush oc
  in
  { emit; flush = (fun () -> Stdlib.flush oc); close }

(* --- live progress line ------------------------------------------------ *)

let progress ?(oc = stdout) ?(tty = true) () =
  let nodes = ref 0 in
  let nps = ref nan in
  let painted = ref false in
  let render () =
    let rate =
      if Float.is_nan !nps then ""
      else if !nps >= 1e6 then Printf.sprintf " | %.1fM nodes/s" (!nps /. 1e6)
      else Printf.sprintf " | %.0f nodes/s" !nps
    in
    Printf.sprintf "search: %d nodes%s" !nodes rate
  in
  let repaint () =
    let line = render () in
    if tty then begin
      (* rewrite in place, padded so a shrinking line leaves no tail *)
      let w = max (String.length line) 78 in
      Printf.fprintf oc "\r%-*s" w line;
      Stdlib.flush oc
    end
    else begin
      output_string oc line;
      output_char oc '\n';
      Stdlib.flush oc
    end;
    painted := true
  in
  let emit (e : Event.t) =
    match e.Event.payload with
    | Event.Counter ("explore.nodes", v) -> nodes := v
    | Event.Gauge ("explore.nodes_per_sec", v) -> nps := v
    | Event.Instant ("explore.heartbeat", _) -> repaint ()
    | _ -> ()
  in
  let close () =
    if !painted then begin
      if tty then output_char oc '\n';
      Stdlib.flush oc
    end
  in
  { emit; flush = (fun () -> Stdlib.flush oc); close }

(* --- chrome trace ------------------------------------------------------ *)

(* Shared by this sink and Execution.Chrome: render one trace event.
   Field order is fixed (name, cat, ph, ts, pid, tid, extras) so exports
   are byte-stable. *)
let chrome_event ~name ~cat ~ph ~ts ~pid ~tid extras =
  Json.Obj
    ([
       ("name", Json.String name);
       ("cat", Json.String cat);
       ("ph", Json.String ph);
       ("ts", Json.Int ts);
       ("pid", Json.Int pid);
       ("tid", Json.Int tid);
     ]
    @ extras)

let chrome_trace oc =
  let first = ref true in
  let last_ts = ref 0 in
  let open_spans : (int * int, (string * int) list) Hashtbl.t =
    Hashtbl.create 8
  in
  let put j =
    if !first then begin
      output_string oc "[\n";
      first := false
    end
    else output_string oc ",\n";
    output_string oc (Json.to_string j)
  in
  let emit (e : Event.t) =
    if e.Event.ts_us > !last_ts then last_ts := e.Event.ts_us;
    let ts = e.Event.ts_us and pid = e.Event.pid and tid = e.Event.tid in
    match e.Event.payload with
    | Event.Counter (n, v) ->
        put
          (chrome_event ~name:n ~cat:"counter" ~ph:"C" ~ts ~pid ~tid
             [ ("args", Json.Obj [ ("value", Json.Int v) ]) ])
    | Event.Gauge (n, v) ->
        put
          (chrome_event ~name:n ~cat:"gauge" ~ph:"C" ~ts ~pid ~tid
             [ ("args", Json.Obj [ ("value", Json.Float v) ]) ])
    | Event.Span_begin (n, args) ->
        let key = (pid, tid) in
        let stack =
          Option.value ~default:[] (Hashtbl.find_opt open_spans key)
        in
        Hashtbl.replace open_spans key ((n, ts) :: stack);
        put
          (chrome_event ~name:n ~cat:"span" ~ph:"B" ~ts ~pid ~tid
             [ ("args", Json.Obj args) ])
    | Event.Span_end n ->
        (let key = (pid, tid) in
         match Hashtbl.find_opt open_spans key with
         | Some ((n', _) :: rest) when n' = n ->
             Hashtbl.replace open_spans key rest
         | _ -> ());
        put (chrome_event ~name:n ~cat:"span" ~ph:"E" ~ts ~pid ~tid [])
    | Event.Instant (n, args) ->
        put
          (chrome_event ~name:n ~cat:"instant" ~ph:"i" ~ts ~pid ~tid
             [ ("s", Json.String "t"); ("args", Json.Obj args) ])
  in
  let close () =
    (* balance any spans left open so the file loads cleanly *)
    Hashtbl.iter
      (fun (pid, tid) stack ->
        List.iter
          (fun (n, _) ->
            put
              (chrome_event ~name:n ~cat:"span" ~ph:"E" ~ts:!last_ts ~pid
                 ~tid []))
          stack)
      open_spans;
    Hashtbl.reset open_spans;
    if !first then output_string oc "[\n";
    output_string oc "\n]\n";
    Stdlib.flush oc
  in
  { emit; flush = (fun () -> Stdlib.flush oc); close }
