(* The telemetry hub. See telemetry.mli for the overhead contract. *)

type counter = { cname : string; mutable v : int }

type t = {
  sinks : Sink.t list;
  clock : unit -> int;
  pid : int;
  mutable counters : counter list;  (* registration order, reversed *)
  mutable closed : bool;
}

let null =
  { sinks = []; clock = (fun () -> 0); pid = 0; counters = []; closed = false }

let default_clock () =
  let t0 = Unix.gettimeofday () in
  fun () -> int_of_float ((Unix.gettimeofday () -. t0) *. 1e6)

let create ?clock ?(pid = 0) ~sinks () =
  let clock = match clock with Some c -> c | None -> default_clock () in
  { sinks; clock; pid; counters = []; closed = false }

let manual_clock () =
  let t = ref 0 in
  ((fun () -> !t), fun d -> t := !t + d)

let enabled t = t.sinks <> []
let now_us t = t.clock ()

let emit_at t ~ts ~tid payload =
  if t.sinks <> [] then begin
    let e = { Event.ts_us = ts; pid = t.pid; tid; payload } in
    List.iter (fun (s : Sink.t) -> s.Sink.emit e) t.sinks
  end

let emit t ~tid payload =
  if t.sinks <> [] then emit_at t ~ts:(t.clock ()) ~tid payload

(* --- counters ---------------------------------------------------------- *)

let counter t name =
  match List.find_opt (fun c -> c.cname = name) t.counters with
  | Some c -> c
  | None ->
      let c = { cname = name; v = 0 } in
      t.counters <- c :: t.counters;
      c

let incr c = c.v <- c.v + 1
let add c n = c.v <- c.v + n
let set c n = c.v <- n
let value c = c.v

let emit_counter ?(tid = 0) t c = emit t ~tid (Event.Counter (c.cname, c.v))

let flush_counters ?(tid = 0) t =
  if t.sinks <> [] then
    List.iter
      (fun c -> emit t ~tid (Event.Counter (c.cname, c.v)))
      (List.rev t.counters)

(* --- events ------------------------------------------------------------ *)

let gauge ?(tid = 0) t name v = emit t ~tid (Event.Gauge (name, v))

let instant ?(tid = 0) ?(args = []) t name =
  emit t ~tid (Event.Instant (name, args))

let span ?(tid = 0) ?(args = []) t name f =
  if t.sinks = [] then f ()
  else begin
    emit t ~tid (Event.Span_begin (name, args));
    Fun.protect ~finally:(fun () -> emit t ~tid (Event.Span_end name)) f
  end

let span_at ?(tid = 0) ?(args = []) t ~ts0 ~ts1 name =
  if t.sinks <> [] then begin
    emit_at t ~ts:ts0 ~tid (Event.Span_begin (name, args));
    emit_at t ~ts:(max ts0 ts1) ~tid (Event.Span_end name)
  end

let flush t = List.iter (fun (s : Sink.t) -> s.Sink.flush ()) t.sinks

let close t =
  if not t.closed then begin
    t.closed <- true;
    flush_counters t;
    List.iter
      (fun (s : Sink.t) ->
        s.Sink.flush ();
        s.Sink.close ())
      t.sinks
  end
