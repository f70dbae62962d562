(* Telemetry events and their NDJSON codec.

   The wire shape is one flat JSON object per event — "ts"/"pid"/"tid"
   plus a "type" discriminator — so downstream tooling (jq, pandas,
   Perfetto preprocessing) needs no schema beyond field names. *)

type payload =
  | Counter of string * int
  | Gauge of string * float
  | Span_begin of string * (string * Json.t) list
  | Span_end of string
  | Instant of string * (string * Json.t) list

type t = { ts_us : int; pid : int; tid : int; payload : payload }

let name t =
  match t.payload with
  | Counter (n, _)
  | Gauge (n, _)
  | Span_begin (n, _)
  | Span_end n
  | Instant (n, _) ->
      n

let to_json (e : t) : Json.t =
  let base ty n rest =
    Json.Obj
      ([
         ("ts", Json.Int e.ts_us);
         ("pid", Json.Int e.pid);
         ("tid", Json.Int e.tid);
         ("type", Json.String ty);
         ("name", Json.String n);
       ]
      @ rest)
  in
  match e.payload with
  | Counter (n, v) -> base "counter" n [ ("value", Json.Int v) ]
  | Gauge (n, v) -> base "gauge" n [ ("value", Json.Float v) ]
  | Span_begin (n, args) -> base "span_begin" n [ ("args", Json.Obj args) ]
  | Span_end n -> base "span_end" n []
  | Instant (n, args) -> base "instant" n [ ("args", Json.Obj args) ]

let of_json (j : Json.t) : (t, string) result =
  let ( let* ) = Result.bind in
  let int_field k =
    match Json.member k j with
    | Some (Json.Int i) -> Ok i
    | _ -> Error (Printf.sprintf "event: missing int field %S" k)
  in
  let str_field k =
    match Json.member k j with
    | Some (Json.String s) -> Ok s
    | _ -> Error (Printf.sprintf "event: missing string field %S" k)
  in
  let args_field () =
    match Json.member "args" j with
    | Some (Json.Obj fields) -> Ok fields
    | _ -> Error "event: missing args object"
  in
  let* ts_us = int_field "ts" in
  let* pid = int_field "pid" in
  let* tid = int_field "tid" in
  let* ty = str_field "type" in
  let* nm = str_field "name" in
  let* payload =
    match ty with
    | "counter" ->
        let* v = int_field "value" in
        Ok (Counter (nm, v))
    | "gauge" -> (
        match Json.member "value" j with
        | Some (Json.Float v) -> Ok (Gauge (nm, v))
        | Some (Json.Int v) -> Ok (Gauge (nm, float_of_int v))
        | _ -> Error "event: gauge without numeric value")
    | "span_begin" ->
        let* args = args_field () in
        Ok (Span_begin (nm, args))
    | "span_end" -> Ok (Span_end nm)
    | "instant" ->
        let* args = args_field () in
        Ok (Instant (nm, args))
    | other -> Error (Printf.sprintf "event: unknown type %S" other)
  in
  Ok { ts_us; pid; tid; payload }

let to_ndjson_line e = Json.to_string (to_json e)

let of_ndjson_line line =
  match Json.parse line with
  | Error e -> Error e
  | Ok j -> of_json j
