(** Telemetry events: the typed stream flowing from instrumented code to
    sinks, with an NDJSON codec.

    Timestamps are integer microseconds from whatever clock the emitting
    {!Telemetry} hub was built with — wall clock for live runs, a manual
    (virtual) clock for deterministic replay exports. [pid]/[tid] are
    trace lanes, not OS ids: the hub's pid groups a run, the tid usually
    carries a simulated process id or search-domain index. *)

type payload =
  | Counter of string * int  (** absolute (monotonic) counter value *)
  | Gauge of string * float  (** instantaneous measurement *)
  | Span_begin of string * (string * Json.t) list
  | Span_end of string
  | Instant of string * (string * Json.t) list

type t = { ts_us : int; pid : int; tid : int; payload : payload }

val name : t -> string

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result

val to_ndjson_line : t -> string
(** One-line JSON rendering, no trailing newline. *)

val of_ndjson_line : string -> (t, string) result
(** Inverse of {!to_ndjson_line} (property-tested in suite_obs). *)
