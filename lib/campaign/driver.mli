(** The campaign orchestrator: a batch verification run at full-machine
    throughput.

    A campaign is a {e plan} — a scenario grid of {!Cell.t}s plus a list
    of {!bracket_spec} frontier searches — executed against a persistent
    {!Cache.t}. Cells are scheduled cheapest-first across [jobs] domains
    as whole searches (the campaign parallelizes one level above the
    explorer, so every cell's outcome is the deterministic sequential
    one); node budgets start small and escalate on budget-limited
    partial verdicts; completed outcomes land in the cache immediately,
    so a killed campaign resumes where it died and a warm re-run skips
    every cell.

    Reports are deliberately free of timings, cache-hit flags and job
    counts, and cells are emitted in canonical key order — the same plan
    over the same code produces a byte-identical report whether it ran
    cold or warm, at [--jobs 1] or [--jobs 16]. *)

(** A frontier question over one integer axis of a base cell. All four
    are monotone-threshold searches answered by {!Bracket} probes, each
    probe being an ordinary cell execution that lands in the cache. *)
type bracket_goal =
  | Min_n_fences of int
      (** least [n] whose adversary run forces at least [k] fences *)
  | Max_exhaustive_n
      (** greatest [n] the explorer exhausts within the node cap *)
  | Min_crashes_refute
      (** least crash budget under which a violation is found; a
          budget-limited partial counts as not-refuted *)
  | Min_aborts_refute  (** least abort budget likewise *)

val goal_name : bracket_goal -> string

type bracket_spec = {
  goal : bracket_goal;
  base : Cell.t;  (** the swept axis field of [base] is ignored *)
  lo : int;
  hi : int;
}

type plan = { grid : Cell.t list; brackets : bracket_spec list }

val parse_grid : string -> (Cell.t list, string) result
(** Grid spec: whitespace- or [';']-separated [field=v1,v2,...] tokens,
    integer fields accepting ranges [a-b]. Fields: [kind] (verify,
    adversary), [lock], [n], [model] (dsm, cc-wt, cc-wb), [ord] (tso,
    pso), [pass], [crashes], [aborts], [csem] (drop, flush, prefix),
    [store] (exact, bitstate:B:H, bounded:S), [por] (on, off). [lock]
    is required; every other field defaults to the {!Cell.make}
    default. The grid is the cartesian product of all dimensions:
    ["lock=peterson,ticket n=2-4 crashes=0,1"] is 12 cells. *)

val parse_bracket : string -> (bracket_spec, string) result
(** Bracket spec: a goal name — [min-n-fences] (requires [k=]),
    [max-exhaustive-n], [min-crashes-refute], [min-aborts-refute] —
    followed by single-valued [field=v] tokens for the base cell plus
    optional [lo=]/[hi=] range bounds (defaults 2..8 for the [n] goals,
    0..4 for the fault-budget goals). [lock] is required. *)

val planned : Cell.t list -> Cell.t list
(** Deduplicate by key and order cheapest-first ({!Cell.cost_hint},
    ties by key) — the execution schedule, also what [--dry-run]
    prints. *)

type cell_result = {
  cell : Cell.t;
  outcome : Cell.outcome;
  from_cache : bool;
}

type bracket_result = {
  spec : bracket_spec;
  answer : int option;
  evals : int;  (** distinct probe points evaluated (cache hits count) *)
  probed : (int * bool) list;  (** ascending by probe point *)
}

type result = {
  cells : cell_result list;  (** canonical key order *)
  brackets : bracket_result list;  (** in plan order *)
  interrupted : bool;
  executed : int;  (** cells actually run, grid and probes together *)
  hits : int;  (** cells answered from the cache *)
}

exception Interrupted
(** Never escapes {!run} — internal control flow for the stop flag. *)

val run :
  ?jobs:int ->
  ?max_nodes:int ->
  ?max_millis:int ->
  ?spin_fuel:int ->
  ?stop:bool Atomic.t ->
  ?obs:Obs.Telemetry.t ->
  cache:Cache.t ->
  plan ->
  result
(** Execute a plan. Every cell of the grid and both endpoints of every
    bracket are validated up front ({!Runner.resolve}), so a bad plan
    raises {!Runner.Bad_cell} before any budget is spent. [max_nodes]
    (default 200_000) caps the per-cell node budget; execution starts
    each verify cell at a small slice of the cap and escalates by 4x on
    budget-limited partials, so cheap cells never pay for deep ones.
    [spin_fuel] (default 6) bounds busy-wait iterations in every cell's
    search; it is pinned process-globally for the duration of the run —
    which is exactly what makes concurrent explores safe — so it is a
    campaign parameter, not a cell axis.
    Outcomes are recorded in [cache] as they complete — definitive ones
    and full-cap node-budget partials only; time-limited or interrupted
    partials are never cached. Cache entries are keyed by {!Cell.key}
    plus [" fuel=<spin_fuel>"], so a run only reuses outcomes found at
    its own fuel. With [jobs > 1], workers take pending cells in
    schedule order from one shared index (coordinator-only cache and
    telemetry access; workers only record).
    Setting [stop] finishes the cells in flight, flushes the cache, and
    returns with [interrupted = true].

    [obs] receives per-cell spans ([campaign.cell]), ~1 Hz
    [campaign.heartbeat] instants with progress (grid cells done ÷
    total) and ETA, and one [campaign.bracket] instant per frontier
    answered. *)

val report_version : int

val report_json : result -> Obs.Json.t
(** The versioned machine-readable report. Deterministic: cells in key
    order, no timings, no cache provenance, no job counts — byte-equal
    across cold/warm and any [jobs]. *)

val validate_report : Obs.Json.t -> (unit, string) Stdlib.result
(** Schema check for a report produced by {!report_json} (any producer
    version up to {!report_version}): format/version header, every cell
    key parses back through {!Cell.of_key}, every outcome through
    {!Cell.outcome_of_json}, cells in strictly ascending key order,
    bracket records carrying goal/base/lo/hi/answer/evals/probed. Used
    by the CI smoke step and [campaign --validate-report]. *)
