(** The campaign orchestrator: a batch verification run at full-machine
    throughput.

    A campaign is a {e plan} — a scenario grid of {!Cell.t}s plus a list
    of {!bracket_spec} frontier searches — executed against a persistent
    {!Cache.t}. Each distinct search runs once per run, at the node cap:
    verify cells that differ only in the memory model share one search
    ({!Cell.search_key}), and a bracket probe that lands on a grid
    search shares it too. The brackets and the grid's searches are
    tasks of one pool of up to [jobs] workers, the calling domain among
    them, brackets first, then the grid cheapest-first; each search runs
    whole and sequential (the
    campaign parallelizes one level above the explorer, so every cell's
    outcome is the deterministic sequential one). Completed outcomes
    land in the cache immediately, so a killed campaign resumes where it
    died and a warm re-run skips every cell.

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
    [store] (exact, bitstate:B:H), [por] (on, off). [lock]
    is required, no field may appear twice, and every other field
    defaults to the {!Cell.make} default. The grid is the cartesian
    product of all dimensions:
    ["lock=peterson,ticket n=2-4 crashes=0,1"] is 12 cells. *)

val parse_bracket : string -> (bracket_spec, string) result
(** Bracket spec: a goal name — [min-n-fences] (requires [k=]),
    [max-exhaustive-n], [min-crashes-refute], [min-aborts-refute] —
    followed by [field=v] tokens for the base cell plus optional
    [lo=]/[hi=] range bounds (defaults 2..8 for the [n] goals, 0..4 for
    the fault-budget goals). The base cell's fields are {!parse_grid}'s,
    parsed by the same table, except [kind], which the goal sets; each
    takes one value (["n=2,3"] is an error) and may appear once. [lock]
    is required. *)

val planned : Cell.t list -> Cell.t list
(** Deduplicate by key and order cheapest-first ({!Cell.cost_hint}),
    ties by {!Cell.search_key} and then by key, so cells that share a
    search are adjacent — the grid's execution schedule, which the
    workers take after the brackets, also what [--dry-run] prints after
    the brackets. *)

type cell_result = {
  cell : Cell.t;
  outcome : Cell.outcome;
  from_cache : bool;
}

type bracket_result = {
  spec : bracket_spec;
  answer : int option;
  evals : int;
      (** distinct probe points evaluated (probes another task searched,
          or the cache answered, count) *)
  probed : (int * bool) list;  (** ascending by probe point *)
}

type result = {
  cells : cell_result list;  (** canonical key order *)
  brackets : bracket_result list;  (** in plan order *)
  interrupted : bool;
  executed : int;
      (** distinct search keys searched in this run, grid and probes
          together: each is searched once, whoever asks first *)
  shared : int;
      (** grid cells answered by another grid cell's search in this run *)
  hits : int;
      (** lookups answered without a search: every cell of a grid
          group the cache answers, each probe the cache answers, and
          each grid group or probe that found its search already run
          (or running) in this run, whichever task searched first *)
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
    raises {!Runner.Bad_cell} before any budget is spent. Every search
    runs once, with the node budget [max_nodes] (default 200_000) and,
    if given, the wall-clock budget [max_millis]. Nothing in a
    one-domain search is sized by its budget and its DFS order does not
    depend on it, so a search that needs [x <= max_nodes] nodes explores
    exactly [x]. [spin_fuel] (default 6) bounds busy-wait iterations
    in every search; it is pinned process-globally for the duration of
    the run — which is exactly what makes concurrent explores safe — so
    it is a campaign parameter, not a cell axis. It must be at least 1
    (at 0 every search would prune each branch at its first spin and
    cache a verdict for a space it never explored): [run] raises
    [Invalid_argument] before it looks anything up.

    The calling domain is worker 0; when the first search starts, it
    spawns up to [jobs - 1] helper domains (never more than the tasks
    left), so a run the cache answers, and any [jobs = 1] run, starts
    no domain. The workers take the tasks from one shared index: every
    bracket, in plan order, then every group of grid cells sharing a
    {!Cell.search_key}, in schedule order ({!planned}). A bracket's
    probes run on the worker that took it. Every group and every probe
    asks one single-flight lookup keyed like the cache: this run's
    outcome, else the cache, else one search while other askers of that
    key wait. So the counters, the report and every bracket answer are
    the same at any [jobs]. Workers read and write [cache] and emit
    their telemetry only under the table's lock. A search that raises
    ends the run with its exception once every worker has stopped; any
    asker waiting on it raises it too.

    Outcomes are recorded in [cache] as they complete — definitive ones
    and full-cap node-budget partials only; time-limited or interrupted
    partials are never cached. Cache entries are keyed by
    {!Cell.search_key} plus [" fuel=<spin_fuel>"], so a run only reuses
    outcomes found at its own fuel.
    Setting [stop] finishes the searches in flight and starts no other:
    the remaining tasks still take what this run or the cache already
    knows, so an interrupted report keeps every cached cell. The run
    returns with [interrupted = true].

    [obs] receives one [campaign.cell] span per search, stamped by the
    worker that ran it with its start and end on the worker's lane
    (tid = worker index), one [campaign.cell] instant per hit, ~1 Hz
    [campaign.heartbeat] instants with progress (grid cells done ÷
    total) and ETA while searches finish, and one [campaign.bracket]
    instant per frontier answered. *)

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
