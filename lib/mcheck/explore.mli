(** Bounded exhaustive schedule exploration over the TSO/PSO machine.

    At each state the enabled moves are "process p executes its next
    event" and "commit p's oldest buffered write" — the full power of the
    scheduling adversary. Reports exclusion violations (with a replayable
    schedule), deadlocks, and optionally spin exhaustion.

    Duplicate states are pruned by fingerprint: shared memory, buffers,
    pending ops, sections, passage counts and structural continuation
    hashes, folded into a single packed 63-bit Zobrist-style XOR value
    ({!Machine.fingerprint}, re-exported as {!fingerprint}; the journal
    engine maintains it incrementally, see {!Machine.fingerprint_fast}).
    Two distinct states hashing to the same value would be conflated, so
    verification verdicts are "no violation in the full deduplicated
    space up to 63-bit hash collisions" — a high-confidence check, not a
    formal proof. (The seed engine had the same caveat through its
    [Hashtbl.hash]-based continuation digests, with a far smaller
    effective hash: continuations are now digested with
    [Hashtbl.hash_param 128 256] so deep spin states hash apart.)
    Reported violations are always sound: their schedules replay on a
    fresh machine.

    Search machines are lean ({!Machine.set_lean}) and journaled
    ({!Machine.Journal}), with {!Config.t.record_trace} forced off, which
    also makes {!Machine.clone} O(state) instead of O(depth + state).
    {!replay} re-executes a schedule on a fresh machine with the
    caller's configuration and full accounting.

    {2 Partial-order reduction}

    With [~por:true] (the default) the explorer applies a dynamic
    partial-order reduction built on the independence relation of
    {!Footprint}. Soundness rests on the following facts about the
    machine:

    - {b Enabledness is process-local.} Whether a move of [p] is enabled
      depends only on [p]'s own state (continuation, buffer, fence flag,
      section): no move of [q] ever enables or disables a move of [p].
      Every ample/persistent-set condition about enabledness is therefore
      trivial here.

    - {b Independence implies projected commutation.} Two moves with
      {!Footprint.independent} footprints touch disjoint shared
      variables, are not CS executions sensitive to each other, and
      belong to different processes; executing them in either order from
      any common state reaches the same state {e up to the fingerprint
      projection} (shared memory, buffers, pending ops, fence flags,
      sections, passage counts, continuations). Unprojected bookkeeping
      (awareness sets, RMR/cache/contention accounting) may differ, but
      it influences neither verdicts nor any future projected transition,
      so the verdict set — exclusion, deadlock, spin exhaustion — is
      preserved. Both violation channels are in the relation explicitly:
      a CS execution is dependent on every move that may make its owner
      CS-enabled ([may_enable_cs]) and on other CS executions, so an
      exclusion raised (or avoided) in one order is raised (or avoided)
      in the other; deadlocks only occur at move-less states, which the
      reduction never skips.

    - {b Singleton ample sets.} When some process's only enabled move is
      a [Step] with a purely-local footprint (no shared access, no CS
      check) that verifiably does not make its owner CS-enabled, that
      move is independent of {e every} move of {e every} other process,
      now and after any interleaving — nobody else touches the owner's
      local state, so its footprint and successor are stable. Exploring
      it alone is a persistent set; the skipped interleavings commute
      into the explored ones. Validation is post hoc: the move is applied
      in place and the successor's pending event inspected; candidates
      that become CS-enabled or raise are undone and fall back to full
      expansion.
      Local move chains are finite and acyclic in fingerprint space
      (spin fuel lives in the hashed continuation, passage counts are
      fingerprinted), so the reduction cannot postpone the other
      processes forever (no "ignoring problem").

    - {b Sleep sets with mask-aware caching.} After exploring move [a] at
      a state, [a] is put to sleep for later siblings' subtrees and woken
      by the first dependent move. The seen-table stores, per
      fingerprint, the sleep mask the state was explored under; a
      revisit under sleep [z] against stored [z'] is pruned when
      [z' ⊆ z] and otherwise re-explores exactly the uncovered moves
      (sleep [z ∪ ¬z']), storing the combined coverage [z ∩ z']. Sleep
      masks are one-word bitsets over a dense move code; configurations
      whose move space exceeds a word run with masks pinned to 0 —
      plain fingerprint dedup, still sound, and identical to [~por:false]
      behaviour except for singleton-ample pruning.

    The reduction preserves [verified] and the {e set of violation
    kinds}; it does not preserve node counts (that is the point), the
    specific representative schedules, or the number of distinct
    violations found before a cap. *)

open Tsim
open Tsim.Ids

type move = Footprint.move =
  | Step of Pid.t
  | Commit of Pid.t  (** oldest buffered write (TSO) *)
  | Commit_var of Pid.t * Var.t  (** any buffered write (PSO only) *)
  | Crash of Pid.t * int
      (** crash fault committing a [k]-entry buffer prefix
          ({!Machine.crash}); only generated under [~max_crashes > 0] *)
  | Recover of Pid.t  (** restart a crashed process *)
  | Abort of Pid.t
      (** abort fault at a declared wait point ({!Machine.abort}); only
          generated under [~max_aborts > 0] *)

val move_to_string : move -> string

val move_of_string : string -> move option
(** Inverse of {!move_to_string} (["step p0"], ["commit p1"],
    ["commit p0 v3"], ["crash p0"], ["crash p0 2"], ["recover p1"],
    ["abort p0"]); [None] on anything else. *)

(** {1 Schedule files}

    One move per line; blank lines and ['#'] comments are ignored when
    reading, so fixtures can carry provenance headers. *)

val schedule_to_string : move list -> string
val schedule_of_string : string -> (move list, string) result
val save_schedule : string -> move list -> unit
val load_schedule : string -> (move list, string) result

type violation = {
  schedule : move list;
  kind : [ `Exclusion of Pid.t * Pid.t | `Deadlock | `Spin_exhausted ];
}

(** Why a search stopped before exhausting the space. [`Aborts] is an
    external abort request — the CLI's SIGINT flag ([~stop]) was raised
    mid-search; the explorer winds down and reports the typed partial
    verdict instead of dying. *)
type partial_reason = [ `Nodes | `Millis | `Violations | `Aborts ]

val partial_reason_name : partial_reason -> string

(** Search-internals tallies, kept in plain mutable ints on the hot path
    (always on — the cost is a handful of increments per node) and
    snapshotted into every {!result}. *)
type stats = {
  dedup_hits : int;  (** successor pruned: fingerprint seen with ⊆ mask *)
  resleeps : int;
      (** fingerprint seen but re-explored under a widened sleep mask *)
  sleep_prunes : int;  (** moves skipped because they were asleep *)
  ample_chains : int;  (** singleton-ample chases started *)
  ample_fused : int;  (** extra singleton moves fused into those chases *)
  seen_entries : int;
      (** seen-store occupancy at the end: the ONE store's distinct
          states — workers share it, so this is a global count, not a
          per-worker sum (bitstate: states that set a new bit) *)
  crashes_applied : int;  (** crash moves executed (≠ distinct schedules) *)
  aborts_applied : int;  (** abort moves executed (≠ distinct schedules) *)
  domains_used : int;  (** workers run: the [~domains] asked for *)
  domain_nodes : int list;
      (** nodes expanded per worker, worker 0 (the calling domain) first;
          they sum to [nodes] *)
  merge_stall_us : int;
      (** summed idle time of the workers that finished before the last
          one did; 0 at one domain *)
  journal_peak : int;
      (** high-water undo-log depth in records (max over workers) *)
  undo_records : int;
      (** total undo records pushed across the search (summed over
          workers) *)
  steals : int;
      (** work items a worker took from another worker's deque
          (load-balancing events); 0 at one domain *)
  store_capacity : int;
      (** the seen store's size at the end of the search
          ({!Fpstore.capacity}): slots in exact mode, which grow with the
          states stored (4,096 at the start), or bits in bitstate mode.
          In exact mode it can differ between two runs of one binary on
          one configuration, even at one domain where every other field
          repeats: fingerprints mix in closure code addresses
          ([Machine.hash_cont]), which move from run to run, so the
          states fall into the 64 shards differently and a different
          set of shards doubles: abortable-tas n=2 with one abort ends
          anywhere from 4,096 to 4,352 slots. *)
  omission_prob : float;
      (** [Store_bitstate]: estimated probability that the next distinct
          state falsely aliases as already-seen at the final bit-array
          fill — [(ones/m)^k] ({!Fpstore.omission_prob}); 0.0 in exact
          mode *)
}

val zero_stats : stats

type result = {
  nodes : int;
  exhausted : bool;  (** the whole (pruned) space was explored *)
  verified : bool;  (** exhausted with no violations *)
  violations : violation list;
  max_depth : int;
  partial : partial_reason option;
      (** the resource bound or cap that cut the search short; [None] iff
          [exhausted] *)
  stats : stats;
}

val render_verdict : result -> string * int
(** One-line human verdict and the process exit code the CLI contract
    assigns it: [VERIFIED] → 0, [VIOLATION] → 1, [PARTIAL] (a cap or
    deadline stopped the search with no violation found) → 3. Exit code
    2 is reserved for bad input. A [VERIFIED] line confesses qualified
    coverage inline: a nonzero [omission_prob] (bitstate aliasing) is
    appended rather than hidden in the stats. The exact store has no cap,
    so an exact search's [VERIFIED] line carries no suffix. *)

val enabled_moves :
  ?max_crashes:int -> ?max_aborts:int -> Machine.t -> move list
(** Enabled moves in a state. With [~max_crashes] above the machine's
    {!Machine.crashes_total}, crash moves are offered for every live
    uncrashed process (one per legal commit-prefix length under
    [Atomic_prefix]); crashed processes offer [Recover] instead of
    [Step]. With [~max_aborts] above {!Machine.aborts_total}, an [Abort]
    move is offered for every process at a declared wait point
    ({!Machine.abort_deliverable}). Defaults 0: failure-free, as
    before. *)

val apply : Machine.t -> move -> unit
(** @raise Invalid_argument on a move illegal in the current state (e.g.
    [Recover] of an uncrashed process, or a crash prefix that violates
    the configured {!Config.crash_semantics}). *)

val fingerprint : Machine.t -> int
(** Packed 63-bit state hash used for duplicate pruning — an alias of
    {!Machine.fingerprint} (allocation-free full recompute; see the
    module comment for the soundness caveat). *)

val explore :
  ?max_nodes:int ->
  ?max_violations:int ->
  ?on_spin:[ `Prune | `Violation ] ->
  ?spin_fuel:int ->
  ?domains:int ->
  ?por:bool ->
  ?max_crashes:int ->
  ?max_aborts:int ->
  ?stop:bool Atomic.t ->
  ?max_millis:int ->
  ?on_fingerprint:(int -> unit) ->
  ?obs:Obs.Telemetry.t ->
  ?paranoid_fp:bool ->
  Config.t ->
  result
(** Defaults: 500k nodes, stop at the first violation, spin exhaustion
    prunes the branch (sound for exclusion checking: spin re-reads do
    not change shared state), busy-wait fuel 6, one domain,
    partial-order reduction on, no crash faults, no wall-clock bound.
    The configuration's [record_trace] is ignored: the search runs with
    it off. [~spin_fuel] must be at least 1: at 0 every spin would
    raise before its first read, and pruning each branch at its first
    spin would verify a space the search never explored.

    [~max_crashes:k] lets the adversary inject up to [k] crash faults
    across the whole run ({!Machine.crash}, per the configuration's
    {!Config.crash_semantics}). Crash moves consume a shared budget, so
    they are pairwise dependent in the reduction, and singleton-ample
    fusion is suspended while budget remains (a process's own crash does
    not commute with its local steps); sleep sets stay on with a widened
    move codec. Failure-free runs ([k = 0], the default) are bit-for-bit
    unaffected.

    [~max_aborts:k] does the same for abort faults ({!Machine.abort},
    requires {!Config.t.abort_section}): the adversary may cancel up to
    [k] acquisition attempts at declared wait points. Abort moves carry
    the same budget footprint flag as crashes — pairwise dependent, and
    singleton-ample fusion is suspended while abort budget remains (a
    local step may open or close the abortable window that gates the
    process's own abort move). Both budgets may be nonzero at once;
    crashes may land inside abort cleanup sections.

    [~stop] is an external interrupt flag, polled with the deadline
    (every 1024 nodes): once set, the search winds down and the result
    carries [partial = Some `Aborts] — the CLI maps SIGINT onto it so an
    interrupted verification still flushes stats and exits 3.

    [~max_millis:ms] bounds wall-clock time; on expiry the result carries
    [partial = Some `Millis] (the deadline is polled every 1024 nodes, so
    overshoot is bounded by ~1024 node expansions).

    [~por:false] disables the reduction entirely (full interleaving
    exploration, exactly the previous engine); verdicts agree with
    [~por:true], node counts are larger.

    [~on_fingerprint] is called with the fingerprint of every successor
    state visited (duplicates included) — a test hook for checking that
    the reduced exploration's state set is contained in the full one.
    {b Restriction:} the hook is a single closure that cannot be invoked
    from concurrent domains, so it requires [domains = 1].
    @raise Invalid_argument if [~on_fingerprint] is combined with
    [domains > 1] (and for [domains < 1], [spin_fuel < 1] or
    [max_crashes < 0]).

    [~domains:k] runs [k] workers of one loop: the calling domain is
    worker 0 and starts at the root, and [k - 1] helper domains start by
    stealing. Each worker owns a work-stealing deque ({!Deque}); with
    fellow workers it parks an admitted subtree there (a clone of the
    machine, with its sleep mask) when the deque runs low, at most once
    per 64 nodes, pops its own deque depth-first and steals the oldest
    items of the others' when it runs dry. All workers draw node budget
    from one pool in 256-node chunks, so a lone worker spends exactly
    [max_nodes] and several never more between them. At every [k] the
    workers dedup against ONE fingerprint store ({!Fpstore}): 64 shards,
    each a table under its own lock that starts small and doubles as it
    fills, with no cap — every reachable state is claimed by exactly one
    visitor, so [nodes] matches the one-domain count when sleep masks are
    trivial ([~por:false], or a non-encodable move space) and the search
    is not cut by a cap. At [k = 1] the store applies the sequential
    mask-aware rule in visit order, so counts and stats do not depend on
    the store's layout.

    An exception raised in any worker (a lock program's, say) or by a
    failed [Domain.spawn] stops the other workers at their next poll
    (every 1024 nodes); [explore] re-raises it once every started
    helper has been joined.

    Determinism under [k > 1]: [verified], [exhausted] and the set of
    violations are independent of scheduling — the workers' violations
    are merged in schedule order, a key intrinsic to the violation —
    but [max_depth], [stats] tallies and (under nontrivial sleep masks)
    [nodes] may vary run to run, because which visitor reaches a state
    first changes re-exploration, not coverage. When violations exist,
    each worker stops at its own [max_violations] cap before the merge
    truncates to the global cap, so the surviving set is the least (by
    schedule) of the violations found. At [k = 1] violations stay in
    discovery order. Sleep masks travel with parked subtrees, so the
    reduction composes with work stealing unchanged (see DESIGN.md §5f
    for the soundness argument).

    The seen-state memory policy is selected by {!Config.t.store}:
    [Store_exact] (default), or the fixed-memory [Store_bitstate] mode —
    its verdicts of [verified] carry the [omission_prob] caveat. Under
    bitstate the sleep-set
    reduction is suspended at each newly-admitted state (the one-bit
    store cannot remember which moves were slept, so first-visit
    coverage must be full — see {!Fpstore.masks}); hash aliasing is
    then the {e only} omission channel, and it is the one
    [omission_prob] measures.

    The explorer has one DFS loop: it steps one machine per worker in
    place, running the continuation interpreter, and rolls back through
    {!Machine.Journal} after each subtree. Parked subtrees are cloned,
    so they are independent of the worker that parked them. The test
    suite checks this loop against a clone-per-child reference explorer
    with no reduction and full fingerprint recomputes.

    [~paranoid_fp:true] cross-checks the incrementally-maintained
    fingerprint against a full recompute at every node
    ({!Machine.fingerprint_fast} = {!Machine.fingerprint}), failing
    loudly on drift. A debug mode; off by default.

    [~obs] attaches a telemetry hub ({!Obs.Telemetry}): the search emits
    a time-based heartbeat (~1 Hz, re-armed from a deadline checked
    inside the every-1024-expansions stop/deadline poll, so an idle hub
    costs one comparison) carrying counter snapshots, nodes/sec and
    current depth, plus an ["explore.heartbeat"] instant that progress
    sinks ({!Obs.Sink.progress}) use as their repaint trigger. Worker 0
    holds the hub, so heartbeats fire at every domain count; their node
    count is every worker's (the budget drawn from the shared pool), the
    other counters are worker 0's. After the search, one ["explore.dfs"]
    span per worker (its wall-clock window, on lane [tid = worker]), a
    final counter flush carrying the result's [nodes] and a last
    ["explore.heartbeat"] follow; helpers never touch the hub. Default
    {!Obs.Telemetry.null}: every emission reduces to one [enabled]
    check, leaving the ns/node budget intact. *)

(** {1 Replay} *)

type replay_outcome =
  | R_completed  (** every move applied *)
  | R_exclusion of Pid.t * Pid.t  (** holder, intruder *)
  | R_spin of Var.t
  | R_bad_pid of int * Pid.t
      (** the schedule references a process the machine does not have
          (0-based move index, offending pid) — detected by a pre-scan
          before any move is applied *)
  | R_bad_abort of int * Pid.t
      (** an [abort] line lands on a process that is not at a declared
          wait point (or the configuration has no abort section) —
          decided before the move is applied, so the machine shows the
          state the bad abort was attempted in *)
  | R_stuck of int * string
      (** 0-based index of the first inapplicable move, and why *)

val replay : Config.t -> move list -> Machine.t * replay_outcome
(** Re-execute a schedule on a fresh, unjournaled machine with full
    accounting (configuration unchanged, so with [record_trace] on the
    trace is renderable), reporting how far it got. The machine reflects
    the state reached when the outcome was decided ([R_bad_pid] is
    decided before any move runs, so the machine is still initial). *)
