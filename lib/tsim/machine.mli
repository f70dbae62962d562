(** The TSO/PSO machine: processes with write buffers, adversary-driven
    scheduling, and online RMR / fence / critical-event / contention
    accounting.

    A scheduler drives the machine one event at a time with {!step} and
    {!commit}; {!pending} peeks at what [step] would do. While a process
    is executing a fence (between BeginFence and EndFence), [step] only
    commits buffered writes and then emits EndFence — the
    [mode(p,E) = write] regime of the paper. *)

open Ids

exception Exclusion_violation of { holder : Pid.t; intruder : Pid.t }
(** Two critical-section events were simultaneously enabled. *)

exception Process_finished of Pid.t
(** [step] was called on a process that completed all its passages. *)

type section =
  | Ncs
  | Entry
  | Exiting
  | Finished
  | Crashed  (** crash fault injected; only {!pending} event is Recover *)
  | Aborting
      (** abort fault delivered at a declared wait point; the process is
          running its {!Config.t.abort_section} cleanup and returns to
          {!Ncs} (no passage counted) when it completes *)

val section_name : section -> string

(** Per-passage cost summary, logged at each Exit. *)
type passage_stats = {
  p_rmrs : int;
  p_fences : int;
  p_criticals : int;
  p_interval : int;  (** interval contention of the passage *)
  p_point : int;  (** point contention of the passage *)
}

(** Per-process search state. Mutable and exposed for the adversary's
    benefit; treat as read-only outside this module. The process's
    accounting (awareness, remote reads, counters, contention, passage
    log) lives apart, in the machine's optional accounting record, and is
    read through the accessors below. *)
type proc = {
  pid : Pid.t;
  mutable sec : section;
  mutable cont : unit Prog.t;
  buf : Wbuf.t;
  mutable in_fence : bool;
  mutable fence_implicit : bool;
  mutable rmw_fenced : bool;
  mutable passages : int;
  mutable crashes : int;
  mutable needs_recovery : bool;
  mutable abortable : bool;
      (** inside an [Prog.abortable true .. false] window: an adversary
          abort ({!abort}) is deliverable here and nowhere else *)
  mutable aborts : int;
}

type t

(** What a process would do next. *)
type pending =
  | P_enter
  | P_cs
  | P_exit
  | P_done
  | P_read of Var.t
  | P_issue_write of Var.t * Value.t
  | P_begin_fence
  | P_end_fence
  | P_commit of Var.t
  | P_rmw_fence  (** implicit BeginFence preceding a buffered RMW *)
  | P_cas of Var.t * Value.t * Value.t
  | P_faa of Var.t * Value.t
  | P_swap of Var.t * Value.t
  | P_recover  (** crashed process: its only enabled event is Recover *)
  | P_marker of bool
      (** local abortable-window marker ([Prog.abortable b]); advances the
          continuation without touching shared state or emitting a trace
          event *)
  | P_abort_done
      (** aborting process with a completed cleanup section: the next
          step returns it to its NCS *)

val pending_to_string : pending -> string

(** Allocation-free projection of {!pending}: constant constructors only
    (no variable / value payloads), for per-node classification loops in
    the explorer. [K_cas]/[K_faa]/[K_swap] are only reported once any
    required RMW drain fence has run, mirroring {!pending}. *)
type pending_class =
  | K_enter
  | K_cs
  | K_exit
  | K_done
  | K_read
  | K_issue_write
  | K_begin_fence
  | K_end_fence
  | K_commit
  | K_rmw_fence
  | K_cas
  | K_faa
  | K_swap
  | K_recover
  | K_marker
  | K_abort_done

val pending_class : t -> Pid.t -> pending_class
(** Decoded from {!classify_fast}: a load on a journaling machine. *)

val pending_var : t -> Pid.t -> Var.t
(** The variable of the pending event, for the classes that carry one
    ([K_read], [K_issue_write], [K_cas], [K_faa], [K_swap], [K_commit]).
    @raise Invalid_argument otherwise. *)

val create : Config.t -> t
(** A fresh machine in the initial configuration (all processes in their
    NCS, buffers empty, variables at their initial values). Memory is one
    flat array over the layout; the accounting tables (writers, access
    sets, CC lines) are paged ({!Paged}), so a full machine's accounting
    memory grows with the variables its events write, not with the
    variables the layout declares. *)

val clone : t -> t
(** Deep copy for state-space exploration (continuations are immutable
    and shared), including the accounting record when present. A clone
    of a lean machine is lean and costs O(state). The clone never
    inherits an active journal: call {!Journal.enable} on it to journal
    it. *)

val set_lean : t -> bool -> unit
(** [set_lean m true] makes [m] a lean search machine: it drops the
    accounting record — the CC line directory, writers, awareness, access
    sets, remote-read criticality, the RMR / fence / critical counters,
    contention tracking, the passage log and the trace. None of that
    enters the fingerprint, the footprints or the verdict checks, so
    verdicts, node counts and fingerprints are the same as on a full
    machine; a lean step cannot read or write accounting at all, and no
    undo record ever has to cover it: {!Journal.enable} requires lean
    mode. Lean machines emit {!Event.dummy} (quiet), buffer their writes
    with an empty issue-time awareness, and raise [Invalid_argument]
    from every accounting accessor. The mode is one-way: [set_lean m
    false] does nothing on a full machine.
    @raise Invalid_argument if [true] is passed for a configuration that
    records traces, or [false] for a lean machine. *)

val equal : t -> t -> bool
(** Structural equality of machine state: memory, every process's
    scalars and buffer, the machine counters, and the accounting record —
    writers, awareness, access sets, CC lines, remote reads, counters,
    passage logs and the trace. A lean machine never equals a full one.
    Continuations are compared physically ([==]) — both {!clone} and
    {!Journal} rollback preserve the continuation value itself. Journal
    bookkeeping and the configuration are not compared. *)

(** {1 Inspection}

    The accounting accessors — {!trace}, {!writer_of}, {!accessed_set},
    {!awareness}, {!fences_completed}, {!rmrs}, {!criticals},
    {!passage_log}, {!interval_contention}, {!point_contention} and
    {!pending_is_special} — raise [Invalid_argument] on a lean machine
    ({!set_lean}). *)

val config : t -> Config.t
val trace : t -> Event.t Vec.t
val proc : t -> Pid.t -> proc
val n_procs : t -> int
val mem_value : t -> Var.t -> Value.t
val writer_of : t -> Var.t -> Pid.t option
(** [writer(v, E)]: last process to commit a write to [v]. *)

val accessed_set : t -> Var.t -> Pidset.t
(** [Accessed(v, E)]. *)

val awareness : t -> Pid.t -> Pidset.t
val section : t -> Pid.t -> section

val passages : t -> Pid.t -> int
val fences_completed : t -> Pid.t -> int
(** EndFence events executed by the process. *)

val rmrs : t -> Pid.t -> int
val criticals : t -> Pid.t -> int
val passage_log : t -> Pid.t -> passage_stats Vec.t
val cs_entries : t -> int

val crashes : t -> Pid.t -> int
(** Crash faults injected into the process so far. *)

val crashes_total : t -> int
(** Crash faults injected into the machine so far (the explorer's crash
    budget is checked against this). *)

val needs_recovery : t -> Pid.t -> bool
(** The process's next passage will run the recovery section first. *)

val aborts : t -> Pid.t -> int
(** Abort faults delivered to the process so far. *)

val aborts_total : t -> int
(** Abort faults delivered to the machine so far (the explorer's abort
    budget is checked against this). *)

val abortable : t -> Pid.t -> bool
(** The process is inside an abortable window ([Prog.abortable true]
    executed, the matching [false] not yet). *)

val abort_deliverable : t -> Pid.t -> bool
(** An {!abort} would be legal right now: the process is in its entry
    section, inside an abortable window, and the configuration declares
    an abort section. The explorer's abort moves are gated on this. *)

val interval_contention : t -> Pid.t -> int
(** Processes active at some point during the current passage. *)

val point_contention : t -> Pid.t -> int
(** Max simultaneously-active processes during the current passage. *)

val mode : t -> Pid.t -> [ `Read | `Write ]
(** [`Write] iff the process is executing a fence (paper, Section 2). *)

val pending : t -> Pid.t -> pending

val step_footprint_packed : t -> Pid.t -> int
(** Shared-memory footprint of the event {!step} would execute, decided
    from machine state without executing it and without allocating
    (decoded from {!classify_fast}: a load on a journaling machine):
    drives the model checker's partial-order reduction. The class is in
    the low 3 bits — 0: finished process ({!step} would raise); 1:
    touches only process-local state (its buffer, fence flags, section
    bookkeeping and continuation, including reads satisfied by
    store-to-load forwarding); 2: reads a variable from shared memory; 3:
    commits a buffered write; 4: atomically reads and writes a variable;
    5: CS execution (reads every process's entry progress) — and for
    classes 2–4 the variable is in the bits above. *)

val step_may_enable_cs : t -> Pid.t -> bool
(** Could {!step} leave the process CS-enabled (in Entry with a completed
    entry program, outside any fence)? Conservatively [true] whenever the
    event advances the continuation of a process in (or entering) its
    entry section; exact [false] answers are guaranteed sound — the CS
    check of {!step} on {e other} processes cannot change across such an
    event. Decoded from {!classify_fast}. *)

val classify : t -> Pid.t -> int
(** The process's classification word, recomputed from its state: one
    int packing its {!pending_class}, its {!step_footprint_packed} and
    its {!step_may_enable_cs}. It reads only the process's own state.
    The layout is private to this module: compare words, decode them
    with the three functions above. *)

val classify_fast : t -> Pid.t -> int
(** The word a journaling machine keeps per process, refreshed once per
    event and restored by {!Journal.undo_to} (O(1)); falls back to
    {!classify} otherwise. Always equal to {!classify} — the
    [~paranoid_fp] explorer mode asserts this for every process at every
    node. *)

(** {1 Execution} *)

val commit : t -> Pid.t -> Event.t
(** Commit the oldest buffered write of the process (the adversary may do
    this even outside fences). @raise Invalid_argument if empty. *)

val commit_var : t -> Pid.t -> Var.t -> Event.t
(** PSO only: commit the pending write to [v] out of order.
    @raise Invalid_argument under TSO or if there is no such write. *)

val step : t -> Pid.t -> Event.t
(** Execute the process's next enabled event ({!pending}).
    @raise Process_finished if it has completed all passages.
    @raise Exclusion_violation per {!Config.t.check_exclusion}. *)

val crash : ?commit_prefix:int -> t -> Pid.t -> Event.t
(** Inject a crash fault: wipe the process's continuation and fence
    state, move it to {!section.Crashed}, and apply
    {!Config.t.crash_semantics} to its write buffer — [commit_prefix]
    oldest entries reach shared memory as ordinary [Commit_write] events,
    the rest are discarded. The prefix defaults to 0 under [Drop_buffer],
    the whole buffer under [Flush_buffer], and 0 under [Atomic_prefix]
    (where any [0 <= commit_prefix <= Wbuf.size] is legal — the prefix
    length is the adversary's choice). The process subsequently recovers
    via {!step} (its pending event is [P_recover]) and, on its next
    passage, runs {!Config.t.recovery} before the entry section.
    @raise Invalid_argument if the process is finished, already crashed,
    or the prefix is illegal for the configured semantics. Crashing a
    process that is {!section.Aborting} is legal — the cleanup section
    is abandoned like any other continuation (abort × crash
    composition). *)

val abort : t -> Pid.t -> Event.t
(** Inject an abort fault: the adversary cancels the process's current
    acquisition attempt at a declared wait point. Legal only when
    {!abort_deliverable} — the process must be in its entry section with
    {!abortable} set, and the configuration must declare an
    {!Config.t.abort_section}. The process keeps its write buffer
    (unlike {!crash}), drops its fence flags, moves to
    {!section.Aborting} and runs the cleanup section; when the cleanup
    completes ([P_abort_done]), the process returns to its NCS without
    counting a passage. @raise Invalid_argument otherwise. *)

(** {1 Fingerprints and the mutation journal}

    The packed 63-bit state fingerprint is an XOR fold of one Zobrist
    term per shared variable plus one term per process (pending event,
    section, fence flag, passage/crash counts, continuation structure,
    buffered writes — the behavioral state; the accounting record is
    excluded). Because the fold is XOR and each event only
    changes the stepping process's own term plus some memory cells, the
    journal maintains it incrementally: O(1) XOR deltas per memory write
    and one term recomputation per event. *)

val fingerprint : t -> int
(** Full recompute from the current state, independent of how the state
    was reached: stepped in place under the journal or stepped forward
    on a clone. *)

val fingerprint_fast : t -> int
(** The incrementally-maintained fingerprint when journaling is enabled
    (O(1)); falls back to {!fingerprint} otherwise. Always equal to
    {!fingerprint} — the [~paranoid_fp] explorer mode asserts this per
    node. *)

(** Speculative execution support for lean machines ({!set_lean}): with
    journaling enabled, every state write performed by {!step} /
    {!commit} / {!commit_var} / {!crash} / {!abort} pushes an undo
    record onto a reusable log, and {!Journal.undo_to} rolls the machine
    back to a previously-taken mark exactly — including after an
    exception escaped mid-event (e.g. {!Exclusion_violation}). The
    explorer expands children as step → recurse → undo on a single
    machine instead of cloning per node. The records cover only what a
    lean step writes — one head snapshot of the stepping process and
    the machine counters, memory cells, and write-buffer edits — because
    a lean machine carries no accounting. *)
module Journal : sig
  type mark

  val enable : t -> unit
  (** Start journaling on this machine (clears any stale log, initializes
      the incremental fingerprint). Idempotent.
      @raise Invalid_argument when the machine carries accounting (it is
      not lean, {!set_lean}). *)

  val mark : t -> mark
  (** The current log position; pass to {!undo_to} to roll back. O(1). *)

  val undo_to : t -> mark -> unit
  (** Pop and apply undo records down to [mark], restoring the machine —
      state and fingerprint — to what it was when the mark was
      taken. @raise Invalid_argument if journaling is disabled or the
      mark is beyond the current log. *)

  val peak : t -> int
  (** High-water log depth since {!enable}, in words of the log, not in
      records: a head record takes 4 or 11 words, a memory record 2 (the
      continuations and buffer entries some records keep on side stacks
      are not counted). *)

  val records : t -> int
  (** Total undo records pushed since {!enable} (monotone; not reduced
      by {!undo_to}). *)
end

(** {1 Adversary helpers} *)

val pending_is_special : t -> Pid.t -> bool
(** Would the pending event be special (Definition 3) if executed now? *)

type stop_reason = At_special | Done_ | Out_of_fuel

val run_until_special : ?fuel:int -> t -> Pid.t -> int * stop_reason
(** Step the process through non-special events; returns the number of
    events executed and why it stopped. *)

val run_until_passages : ?fuel:int -> t -> Pid.t -> target:int -> bool
(** Step the process until it has completed [target] passages; [false] on
    fuel exhaustion. *)
