(** Machine configuration.

    A configuration fixes everything a deterministic replay needs: process
    count, memory/cost model, store ordering, variable layout, and the
    per-process entry/exit programs. Erasure re-creates machines from the
    same configuration, which is why programs live here. *)

open Ids

(** Memory cost model (paper, Section 2). *)
type mem_model =
  | Dsm  (** distributed shared memory: remote accesses are RMRs *)
  | Cc_wt  (** cache-coherent, write-through protocol *)
  | Cc_wb  (** cache-coherent, write-back protocol *)

val mem_model_name : mem_model -> string

(** Store ordering: TSO (the paper's model, FIFO write buffers) or PSO
    (Section 6; writes to different variables may commit out of order). *)
type ordering = Tso | Pso

val ordering_name : ordering -> string

(** Fate of a crashed process's write buffer ({!Machine.crash}); the
    three models bracket the recoverable-mutual-exclusion literature:
    [Drop_buffer] loses every pending write, [Flush_buffer] commits them
    all atomically, [Atomic_prefix] commits an adversary-chosen FIFO
    prefix and drops the rest. *)
type crash_semantics = Drop_buffer | Flush_buffer | Atomic_prefix

val crash_semantics_name : crash_semantics -> string

(** How machines execute programs under exploration. There is one
    engine: the explorer's single DFS loop runs the continuation
    interpreter on one machine stepped in place and rolled back through
    the mutation journal ({!Machine.Journal} — O(touched words) per
    node). *)
type engine = [ `Journal ]

(** Exploration seen-state memory policy:

    - [Store_exact]: every distinct fingerprint is remembered (the
      default). Exact dedup; memory grows with the reachable space.
    - [Store_bitstate { log2_bits; hashes }]: SPIN-style
      bitstate/supertrace hashing — [hashes] hash functions into a bit
      array of [2^log2_bits] bits. Fixed memory; distinct states may
      alias, so the search under-approximates coverage and the explorer
      reports an omission-probability estimate
      ({!Mcheck.Explore.stats.omission_prob} in lib/mcheck). The
      explorer suspends sleep-set pruning at each newly-admitted state
      under this mode (a one-bit store cannot remember slept moves), so
      aliasing is the only omission source the estimate must cover.

    The parallel explorer's exact store caps at 2^23 slots; past that it
    leaves overflowing states unstored and re-explores them on every
    visit (counted, and confessed on the verdict line). The sequential
    table at one domain has no cap; [Store_bitstate] is the
    fixed-memory alternative. *)
type store_mode =
  | Store_exact
  | Store_bitstate of { log2_bits : int; hashes : int }

val store_mode_name : store_mode -> string

type t = {
  n : int;
  model : mem_model;
  ordering : ordering;
  layout : Layout.t;
  entry : Pid.t -> unit Prog.t;  (** entry-section program, per passage *)
  exit_section : Pid.t -> unit Prog.t;
  max_passages : int;
  check_exclusion : bool;
      (** raise when two CS events are simultaneously enabled *)
  record_trace : bool;
      (** emit events into {!Machine.trace} and the per-process passage
          logs. On by default; state-space exploration turns it off so
          that {!Machine.clone} costs O(state) instead of O(depth +
          state). With recording off the trace stays empty (erasure,
          rendering and passage statistics are unavailable) and
          [Event.seq] numbers are all 0. *)
  crash_semantics : crash_semantics;
      (** what {!Machine.crash} does to the pending write buffer *)
  recovery : (Pid.t -> unit Prog.t) option;
      (** recovery section prepended to the entry section on the first
          passage a process starts after a crash; [None] means the
          process simply restarts at the entry label *)
  abort_section : (Pid.t -> unit Prog.t) option;
      (** cleanup section run after the adversary aborts the process at a
          declared wait point ({!Machine.abort}); must leave the lock
          reusable. [None] = not abortable, abort moves never apply *)
  engine : engine;  (** program execution under exploration *)
  store : store_mode;  (** exploration seen-state memory policy *)
}

val make :
  ?model:mem_model ->
  ?ordering:ordering ->
  ?max_passages:int ->
  ?check_exclusion:bool ->
  ?record_trace:bool ->
  ?crash_semantics:crash_semantics ->
  ?recovery:(Pid.t -> unit Prog.t) ->
  ?abort_section:(Pid.t -> unit Prog.t) ->
  ?store:store_mode ->
  n:int ->
  layout:Layout.t ->
  entry:(Pid.t -> unit Prog.t) ->
  exit_section:(Pid.t -> unit Prog.t) ->
  unit ->
  t
(** Defaults: [Cc_wb], [Tso], one passage, RMWs drain, exclusion checked,
    trace recorded, [Drop_buffer] crash semantics, no recovery section,
    [Store_exact] seen-state store.
    @raise Invalid_argument if [n <= 0] or a [store] parameter is out of
    range ([log2_bits] outside [10, 36], [hashes] outside [1, 8]). *)

val summary : t -> string
(** One-line human identity of a configuration
    (["n=2 model=CC-WB ordering=TSO passages=1 engine=journal ..."]):
    what a profile or report should record so two artifacts can be
    checked for comparability. Programs and layout are not rendered —
    two configs with equal summaries may still differ in code. *)
