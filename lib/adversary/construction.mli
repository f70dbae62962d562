(** The lower-bound adversary (Section 4 of the paper), executable against
    real lock implementations.

    Each induction step from H_i to H_{i+1} is realized as a round loop:
    every active process is advanced to its next special event
    (Definition 3) and classified; the majority class determines which of
    the paper's cases fires (read round, fence rounds, write-low/high
    rounds — plus an RMW round for comparison-primitive contention, which
    the paper's tradeoff covers). Erasure is performed by deterministic
    replay; any divergence aborts the run with {!Stuck}, making the
    IN-set reasoning of Lemmas 4-8 dynamically checked. *)

open Tsim.Ids

exception Stuck of string

type t

val create :
  ?model:Tsim.Config.mem_model ->
  ?advance_fuel:int ->
  ?audit:bool ->
  ?no_independent_sets:bool ->
  ?no_regularization:bool ->
  ?obs:Obs.Telemetry.t ->
  Locks.Lock_intf.t ->
  n:int ->
  t
(** Build H_0 (every process executes Enter only). The two [no_*] flags
    are the E10 ablations: they disable the Turán selection and the
    regularization phase respectively, and make the run detectably
    unsound.

    [audit] checks, at every step boundary, that Act(H_i) satisfies IN0,
    IN1, IN2, IN4 and IN5 ({!Analysis.Inset.check_flow}; IN3 is not
    checked per step) and that every surviving process has completed the
    same number of fences and critical events. The facts are recomputed
    from the trace by {!Analysis.Flow}, never read from the machine's
    online bookkeeping. The fold is resumed: each boundary feeds it only
    the events appended since the previous one, so between erasures the
    audit costs O(|trace| + steps × (n + accessed variables)). An erasure
    replaces the machine with a replay of the erased trace, and the fold
    starts afresh on it: one more read of a trace the replay has just
    rebuilt.

    [obs] attaches a telemetry hub: the construction emits nested spans
    ([adversary.run] > [adversary.round] / [adversary.regularize]), one
    instant per round (kind, Act sizes, processes erased) and per closed
    induction step, gauges for Turán independent-set sizes, and counters
    for rounds / erasures / fences forced so far. Default: disabled. *)

val machine : t -> Tsim.Machine.t
val active : t -> Pidset.t
(** Act(H_i): surviving, mutually invisible processes. *)

val finished : t -> Pidset.t

val one_round : t -> unit
(** Execute a single construction round (exposed for tests/debugging). *)

val run :
  ?max_steps:int -> ?max_rounds:int -> ?min_act:int -> ?stop:(unit -> bool) ->
  t -> Report.t
(** Run induction steps until at most [min_act] active processes remain
    (default 0), a limit is hit, or the construction gets stuck. Pass
    [~min_act:1] to keep a surviving process for {!Witness.extract}.
    [stop] is polled before every round; once it answers [true] the run
    ends with outcome {!Report.Stopped} (default: never). *)

val audit_failures : t -> string list
(** IN-set violations recorded by the per-step audit (empty unless an
    ablation flag was set — asserted by the test suite). *)
