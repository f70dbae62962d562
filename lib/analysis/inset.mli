(** Invisible sets (Definition 4) and regularity (Definition 5).

    [check t inv] verifies the five IN properties of a candidate set
    [inv ⊆ Act(t)]. IN3 quantifies over all subsets of [inv]; checking
    every subset is exponential, so [check] verifies every singleton and
    the full set (catching the writer-chain situations where erasure can
    change criticality), and {!check_in3_subset} lets property tests
    sample arbitrary subsets. *)

open Tsim.Ids
open Execution

type violation = { property : string; detail : string }

val violation : string -> string -> violation
val pp_violation : Format.formatter -> violation -> unit

val check_in1 : Flow.summary -> Pidset.t -> violation list
val check_in2 : Flow.summary -> Pidset.t -> violation list

val check_in3_subset : Trace.t -> Flow.summary -> Pidset.t -> violation list
(** IN3 for one erased subset [y]: erasing [y] must not change the
    criticality of any remaining event. *)

val check_in3 : Trace.t -> Flow.summary -> Pidset.t -> violation list
val check_in4 : Flow.summary -> Pidset.t -> violation list
val check_in5 : Flow.summary -> Pidset.t -> Pidset.t -> violation list

type verdict = { ok : bool; violations : violation list }

val check : ?in3:bool -> Trace.t -> Pidset.t -> verdict
(** Full IN-set check of a candidate set (IN3 as described above; pass
    [~in3:false] to skip the quadratic part). *)

val check_flow : Flow.summary -> Pidset.t -> verdict
(** IN0 ([inv] ⊆ Act), IN1, IN2, IN4 and IN5 from the fold alone, without
    the trace: on a summary fed the events of [t], the same violations in
    the same order as [check ~in3:false t inv]. Its cost is
    O(n + accessed variables + violations), whatever the length of the
    execution. *)

val check_semi_regular : ?in3:bool -> Trace.t -> verdict
(** Act(E) satisfies IN1-IN4 (the write phase's relaxation). *)

val check_regular : ?in3:bool -> Trace.t -> verdict
(** Act(E) is an IN-set of E (Definition 5). *)
