(** Per-process cache directory for the CC cost models.

    The simulator keeps one authoritative value per variable (coherence
    never serves stale data), so the cache tracks only {e line states} for
    RMR accounting: write-through uses Invalid/Shared (valid), write-back
    uses Invalid/Shared/Exclusive. *)

open Ids

type state = Invalid | Shared | Exclusive

type t

val create : n:int -> nvars:int -> t
val get : t -> Pid.t -> Var.t -> state
val set : t -> Pid.t -> Var.t -> state -> unit

val invalidate_others : t -> Pid.t -> Var.t -> unit
(** Invalidate every copy of the line except the writer's. *)

val downgrade_exclusive : t -> Var.t -> unit
(** Demote any Exclusive holder of the line to Shared (read miss). *)

val copy : t -> t
val equal : t -> t -> bool

val holders : t -> Var.t -> (Pid.t * state) list
(** Non-invalid holders of the line, with their states. *)

val coherent : t -> Var.t -> bool
(** An Exclusive holder excludes every other copy. *)

val coherence_ok : t -> bool
(** {!coherent} for every line. *)
