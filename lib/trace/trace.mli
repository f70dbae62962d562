(** Executions as first-class data: the event sequence together with the
    layout it was produced against. Provides the syntactic operations the
    lower-bound construction uses — erasure [E^{-Y}], projection [E | Y],
    sub-execution tests — plus derived sets (Act, Fin, participants).
    Semantic validity of erased executions is established by replay in
    {!Erasure}. *)

open Tsim
open Tsim.Ids

type t

val of_machine : Machine.t -> t
(** Snapshot the machine's trace. *)

val of_events : Layout.t -> Event.t array -> t

val length : t -> int
val events : t -> Event.t array
val layout : t -> Layout.t
val get : t -> int -> Event.t

val iter : (Event.t -> unit) -> t -> unit
val iteri : (int -> Event.t -> unit) -> t -> unit
val fold : ('a -> Event.t -> 'a) -> 'a -> t -> 'a

val erase_pids : t -> Pidset.t -> t
(** [E^{-Y}]: remove every event by a process in the set. *)

val project : t -> Pidset.t -> t
(** [E | Y]: keep only events by processes in the set. *)

val project_pid : t -> Pid.t -> t

val is_subexecution : t -> t -> bool
(** [is_subexecution f e]: is [f] a (possibly non-contiguous) subsequence
    of [e]'s events ([F ⪯ E])? *)

val participants : t -> Pidset.t
(** Processes that issued at least one event. *)

val total_contention : t -> int
(** Number of participants (the paper's total contention). *)

val finished : t -> Pidset.t
(** [Fin(E)]: processes that completed a passage. *)

val active : t -> Pidset.t
(** [Act(E)]: processes that started a passage and have not completed
    their last started one. *)

val fences_completed : t -> Pid.t -> int
(** EndFence events by the process. *)

val pp : Format.formatter -> t -> unit
