(** The lock zoo: every algorithm the evaluation sweeps over. *)

val all : Lock_intf.family list

val multi_passage : Lock_intf.family list
(** Locks supporting repeated passages (excludes one-time locks). *)

val two_process : Lock_intf.family list
(** Two-process-only classics (Dekker, Burns-Lamport). *)

val recoverable : Lock_intf.family list
(** Locks with a recovery section, for crash-injecting exploration. *)

val abortable : Lock_intf.family list
(** Locks with an abort cleanup section, for abort-injecting exploration
    ([verify --max-aborts]). *)

val find : string -> Lock_intf.family option
