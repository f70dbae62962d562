(** Per-process TSO write buffer.

    Issued writes become visible only when committed (oldest first under
    TSO). Issuing a write to a variable with a pending write {e replaces}
    the older entry in place, so the buffer holds at most one write per
    variable — which is why a process can commit at most one write to any
    variable during a single fence execution (used by the write phase of
    the construction). *)

open Ids

type entry = {
  var : Var.t;
  value : Value.t;
  aw : Pidset.t;
      (** the writer's awareness set at issue time (Definition 1) *)
}

type t

val create : unit -> t
val is_empty : t -> bool
val size : t -> int

val find : t -> Var.t -> Value.t option
(** Store-to-load forwarding: the pending value for [var], if any. Scans
    without allocating; only a hit allocates its result. *)

val mem : t -> Var.t -> bool
(** [find t v <> None], allocation-free (explorer hot path). *)

val push : t -> entry -> unit
(** Issue a write (replacing any pending write to the same variable). *)

val push' : t -> entry -> (int * entry) option
(** Journal-aware {!push}: [Some (i, old)] when the write replaced the
    pending entry [old] at index [i] (undo restores it with {!set}),
    [None] when it was appended (undo is {!drop_last}). *)

val peek : t -> entry option
(** The oldest pending write. *)

val peek_var : t -> Var.t
(** Variable of the oldest pending write, without allocating an option
    (fingerprint hot path). @raise Invalid_argument if empty. *)

val get : t -> int -> entry
(** The [i]-th oldest pending entry (fingerprint hot path). *)

val pop : t -> entry
(** Remove and return the oldest pending write.
    @raise Invalid_argument if empty. *)

val pop_var : t -> Var.t -> entry
(** Remove the pending write to a specific variable (PSO out-of-order
    commits). @raise Invalid_argument if there is none. *)

val pop_var' : t -> Var.t -> int * entry
(** Journal-aware {!pop_var}: also reports the index the entry occupied,
    so undo can {!insert} it back in order. *)

val set : t -> int -> entry -> unit
(** Undo primitive: overwrite the entry at an index (restores a replaced
    write journaled by {!push'}). *)

val insert : t -> int -> entry -> unit
(** Undo primitive: re-insert an entry at the index it was popped from. *)

val drop_last : t -> unit
(** Undo primitive: drop the newest entry (reverts an appending
    {!push'}). *)

val entries : t -> entry array
(** Snapshot of the pending entries, oldest first (crash undo, equality,
    fingerprints). *)

val clear : t -> unit
(** Discard every pending write (crash support: {!Config.Drop_buffer}). *)

val iter : (entry -> unit) -> t -> unit
val vars : t -> Var.t list
(** Pending variables, oldest first. *)

val copy : t -> t
