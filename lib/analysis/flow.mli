(** Information-flow reconstruction over a trace.

    Recomputes, from the event sequence alone, everything the paper
    derives from an execution: awareness sets (Definition 1),
    [writer(v, E)], [Accessed(v, E)], statuses, Act(E), and the
    criticality of every event (Definition 2). Criticality is relative to
    the containing execution, so analyses of erased executions must use
    this module; the machine's online flags are cross-checked against it
    in tests.

    The fold is a state fed one event at a time. Feed contract: one state
    per execution, fed that execution's events in trace order, each once.
    After [k] events the state is exactly what {!analyze} returns on the
    [k]-event prefix, down to the order of every [Hashtbl.fold] over its
    tables, so a caller that watches one execution grow can resume the
    state instead of re-reading the prefix. An execution that is not an
    extension of the fed prefix (an erasure, a replay) needs a fresh
    state. *)

open Tsim
open Tsim.Ids
open Execution

type summary = {
  layout : Layout.t;
  aw : (Pid.t, Pidset.t) Hashtbl.t;
  writer : (Var.t, Pid.t) Hashtbl.t;  (** absent key = ⊥ *)
  writer_aw : (Var.t, Pidset.t) Hashtbl.t;
      (** the writer's awareness at issue time *)
  accessed : (Var.t, Pidset.t) Hashtbl.t;
  status : (Pid.t, [ `Ncs | `Entry | `Exit ]) Hashtbl.t;
  passages : (Pid.t, int) Hashtbl.t;
      (** Enter events minus Exit events; Act(E) is the positive keys *)
  remote_owned : (Pid.t, (int * int * Pid.t * Var.t) list) Hashtbl.t;
      (** keyed by owner [q]: [(index, seq, pid, var)] of every access to
          a variable owned by [q] from another process, newest first *)
  critical : bool Vec.t;  (** recomputed criticality, per event index *)
  issue_aw : (Pid.t * Var.t, Pidset.t) Hashtbl.t;
      (** fold bookkeeping: issue-time awareness of buffered writes *)
  remote_read : (Pid.t * Var.t, unit) Hashtbl.t;
      (** fold bookkeeping: first remote reads seen *)
}

val create : Layout.t -> summary
(** The state of the empty execution over this layout. *)

val feed : summary -> Event.t -> unit
(** Fold in the next event of the execution (see the feed contract). *)

val fed : summary -> int
(** Events fed so far. *)

val analyze : Trace.t -> summary
(** [create], then [feed] every event of the trace. *)

val get_aw : summary -> Pid.t -> Pidset.t
val get_writer : summary -> Var.t -> Pid.t option
val get_accessed : summary -> Var.t -> Pidset.t
val get_status : summary -> Pid.t -> [ `Ncs | `Entry | `Exit ]
val get_remote_owned : summary -> Pid.t -> (int * int * Pid.t * Var.t) list

val active : summary -> Pidset.t
(** Act(E), by the rule of {!Execution.Trace.active}. *)

val criticality_disagreements : Trace.t -> summary -> int list
(** Event indices where the recomputed criticality differs from the
    online flag recorded in the event (must be empty on un-erased
    traces). *)
