(** Ordered executions (Definition 6), used by the write phase: every
    variable's last writer is inactive (a), or is the sole active accessor
    (b), or the trace has a contiguous run of commits to it by all active
    processes in increasing ID order, each still inside the fence during
    which it committed (c). *)

open Tsim.Ids
open Execution

type clause = A | B | C

type var_verdict = { var : Var.t; clause : clause option; detail : string }

val find_ordered_block : Trace.t -> Var.t -> Pidset.t -> int option
(** Index of a contiguous ID-ordered commit block to the variable by all
    of the given processes, if one exists. *)

val still_in_commit_fence : Trace.t -> Pid.t -> int -> bool
(** Is the process still executing, after the trace, the fence during
    which it performed the commit at event index [i]? *)

val check_var : Trace.t -> Flow.summary -> Pidset.t -> Var.t -> var_verdict

type verdict = { ok : bool; failures : var_verdict list }

val check : Trace.t -> verdict
