(** Execution events.

    An execution is a sequence of events (paper, Section 2). Each event
    records the machine-model verdicts made at execution time: remoteness,
    RMR accounting under the configured memory model, and criticality in
    the execution prefix (Definition 2). Criticality is relative to the
    containing execution, so analyses over erased executions recompute it
    ({!Analysis.Flow}); the flag stored here is the online fast path. *)

open Ids

type read_src =
  | From_buffer  (** store-to-load forwarding; not a variable access *)
  | From_cache
  | From_memory

type kind =
  | Enter
  | Cs
  | Exit
  | Read of { var : Var.t; value : Value.t; src : read_src }
  | Issue_write of { var : Var.t; value : Value.t }
      (** placed in the write buffer; not yet visible, not an access *)
  | Commit_write of { var : Var.t; value : Value.t }
  | Begin_fence of { implicit : bool }
      (** [implicit] = the store-buffer drain of an atomic RMW *)
  | End_fence of { implicit : bool }
  | Cas_ev of { var : Var.t; expected : Value.t; desired : Value.t;
                observed : Value.t; success : bool }
  | Faa_ev of { var : Var.t; delta : Value.t; observed : Value.t }
  | Swap_ev of { var : Var.t; stored : Value.t; observed : Value.t }
  | Crash of { committed : int; dropped : int }
      (** crash fault ({!Machine.crash}): [committed] buffered writes
          reached memory before the wipe (their [Commit_write] events
          immediately precede this one in the trace), [dropped] were
          lost *)
  | Recover
      (** the crashed process leaves the [Crashed] section and will run
          its recovery section (if any) before re-entering *)
  | Abort
      (** abort fault ({!Machine.abort}): the adversary timed the process
          out at a declared wait point; its write buffer survives and it
          runs its abort cleanup section next *)
  | Abort_done
      (** abort cleanup completed; the process returns to NCS without a
          passage *)

type t = {
  seq : int;  (** position in the trace it was produced in *)
  pid : Pid.t;
  kind : kind;
  remote : bool;
  rmr : bool;
  critical : bool;
}

val dummy : t

val accessed_var : t -> Var.t option
(** The variable the event {e accesses} in the paper's sense (commits and
    non-forwarded reads; issued writes and forwarded reads access
    nothing). *)

val is_commit : t -> bool

val published : t -> (Var.t * Value.t) option
(** The (variable, value) the event makes visible in shared memory, if
    any. *)

val kind_tag : kind -> string

val congruent : t -> t -> bool
(** Congruence (paper, Section 2): same process, same operation on the
    same variable (values may differ), or the same transition/fence. *)

val pp : Format.formatter -> t -> unit
