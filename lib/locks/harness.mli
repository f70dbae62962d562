(** Running locks on the simulator: configuration plumbing and the
    measurement helpers behind the evaluation experiments (E6) and the
    test suites. *)

open Tsim

val config_of_lock :
  ?model:Config.mem_model ->
  ?ordering:Config.ordering ->
  ?max_passages:int ->
  ?check_exclusion:bool ->
  ?crash_semantics:Config.crash_semantics ->
  Lock_intf.t ->
  n:int ->
  Config.t
(** The lock's recovery section (if any) is wired into the configuration,
    so crash-injecting exploration runs it before re-entries. The
    [crash_semantics] default is {!Config.Drop_buffer}.
    @raise Invalid_argument for multi-passage runs of one-time locks. *)

val machine_of_lock :
  ?model:Config.mem_model ->
  ?ordering:Config.ordering ->
  ?max_passages:int ->
  ?check_exclusion:bool ->
  ?crash_semantics:Config.crash_semantics ->
  Lock_intf.t ->
  n:int ->
  Machine.t

(** Aggregate statistics of a run. *)
type run_stats = {
  lock_name : string;
  model : Config.mem_model;
  n : int;
  passages : int;
  total_rmrs : int;
  total_fences : int;
  total_criticals : int;
  max_rmrs_per_passage : int;
  max_fences_per_passage : int;
  avg_rmrs_per_passage : float;
  avg_fences_per_passage : float;
  max_interval_contention : int;
  max_point_contention : int;
  cs_entries : int;
  exclusion_ok : bool;
  completed : bool;
}

val collect_stats :
  lock_name:string -> Machine.t -> completed:bool -> exclusion_ok:bool
  -> run_stats

type schedule = Rr | Rand of int  (** round robin, or seeded random *)

val run_contended :
  ?model:Config.mem_model ->
  ?max_passages:int ->
  ?schedule:schedule ->
  Lock_intf.t ->
  n:int ->
  k:int ->
  Machine.t * run_stats
(** Run [k] of the [n] processes to completion (the rest stay in their
    NCS), so [k] is the run's total contention. Exclusion violations and
    spin exhaustion are reported in the stats rather than raised. *)
