(** Generic schedulers over the machine: round robin, seeded random (the
    paper's canonical commit-delaying schedule at [~commit_bias:0.0]),
    and solo runs. The lower-bound adversary drives the machine directly
    instead. *)

open Ids

type outcome = {
  steps_taken : int;
  all_finished : bool;
  livelocked : Pid.t option;  (** a process whose spin fuel ran out *)
}

val runnable : Machine.t -> Pid.t -> bool
val live_pids : Machine.t -> Pid.t list

val round_robin : ?quantum:int -> ?max_steps:int -> Machine.t -> outcome
(** Cycle over live processes, [quantum] events each. *)

val random :
  ?seed:int ->
  ?commit_bias:float ->
  ?crash_prob:float ->
  ?max_crashes:int ->
  ?abort_prob:float ->
  ?max_aborts:int ->
  ?max_steps:int ->
  Machine.t ->
  outcome
(** Uniformly random process choice; with probability [commit_bias]
    (default 0.3) commit a buffered write of the chosen process even
    outside fences. [~commit_bias:0.0] is the paper's canonical regime:
    {!Machine.step} commits only inside fences, so a driver that never
    calls {!Machine.commit} delays every commit to a fence. With
    [crash_prob > 0] the chosen process is instead crashed with that
    probability while fewer than [max_crashes] (default 0) crashes have
    happened; crashed processes are stepped back through recovery like
    any other live process. [abort_prob] does the same against
    [max_aborts]: a process sitting at a declared wait point
    ({!Machine.abort_deliverable}) is aborted instead of stepped. *)

val solo : ?max_steps:int -> Machine.t -> Pid.t -> outcome
(** Run one process alone to completion (weak obstruction-freedom says it
    must finish). *)
