(** Telemetry for construction runs: one record per round and per
    induction step, mirroring the structure of the paper's Figure 1. *)

open Tsim.Ids

type round_kind =
  | Read_round  (** read phase, case II: interleaved critical reads *)
  | Fence_begin_round  (** read phase, case I *)
  | Write_low_round  (** write phase, case II: distinct variables *)
  | Write_high_round of Var.t  (** write phase, case III: one hot variable *)
  | Fence_end_round  (** write phase, case I; regularization follows *)
  | Rmw_round of Var.t  (** comparison-primitive contention *)
  | Cs_erase_round  (** a CS-ready process was erased (Lemma 5) *)

val round_kind_name : round_kind -> string

type round = {
  kind : round_kind;
  act_before : int;
  act_after : int;
  erased : Pidset.t;
  trace_len : int;
  detail : string;  (** conflict-graph sizes, hot variable, winner, ... *)
}

type step = {
  index : int;  (** this step built H_{index+1} *)
  rounds : round list;
  finished_process : Pid.t option;  (** p_max of the regularization phase *)
  regularization_erased : Pidset.t;
  act_size : int;
  fin_size : int;
  min_fences : int;  (** over the surviving active processes *)
  max_fences : int;
  min_criticals : int;
  max_criticals : int;
}

type outcome =
  | Exhausted_active_processes
  | Reached_step_limit
  | Stopped  (** the caller's stop predicate ended the run *)
  | Stuck of string  (** an invariant broke (or an ablation was active) *)

type t = {
  target : string;
  n : int;
  steps : step list;
  outcome : outcome;
  best_fences : int;
      (** max fences completed by any single process in one passage *)
  best_fences_pid : Pid.t;
  total_contention : int;  (** participants of the final execution *)
}

val outcome_name : outcome -> string
val pp_step : Format.formatter -> step -> unit
val pp_step_rounds : Format.formatter -> step -> unit
val pp : Format.formatter -> t -> unit

val pp_verbose : Format.formatter -> t -> unit
(** Like {!pp} but with one line per construction round, including the
    per-round detail strings. *)
