(* Telemetry for construction runs: one record per round, one per induction
   step, mirroring the structure of Figure 1. *)

open Tsim.Ids

type round_kind =
  | Read_round  (* read phase, case II: interleaved critical reads *)
  | Fence_begin_round  (* read phase, case I: everyone starts a fence *)
  | Write_low_round  (* write phase, case II: distinct variables *)
  | Write_high_round of Var.t  (* write phase, case III: one hot variable *)
  | Fence_end_round  (* write phase, case I: fences complete *)
  | Rmw_round of Var.t  (* comparison-primitive contention on one variable *)
  | Cs_erase_round  (* a process reached its CS and was erased *)

let round_kind_name = function
  | Read_round -> "read"
  | Fence_begin_round -> "fence-begin"
  | Write_low_round -> "write-low"
  | Write_high_round v -> Printf.sprintf "write-high(v%d)" v
  | Fence_end_round -> "fence-end"
  | Rmw_round v -> Printf.sprintf "rmw(v%d)" v
  | Cs_erase_round -> "cs-erase"

type round = {
  kind : round_kind;
  act_before : int;
  act_after : int;
  erased : Pidset.t;
  trace_len : int;
  detail : string;  (* free-form: conflict-graph sizes, hot variable, ... *)
}

type step = {
  index : int;  (* i: this step built H_{i+1} from H_i *)
  rounds : round list;
  finished_process : Pid.t option;  (* p_max of the regularization phase *)
  regularization_erased : Pidset.t;
  act_size : int;  (* |Act(H_{i+1})| *)
  fin_size : int;
  min_fences : int;  (* fences completed, min/max over active processes *)
  max_fences : int;
  min_criticals : int;
  max_criticals : int;
}

type outcome =
  | Exhausted_active_processes
  | Reached_step_limit
  | Stopped
  | Stuck of string

type t = {
  target : string;
  n : int;
  steps : step list;
  outcome : outcome;
  (* headline numbers for Theorem 1 *)
  best_fences : int;  (* max fences completed by any single process *)
  best_fences_pid : Pid.t;
  total_contention : int;
}

let outcome_name = function
  | Exhausted_active_processes -> "exhausted active processes"
  | Reached_step_limit -> "reached step limit"
  | Stopped -> "stopped"
  | Stuck s -> "stuck: " ^ s

let pp_step fmt (s : step) =
  Format.fprintf fmt
    "H_%-3d |Act|=%-5d |Fin|=%-4d fences=[%d..%d] crit=[%d..%d] rounds=%s%s"
    (s.index + 1) s.act_size s.fin_size s.min_fences s.max_fences
    s.min_criticals s.max_criticals
    (String.concat ","
       (List.map (fun r -> round_kind_name r.kind) s.rounds))
    (match s.finished_process with
    | Some p -> Printf.sprintf " fin:%s" (Pid.to_string p)
    | None -> "")

let pp_step_rounds fmt (s : step) =
  List.iter
    (fun r ->
      Format.fprintf fmt "    %-18s |Act| %d -> %d%s%s@."
        (round_kind_name r.kind) r.act_before r.act_after
        (if Pidset.is_empty r.erased then ""
         else
           Printf.sprintf " erased {%s}"
             (String.concat ","
                (List.map Pid.to_string (Pidset.elements r.erased))))
        (if r.detail = "" then "" else " — " ^ r.detail))
    s.rounds

let pp_verbose fmt (t : t) =
  Format.fprintf fmt "construction vs %s (N=%d): %s@." t.target t.n
    (outcome_name t.outcome);
  List.iter
    (fun s ->
      Format.fprintf fmt "  %a@." pp_step s;
      pp_step_rounds fmt s)
    t.steps;
  Format.fprintf fmt
    "  => process %s completed %d fences; total contention %d@."
    (Pid.to_string t.best_fences_pid)
    t.best_fences t.total_contention

let pp fmt (t : t) =
  Format.fprintf fmt "construction vs %s (N=%d): %s@." t.target t.n
    (outcome_name t.outcome);
  List.iter (fun s -> Format.fprintf fmt "  %a@." pp_step s) t.steps;
  Format.fprintf fmt
    "  => process %s completed %d fences; total contention %d@."
    (Pid.to_string t.best_fences_pid)
    t.best_fences t.total_contention
