(* Turn a lock into a runnable machine configuration, plus the measurement
   helpers used by the evaluation experiments (E6) and the tests. *)

open Tsim

let config_of_lock ?(model = Config.Cc_wb) ?(ordering = Config.Tso)
    ?(max_passages = 1) ?(rmw_drains = true) ?(check_exclusion = true)
    ?(crash_semantics = Config.Drop_buffer) (lock : Lock_intf.t) ~n =
  if lock.Lock_intf.one_time && max_passages > 1 then
    invalid_arg
      (Printf.sprintf "%s is a one-time lock; max_passages must be 1"
         lock.Lock_intf.name);
  Config.make ~model ~ordering ~max_passages ~rmw_drains ~check_exclusion
    ~crash_semantics ?recovery:lock.Lock_intf.recovery
    ?abort_section:lock.Lock_intf.abort ~n
    ~layout:lock.Lock_intf.layout ~entry:lock.Lock_intf.entry
    ~exit_section:lock.Lock_intf.exit_section ()

let machine_of_lock ?model ?ordering ?max_passages ?rmw_drains
    ?check_exclusion ?crash_semantics (lock : Lock_intf.t) ~n =
  Machine.create
    (config_of_lock ?model ?ordering ?max_passages ?rmw_drains
       ?check_exclusion ?crash_semantics lock ~n)

(* Aggregate per-passage statistics after a run. *)
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
  completed : bool;  (* every process finished all its passages *)
}

let collect_stats ~lock_name m ~completed ~exclusion_ok =
  let cfg = Machine.config m in
  let passages = ref 0 in
  let rmrs = ref 0 and fences = ref 0 and criticals = ref 0 in
  let max_r = ref 0 and max_f = ref 0 in
  let max_iv = ref 0 and max_pt = ref 0 in
  for p = 0 to cfg.Config.n - 1 do
    passages := !passages + Machine.passages m p;
    Vec.iter
      (fun (s : Machine.passage_stats) ->
        rmrs := !rmrs + s.Machine.p_rmrs;
        fences := !fences + s.Machine.p_fences;
        criticals := !criticals + s.Machine.p_criticals;
        max_r := max !max_r s.Machine.p_rmrs;
        max_f := max !max_f s.Machine.p_fences;
        max_iv := max !max_iv s.Machine.p_interval;
        max_pt := max !max_pt s.Machine.p_point)
      (Machine.passage_log m p)
  done;
  let fpass = float_of_int (max 1 !passages) in
  {
    lock_name;
    model = cfg.Config.model;
    n = cfg.Config.n;
    passages = !passages;
    total_rmrs = !rmrs;
    total_fences = !fences;
    total_criticals = !criticals;
    max_rmrs_per_passage = !max_r;
    max_fences_per_passage = !max_f;
    avg_rmrs_per_passage = float_of_int !rmrs /. fpass;
    avg_fences_per_passage = float_of_int !fences /. fpass;
    max_interval_contention = !max_iv;
    max_point_contention = !max_pt;
    cs_entries = Machine.cs_entries m;
    exclusion_ok;
    completed;
  }

(* Run [k] of the [n] processes to completion under a schedule; the other
   n-k stay in their non-critical sections, so [k] is the total contention
   of the resulting execution. *)
type schedule = Rr | Rand of int (* seed *)

let run_contended ?(model = Config.Cc_wb) ?(max_passages = 1)
    ?(schedule = Rr) (lock : Lock_intf.t) ~n ~k =
  if k > n then invalid_arg "run_contended: k > n";
  let cfg = config_of_lock ~model ~max_passages lock ~n in
  let m = Machine.create cfg in
  let exclusion_ok = ref true in
  let completed = ref true in
  (try
     match schedule with
     | Rr ->
         let live = ref true in
         let steps = ref 0 in
         let budget = 50_000_000 in
         while !live && !steps < budget do
           live := false;
           for p = 0 to k - 1 do
             if Machine.passages m p < max_passages then begin
               live := true;
               (match Machine.pending m p with
               | Machine.P_done -> ()
               | _ ->
                   ignore (Machine.step m p);
                   incr steps)
             end
           done
         done;
         if !steps >= budget then completed := false
     | Rand seed ->
         let rng = Rng.create seed in
         let budget = ref 50_000_000 in
         let unfinished () =
           List.filter
             (fun p -> Machine.passages m p < max_passages)
             (List.init k Fun.id)
         in
         let rec loop () =
           match unfinished () with
           | [] -> ()
           | pids when !budget > 0 ->
               let p = Rng.pick rng pids in
               (match Machine.pending m p with
               | Machine.P_done -> ()
               | _ ->
                   ignore (Machine.step m p);
                   decr budget);
               loop ()
           | _ -> completed := false
         in
         loop ()
   with
  | Machine.Exclusion_violation _ -> exclusion_ok := false
  | Prog.Spin_exhausted _ -> completed := false);
  let stats =
    collect_stats ~lock_name:lock.Lock_intf.name m ~completed:!completed
      ~exclusion_ok:!exclusion_ok
  in
  (m, stats)
