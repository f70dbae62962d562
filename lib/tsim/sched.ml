(* Generic schedulers over the machine.

   The lower-bound adversary (lib/adversary) drives the machine directly;
   the schedulers here serve the rest of the system: correctness testing
   (random interleavings), throughput measurement (round robin), and the
   paper's canonical schedule that delays commits as long as possible. *)

open Ids

type outcome = {
  steps_taken : int;
  all_finished : bool;
  livelocked : Pid.t option;  (* a process whose spin fuel ran out *)
}

let runnable m p =
  match Machine.pending m p with Machine.P_done -> false | _ -> true

let live_pids m =
  let n = Machine.n_procs m in
  let rec go p acc = if p < 0 then acc else go (p - 1) (if runnable m p then p :: acc else acc) in
  go (n - 1) []

(* Round-robin over live processes; each quantum executes up to
   [quantum] events of one process. *)
let round_robin ?(quantum = 1) ?(max_steps = 10_000_000) m =
  let n = Machine.n_procs m in
  let steps = ref 0 in
  let live = ref n in
  (try
     while !live > 0 && !steps < max_steps do
       live := 0;
       for p = 0 to n - 1 do
         if runnable m p then begin
           incr live;
           let q = ref 0 in
           while !q < quantum && runnable m p && !steps < max_steps do
             ignore (Machine.step m p);
             incr steps;
             incr q
           done
         end
       done
     done;
     ()
   with Prog.Spin_exhausted _ -> ());
  { steps_taken = !steps; all_finished = live_pids m = []; livelocked = None }

(* Uniformly random scheduling; with probability [commit_bias] prefer to
   commit a buffered write of the chosen process even outside fences,
   exercising TSO's delayed-visibility behaviours. Under PSO ordering the
   committed write is chosen uniformly from the buffer (out-of-order
   commits), not just the oldest.

   With [crash_prob > 0] and a [max_crashes] budget, the chosen process is
   instead crashed with that probability (when it is crashable and budget
   remains); under [Atomic_prefix] semantics the committed buffer prefix
   length is drawn uniformly. Crashed processes stay in the live set —
   stepping one executes its recovery transition. [abort_prob] works the
   same way against the [max_aborts] budget: when the chosen process sits
   at a declared wait point ([Machine.abort_deliverable]), its
   acquisition attempt is aborted instead of stepped. *)
let random ?(seed = 42) ?(commit_bias = 0.3) ?(crash_prob = 0.0)
    ?(max_crashes = 0) ?(abort_prob = 0.0) ?(max_aborts = 0)
    ?(max_steps = 10_000_000) m =
  let rng = Rng.create seed in
  let steps = ref 0 in
  let livelocked = ref None in
  let cfg = Machine.config m in
  let pso = cfg.Config.ordering = Config.Pso in
  let crashable p =
    match (Machine.proc m p).Machine.sec with
    | Machine.Ncs | Machine.Entry | Machine.Exiting | Machine.Aborting ->
        true
    | Machine.Crashed | Machine.Finished -> false
  in
  (try
     let rec loop () =
       if !steps >= max_steps then ()
       else
         match live_pids m with
         | [] -> ()
         | pids ->
             let p = Rng.pick rng pids in
             let buf = (Machine.proc m p).Machine.buf in
             (if
                crash_prob > 0.0
                && Machine.crashes_total m < max_crashes
                && crashable p
                && Rng.float rng < crash_prob
              then
                let commit_prefix =
                  match cfg.Config.crash_semantics with
                  | Config.Atomic_prefix ->
                      Some (Rng.int rng (Wbuf.size buf + 1))
                  | Config.Drop_buffer | Config.Flush_buffer -> None
                in
                ignore (Machine.crash ?commit_prefix m p)
              else if
                abort_prob > 0.0
                && Machine.aborts_total m < max_aborts
                && Machine.abort_deliverable m p
                && Rng.float rng < abort_prob
              then ignore (Machine.abort m p)
              else if
                (not (Wbuf.is_empty buf)) && Rng.float rng < commit_bias
              then
                if pso then
                  let v = Rng.pick rng (Wbuf.vars buf) in
                  ignore (Machine.commit_var m p v)
                else ignore (Machine.commit m p)
              else ignore (Machine.step m p));
             incr steps;
             loop ()
     in
     loop ()
   with Prog.Spin_exhausted _ -> livelocked := Some (-1));
  {
    steps_taken = !steps;
    all_finished = live_pids m = [];
    livelocked = !livelocked;
  }

(* Run a single process solo until it finishes all its passages. *)
let solo ?(max_steps = 1_000_000) m p =
  let steps = ref 0 in
  while runnable m p && !steps < max_steps do
    ignore (Machine.step m p);
    incr steps
  done;
  { steps_taken = !steps; all_finished = not (runnable m p); livelocked = None }
