(* The lower-bound adversary (Section 4 of the paper), executable.

   The paper builds executions H_0, H_1, ... inductively; each step runs a
   read phase (Lemma 6), a write phase (Lemma 7) and a regularization phase
   (Lemma 8), erasing processes so that the surviving active processes stay
   mutually invisible (an IN-set) while every survivor completes one more
   fence per step and exactly one process finishes its passage.

   This module drives a *real algorithm implementation* through the same
   structure. Because implementations mix operation kinds more freely than
   the proof's canonical form (and may use comparison primitives, which the
   paper's tradeoff covers), the three phases are realized as a unified
   round loop: each round classifies every active process by the special
   event it is about to execute and applies the corresponding case:

   - read round          = read phase case II (Turán independent set over
                           the conflict graph, interleaved critical reads)
   - fence-begin round   = read phase case I
   - write-low round     = write phase case II (distinct variables)
   - write-high round    = write phase case III (one hot variable,
                           commits in increasing ID order)
   - fence-end round     = write phase case I, followed by the
                           regularization phase for p_max
   - rmw round           = comparison-primitive contention: the designated
                           winner executes first (becoming visible), the
                           losers' CAS attempts fail and each costs them a
                           fence — then the winner is regularized, so the
                           losers end up aware only of a *finished*
                           process, preserving invisibility.

   Erasure is performed by deterministic replay (lib/trace); any replay
   divergence means an invisibility invariant was broken and aborts the
   run with [Stuck]. *)

open Tsim
open Tsim.Ids
open Execution

exception Stuck of string

let stuckf fmt = Printf.ksprintf (fun s -> raise (Stuck s)) fmt

type cls =
  | C_read of Var.t
  | C_fence_begin
  | C_fence_end
  | C_commit of Var.t
  | C_rmw of Var.t * [ `Cas | `Faa | `Swap ]
  | C_cs

type t = {
  cfg : Config.t;
  target : string;
  n : int;
  mutable m : Machine.t;
  mutable act : Pidset.t;
  mutable fin : Pidset.t;
  mutable rounds_cur : Report.round list;  (* current step, reversed *)
  mutable steps : Report.step list;  (* reversed *)
  mutable step_idx : int;
  advance_fuel : int;
  audit : bool;  (* run IN-set checks at each step boundary *)
  no_independent_sets : bool;
      (* ablation: keep every reader/writer instead of a Turán independent
         set — invisibility breaks, which the audit and erasure replay
         detect (experiment E10) *)
  no_regularization : bool;
      (* ablation: do NOT finish the visible max-ID process after
         write-high/RMW rounds. The paper's Lemma 8 exists precisely
         because the other survivors are aware of p_max; leaving it active
         breaks IN1 and makes subsequent erasures diverge (experiment E10) *)
  mutable audit_failures : string list;
  mutable flow : Analysis.Flow.summary;
      (* the audit's fold over [m]'s trace, fed up to the last audited step
         boundary; a fresh one whenever [erase] replaces [m] *)
  obs : Obs.Telemetry.t;
}

let create ?(model = Config.Cc_wb) ?(advance_fuel = 200_000) ?(audit = false)
    ?(no_independent_sets = false) ?(no_regularization = false)
    ?(obs = Obs.Telemetry.null) (lock : Locks.Lock_intf.t) ~n =
  let cfg =
    Locks.Harness.config_of_lock ~model ~max_passages:1 ~check_exclusion:true
      lock ~n
  in
  let m = Machine.create cfg in
  (* H_0: every process executes Enter only *)
  for p = 0 to n - 1 do
    (match Machine.pending m p with
    | Machine.P_enter -> ignore (Machine.step m p)
    | _ -> assert false)
  done;
  {
    cfg;
    target = lock.Locks.Lock_intf.name;
    n;
    m;
    act = List.fold_left (fun s p -> Pidset.add p s) Pidset.empty (List.init n Fun.id);
    fin = Pidset.empty;
    rounds_cur = [];
    steps = [];
    step_idx = 0;
    advance_fuel;
    audit;
    no_independent_sets;
    no_regularization;
    audit_failures = [];
    flow = Analysis.Flow.create cfg.Config.layout;
    obs;
  }

let machine t = t.m
let active t = t.act
let finished t = t.fin

(* --- erasure --------------------------------------------------------- *)

let erase t (y : Pidset.t) =
  if not (Pidset.is_empty y) then begin
    let tr = Trace.of_machine t.m in
    let r = Erasure.erase t.cfg tr y in
    if r.Erasure.mismatches <> [] then
      stuckf "erasure replay mismatch (%s): %s"
        (String.concat "," (List.map Pid.to_string (Pidset.elements y)))
        (match r.Erasure.mismatches with
        | m :: _ -> m.Erasure.reason
        | [] -> "");
    if r.Erasure.value_divergences > 0 then
      stuckf "erasure caused %d value divergences: erased set was visible"
        r.Erasure.value_divergences;
    t.m <- r.Erasure.machine;
    if t.audit then t.flow <- Analysis.Flow.create t.cfg.Config.layout;
    t.act <- Pidset.diff t.act y
  end

(* --- advancing a process to its next decision point ------------------- *)

(* Run [p] through non-special events; auto-complete implicit (RMW-drain)
   EndFence events, which are fences the process is charged for but which
   lead directly to the RMW decision point. *)
let advance t p : cls =
  let rec go fuel =
    if fuel <= 0 then
      stuckf "advance: p%d exceeded fuel at %s (livelock or broken invariant)"
        p
        (Machine.pending_to_string (Machine.pending t.m p))
    else
      match Machine.pending t.m p with
      | Machine.P_done -> stuckf "advance: active p%d is finished" p
      | Machine.P_enter -> stuckf "advance: active p%d back in NCS" p
      | Machine.P_recover ->
          stuckf "advance: active p%d crashed (construction is failure-free)"
            p
      | Machine.P_abort_done ->
          stuckf "advance: active p%d aborted (construction is failure-free)"
            p
      | Machine.P_exit ->
          stuckf "advance: p%d in exit section outside regularization" p
      | pending when not (Machine.pending_is_special t.m p) ->
          ignore pending;
          ignore (Machine.step t.m p);
          go (fuel - 1)
      | Machine.P_end_fence
        when (Machine.proc t.m p).Machine.fence_implicit ->
          ignore (Machine.step t.m p);
          go (fuel - 1)
      | Machine.P_read v -> C_read v
      | Machine.P_begin_fence | Machine.P_rmw_fence -> C_fence_begin
      | Machine.P_end_fence -> C_fence_end
      | Machine.P_commit v -> C_commit v
      | Machine.P_cas (v, _, _) -> C_rmw (v, `Cas)
      | Machine.P_faa (v, _) -> C_rmw (v, `Faa)
      | Machine.P_swap (v, _) -> C_rmw (v, `Swap)
      | Machine.P_cs -> C_cs
      | Machine.P_issue_write _ | Machine.P_marker _ ->
          (* never special: the non-special guard above steps through them *)
          assert false
  in
  go t.advance_fuel

let classify_all t : (Pid.t * cls) list =
  List.map (fun p -> (p, advance t p)) (Pidset.elements t.act)

(* --- regularization phase (Lemma 8) ----------------------------------- *)

(* Let [p] run to the end of its passage. Before each of its critical
   events on a variable u, erase the (at most one, Claim 4.3.2) active
   process that is visible on u or owns u, so that no information about
   invisible processes flows to [p]. *)
let regularize t p =
  Obs.Telemetry.span t.obs ~args:[ ("pid", Obs.Json.Int p) ]
    "adversary.regularize"
  @@ fun () ->
  let erased_total = ref Pidset.empty in
  let rec go fuel =
    if fuel <= 0 then stuckf "regularize: p%d exceeded fuel" p
    else
      match Machine.pending t.m p with
      | Machine.P_done -> ()
      | pending ->
          let special = Machine.pending_is_special t.m p in
          let target_var =
            match pending with
            | Machine.P_read v | Machine.P_commit v
            | Machine.P_cas (v, _, _) | Machine.P_faa (v, _)
            | Machine.P_swap (v, _) ->
                if special then Some v else None
            | _ -> None
          in
          (match target_var with
          | Some u ->
              let w = Pidset.remove p t.act in
              let q =
                match Machine.writer_of t.m u with
                | Some q when Pidset.mem q w -> Pidset.singleton q
                | _ -> Pidset.empty
              in
              let q_u =
                match Layout.owner t.cfg.Config.layout u with
                | Some q when Pidset.mem q w -> Pidset.singleton q
                | _ -> Pidset.empty
              in
              let to_erase = Pidset.union q q_u in
              if Pidset.cardinal to_erase > 1 then
                stuckf
                  "regularize: Claim 4.3.2 violated at v%d (|Q| = %d)" u
                  (Pidset.cardinal to_erase);
              erased_total := Pidset.union !erased_total to_erase;
              erase t to_erase
          | None -> ());
          ignore (Machine.step t.m p);
          go (fuel - 1)
  in
  go t.advance_fuel;
  t.act <- Pidset.remove p t.act;
  t.fin <- Pidset.add p t.fin;
  !erased_total

(* --- round bookkeeping ------------------------------------------------ *)

let record_round ?(detail = "") t kind ~act_before ~erased =
  t.rounds_cur <-
    {
      Report.kind;
      act_before;
      act_after = Pidset.cardinal t.act;
      erased;
      trace_len = Vec.length (Machine.trace t.m);
      detail;
    }
    :: t.rounds_cur;
  if Obs.Telemetry.enabled t.obs then begin
    let c = Obs.Telemetry.counter t.obs in
    Obs.Telemetry.incr (c "adversary.rounds");
    Obs.Telemetry.add (c "adversary.erased") (Pidset.cardinal erased);
    Obs.Telemetry.set (c "adversary.act") (Pidset.cardinal t.act);
    Obs.Telemetry.instant t.obs
      ~args:
        [ ("act_before", Obs.Json.Int act_before);
          ("act_after", Obs.Json.Int (Pidset.cardinal t.act));
          ("erased", Obs.Json.Int (Pidset.cardinal erased));
          ("detail", Obs.Json.String detail) ]
      ("adversary." ^ Report.round_kind_name kind)
  end

let stats_over_act t =
  Pidset.fold
    (fun p (fmin, fmax, cmin, cmax) ->
      let f = Machine.fences_completed t.m p in
      let c = Machine.criticals t.m p in
      (min fmin f, max fmax f, min cmin c, max cmax c))
    t.act
    (max_int, 0, max_int, 0)

let close_step t ~finished_process ~regularization_erased =
  let fmin, fmax, cmin, cmax =
    if Pidset.is_empty t.act then (0, 0, 0, 0)
    else stats_over_act t
  in
  (if t.audit then begin
     (* resume the fold: feed only the events appended since the last
        boundary (or since the erasure that started [t.flow]) *)
     let trace = Machine.trace t.m in
     for i = Analysis.Flow.fed t.flow to Vec.length trace - 1 do
       Analysis.Flow.feed t.flow (Vec.get trace i)
     done;
     let v = Analysis.Inset.check_flow t.flow t.act in
     if not v.Analysis.Inset.ok then
       t.audit_failures <-
         List.map
           (fun viol ->
             Printf.sprintf "H_%d: %s: %s" (t.step_idx + 1)
               viol.Analysis.Inset.property viol.Analysis.Inset.detail)
           v.Analysis.Inset.violations
         @ t.audit_failures;
     (* Lemmas 6-8, conditions (2)/(3): at each step boundary every
        surviving active process has completed the same number of fences
        and executed the same number of critical events. *)
     if Pidset.cardinal t.act > 1 then begin
       if fmin <> fmax then
         t.audit_failures <-
           Printf.sprintf "H_%d: fence counts not uniform [%d..%d]"
             (t.step_idx + 1) fmin fmax
           :: t.audit_failures;
       if cmin <> cmax then
         t.audit_failures <-
           Printf.sprintf "H_%d: critical counts not uniform [%d..%d]"
             (t.step_idx + 1) cmin cmax
           :: t.audit_failures
     end
   end);
  t.steps <-
    {
      Report.index = t.step_idx;
      rounds = List.rev t.rounds_cur;
      finished_process;
      regularization_erased;
      act_size = Pidset.cardinal t.act;
      fin_size = Pidset.cardinal t.fin;
      min_fences = fmin;
      max_fences = fmax;
      min_criticals = cmin;
      max_criticals = cmax;
    }
    :: t.steps;
  t.rounds_cur <- [];
  t.step_idx <- t.step_idx + 1;
  if Obs.Telemetry.enabled t.obs then begin
    let c = Obs.Telemetry.counter t.obs in
    Obs.Telemetry.set (c "adversary.steps") t.step_idx;
    Obs.Telemetry.set (c "adversary.finished") (Pidset.cardinal t.fin);
    (* fences forced so far: every surviving active process has completed
       at least [fmin] fences (the lower-bound currency of Theorem 2) *)
    Obs.Telemetry.set (c "adversary.fences_forced") fmin;
    Obs.Telemetry.flush_counters t.obs;
    Obs.Telemetry.instant t.obs
      ~args:
        [ ("finished_process",
           match finished_process with
           | Some p -> Obs.Json.Int p
           | None -> Obs.Json.Null);
          ("reg_erased",
           Obs.Json.Int (Pidset.cardinal regularization_erased));
          ("act", Obs.Json.Int (Pidset.cardinal t.act));
          ("min_fences", Obs.Json.Int fmin);
          ("max_fences", Obs.Json.Int fmax) ]
      (Printf.sprintf "adversary.step_H%d" t.step_idx)
  end

(* --- the rounds -------------------------------------------------------- *)

let keep_only t (w : Pidset.t) =
  let victims = Pidset.diff t.act w in
  erase t victims;
  victims

(* Read phase, case II: conflict graph over the processes about to perform
   a critical read; edges connect a reader to the owner of and the process
   visible on its target variable (Section 4.1.1). *)
let read_round t readers =
  let act_before = Pidset.cardinal t.act in
  let detail = ref "" in
  let w =
    if t.no_independent_sets then Pidset.of_list (List.map fst readers)
    else begin
      let g = Graphs.Graph.create (List.map fst readers) in
      List.iter
        (fun (p, v) ->
          (match Layout.owner t.cfg.Config.layout v with
          | Some q -> Graphs.Graph.add_edge g p q
          | None -> ());
          match Machine.writer_of t.m v with
          | Some q -> Graphs.Graph.add_edge g p q
          | None -> ())
        readers;
      let is = Graphs.Turan.independent_set g in
      detail :=
        Printf.sprintf "conflict graph |V|=%d |E|=%d, kept %d (Turan >= %d)"
          (Graphs.Graph.order g) (Graphs.Graph.size g) (List.length is)
          (Graphs.Turan.guaranteed_size ~order:(Graphs.Graph.order g)
             ~avg_degree:(Graphs.Graph.average_degree g));
      if Obs.Telemetry.enabled t.obs then
        Obs.Telemetry.gauge t.obs "adversary.independent_set"
          (float_of_int (List.length is));
      Pidset.of_list is
    end
  in
  let erased = keep_only t w in
  (* interleave the critical reads *)
  Pidset.iter
    (fun p ->
      match Machine.pending t.m p with
      | Machine.P_read _ -> ignore (Machine.step t.m p)
      | other ->
          stuckf "read_round: p%d pending %s after erasure" p
            (Machine.pending_to_string other))
    w;
  record_round ~detail:!detail t Report.Read_round ~act_before ~erased

(* Read phase, case I: everyone about to begin a fence does so. *)
let fence_begin_round t fencers =
  let act_before = Pidset.cardinal t.act in
  let w = Pidset.of_list fencers in
  let erased = keep_only t w in
  Pidset.iter
    (fun p ->
      match Machine.pending t.m p with
      | Machine.P_begin_fence | Machine.P_rmw_fence ->
          ignore (Machine.step t.m p)
      | other ->
          stuckf "fence_begin_round: p%d pending %s" p
            (Machine.pending_to_string other))
    w;
  record_round t Report.Fence_begin_round ~act_before ~erased

(* Write phase, cases II and III (Section 4.2.1). *)
let write_round t writers =
  let act_before = Pidset.cardinal t.act in
  let vars = List.sort_uniq compare (List.map snd writers) in
  let nv = List.length vars and nw = List.length writers in
  if nv * nv >= nw then begin
    (* case II: low contention — one writer per variable, then an
       independent set that avoids owners and prior accessors *)
    let chosen =
      List.map
        (fun v -> (List.find (fun (_, u) -> u = v) writers, v))
        vars
      |> List.map (fun ((p, _), v) -> (p, v))
    in
    let w =
      if t.no_independent_sets then Pidset.of_list (List.map fst chosen)
      else begin
        let g = Graphs.Graph.create (List.map fst chosen) in
        List.iter
          (fun (p, v) ->
            (match Layout.owner t.cfg.Config.layout v with
            | Some q -> Graphs.Graph.add_edge g p q
            | None -> ());
            Pidset.iter
              (fun q -> if q <> p then Graphs.Graph.add_edge g p q)
              (Machine.accessed_set t.m v))
          chosen;
        let is = Graphs.Turan.independent_set g in
        if Obs.Telemetry.enabled t.obs then
          Obs.Telemetry.gauge t.obs "adversary.independent_set"
            (float_of_int (List.length is));
        Pidset.of_list is
      end
    in
    let erased = keep_only t w in
    Pidset.iter
      (fun p ->
        match Machine.pending t.m p with
        | Machine.P_commit _ -> ignore (Machine.step t.m p)
        | other ->
            stuckf "write_round(II): p%d pending %s" p
              (Machine.pending_to_string other))
      w;
    record_round
      ~detail:(Printf.sprintf "%d distinct variables" nv)
      t Report.Write_low_round ~act_before ~erased
  end
  else begin
    (* case III: high contention — keep the largest same-variable group and
       commit in increasing ID order; the max-ID process ends up visible *)
    let group_of v = List.filter (fun (_, u) -> u = v) writers in
    let v, group =
      List.fold_left
        (fun (bv, bg) v ->
          let g = group_of v in
          if List.length g > List.length bg then (v, g) else (bv, bg))
        (-1, []) vars
    in
    let w = Pidset.of_list (List.map fst group) in
    let erased = keep_only t w in
    List.iter
      (fun p ->
        match Machine.pending t.m p with
        | Machine.P_commit _ -> ignore (Machine.step t.m p)
        | other ->
            stuckf "write_round(III): p%d pending %s" p
              (Machine.pending_to_string other))
      (List.sort compare (List.map fst group));
    record_round
      ~detail:
        (Printf.sprintf "%d ID-ordered commits; p%d left visible"
           (List.length group)
           (Pidset.max_elt w))
      t (Report.Write_high_round v) ~act_before ~erased
  end

(* Write phase, case I: complete the fences, then regularize p_max. *)
let fence_end_round t enders =
  let act_before = Pidset.cardinal t.act in
  let w = Pidset.of_list enders in
  let erased = keep_only t w in
  Pidset.iter
    (fun p ->
      match Machine.pending t.m p with
      | Machine.P_end_fence -> ignore (Machine.step t.m p)
      | other ->
          stuckf "fence_end_round: p%d pending %s" p
            (Machine.pending_to_string other))
    w;
  record_round t Report.Fence_end_round ~act_before ~erased;
  (* regularization phase: the max-ID active process finishes its passage *)
  if t.no_regularization then
    close_step t ~finished_process:None ~regularization_erased:Pidset.empty
  else
    match Pidset.max_elt_opt t.act with
    | None -> ()
    | Some p_max ->
        let reg_erased = regularize t p_max in
        close_step t ~finished_process:(Some p_max)
          ~regularization_erased:reg_erased

(* Comparison-primitive contention. For CAS groups the designated winner
   (max ID) executes first and succeeds; the losers execute after it, fail,
   and have paid a fence for the drain. The winner is immediately
   regularized so the losers are aware only of a finished process. For
   FAA/SWAP groups every executor becomes visible, so only the winner is
   kept (e.g. a ticket lock's FAA cannot be made to retry — the adversary
   honestly gains nothing). *)
let rmw_round t rmws =
  let act_before = Pidset.cardinal t.act in
  let vars = List.sort_uniq compare (List.map (fun (_, v, _) -> v) rmws) in
  let group_of v = List.filter (fun (_, u, _) -> u = v) rmws in
  let v, group =
    List.fold_left
      (fun (bv, bg) v ->
        let g = group_of v in
        if List.length g > List.length bg then (v, g) else (bv, bg))
      (-1, []) vars
  in
  let all_cas = List.for_all (fun (_, _, op) -> op = `Cas) group in
  if all_cas then begin
    let pids = List.map (fun (p, _, _) -> p) group in
    let w = Pidset.of_list pids in
    let erased = keep_only t w in
    let p_max = Pidset.max_elt w in
    let order = p_max :: List.filter (fun p -> p <> p_max) (List.sort compare pids) in
    List.iter
      (fun p ->
        match Machine.pending t.m p with
        | Machine.P_cas _ -> ignore (Machine.step t.m p)
        | other ->
            stuckf "rmw_round: p%d pending %s" p
              (Machine.pending_to_string other))
      order;
    record_round
      ~detail:
        (Printf.sprintf "CAS group of %d; winner p%d scheduled first"
           (List.length group) p_max)
      t (Report.Rmw_round v) ~act_before ~erased;
    if t.no_regularization then
      close_step t ~finished_process:None ~regularization_erased:Pidset.empty
    else begin
      let reg_erased = regularize t p_max in
      close_step t ~finished_process:(Some p_max)
        ~regularization_erased:reg_erased
    end
  end
  else begin
    (* keep only the max-ID member of the hot group *)
    let p_max =
      List.fold_left (fun acc (p, _, _) -> max acc p) (-1) group
    in
    let erased = keep_only t (Pidset.singleton p_max) in
    ignore (Machine.step t.m p_max);
    record_round
      ~detail:"FAA/SWAP group: only the designated winner kept"
      t (Report.Rmw_round v) ~act_before ~erased;
    let reg_erased = regularize t p_max in
    close_step t ~finished_process:(Some p_max)
      ~regularization_erased:reg_erased
  end

(* A process reached its CS without a special event in between: the paper
   erases it (at most one such process exists, Lemma 5). *)
let cs_erase_round t cs_ready =
  let act_before = Pidset.cardinal t.act in
  let y = Pidset.of_list cs_ready in
  erase t y;
  record_round t Report.Cs_erase_round ~act_before ~erased:y

(* --- the main loop ----------------------------------------------------- *)

let one_round t =
  Obs.Telemetry.span t.obs "adversary.round" @@ fun () ->
  let classes = classify_all t in
  let cs = List.filter_map (fun (p, c) -> if c = C_cs then Some p else None) classes in
  if cs <> [] then cs_erase_round t cs
  else begin
    let reads =
      List.filter_map
        (fun (p, c) -> match c with C_read v -> Some (p, v) | _ -> None)
        classes
    in
    let bfences =
      List.filter_map
        (fun (p, c) -> if c = C_fence_begin then Some p else None)
        classes
    in
    let efences =
      List.filter_map
        (fun (p, c) -> if c = C_fence_end then Some p else None)
        classes
    in
    let commits =
      List.filter_map
        (fun (p, c) -> match c with C_commit v -> Some (p, v) | _ -> None)
        classes
    in
    let rmws =
      List.filter_map
        (fun (p, c) -> match c with C_rmw (v, op) -> Some (p, v, op) | _ -> None)
        classes
    in
    let sizes =
      [
        (`Reads, List.length reads);
        (`Bfences, List.length bfences);
        (`Commits, List.length commits);
        (`Rmws, List.length rmws);
        (`Efences, List.length efences);
      ]
    in
    let best, _ =
      List.fold_left
        (fun (bk, bs) (k, s) -> if s > bs then (k, s) else (bk, bs))
        (`Reads, -1) sizes
    in
    match best with
    | `Reads -> read_round t reads
    | `Bfences -> fence_begin_round t bfences
    | `Commits -> write_round t commits
    | `Rmws -> rmw_round t rmws
    | `Efences -> fence_end_round t efences
  end

let best_fences_anywhere t =
  let best = ref 0 and best_pid = ref 0 in
  for p = 0 to t.n - 1 do
    let f = Machine.fences_completed t.m p in
    if f > !best then begin
      best := f;
      best_pid := p
    end
  done;
  (!best, !best_pid)

let run ?(max_steps = 10_000) ?(max_rounds = 100_000) ?(min_act = 0)
    ?(stop = fun () -> false) t : Report.t =
  Obs.Telemetry.span t.obs
    ~args:[ ("target", Obs.Json.String t.target); ("n", Obs.Json.Int t.n) ]
    "adversary.run"
  @@ fun () ->
  let rounds = ref 0 and stopped = ref false in
  let outcome =
    try
      while
        Pidset.cardinal t.act > min_act
        && t.step_idx < max_steps && !rounds < max_rounds
        && not !stopped
      do
        if stop () then stopped := true
        else begin
          one_round t;
          incr rounds
        end
      done;
      if !stopped then Report.Stopped
      else if Pidset.cardinal t.act <= min_act then
        Report.Exhausted_active_processes
      else Report.Reached_step_limit
    with Stuck msg -> Report.Stuck msg
  in
  (* close a dangling partial step for reporting *)
  if t.rounds_cur <> [] then
    close_step t ~finished_process:None ~regularization_erased:Pidset.empty;
  let best_fences, best_fences_pid = best_fences_anywhere t in
  {
    Report.target = t.target;
    n = t.n;
    steps = List.rev t.steps;
    outcome;
    best_fences;
    best_fences_pid;
    total_contention = Trace.total_contention (Trace.of_machine t.m);
  }

let audit_failures t = List.rev t.audit_failures
