(* Bounded exhaustive schedule exploration.

   Explores EVERY scheduler decision sequence of a configuration up to a
   node budget: at each state the enabled moves are "let process p execute
   its next event" and "commit p's oldest buffered write" (the TSO
   adversary's full power; under PSO also any out-of-order commit).
   Reports exclusion violations (with the offending schedule), deadlocks
   (unfinished processes with no productive move), and whether the space
   was exhausted within budget.

   This is what makes the Laws-of-Order premise checkable here: removing
   the fence from a read/write mutex must produce a reachable exclusion
   violation, and the explorer exhibits the schedule (experiment E12).

   The hot path is tuned for throughput (see DESIGN.md "Exploration
   performance"): machines run with [record_trace = false] so clones are
   O(state); states are fingerprinted by an XOR fold of Zobrist terms
   (one per shared variable, one per process) that the journal keeps up
   to date incrementally; and [~domains:k] runs k workers of one loop —
   the calling domain is worker 0 and starts at the root, k − 1 helper
   domains start by stealing — which share one sharded fingerprint store
   ({!Fpstore}) and one node-budget pool and load-balance through
   Chase–Lev work-stealing deques ({!Deque}) — see DESIGN.md §5f.

   On top of that sits a dynamic partial-order reduction (on by default,
   [~por:false] to disable), combining three classic ingredients over the
   independence relation of {!Footprint}:

   - singleton ample sets: when some process's only enabled move is a
     purely-local step (no shared access, no CS check), that move is
     globally independent, so exploring it alone covers every
     interleaving — the other processes' moves commute past it. This is
     what shrinks the *state space*: interleavings of local steps with
     remote progress are never generated.

   - sleep sets: after exploring move [a] at a state, sibling subtrees
     need not re-explore executions starting with [a]-then-independent
     prefixes; [a] is put to sleep in each later sibling's subtree until
     a dependent move wakes it (drops it from the set).

   - mask-aware state caching: the seen store keeps, per fingerprint,
     the moves not yet explored from it — the sleep mask it was explored
     with. A revisit with sleep [z] against
     a stored [z'] prunes when [z' ⊆ z] (everything the revisit would do
     was done), and otherwise re-explores only the missing moves (sleep
     [z ∪ ¬z']) while storing [z ∩ z']. With POR off (or a move space too
     large to encode in a word) all masks are 0 and this degenerates to
     exactly the plain fingerprint dedup of the previous engine.

   See explore.mli for the soundness argument. *)

open Tsim
open Tsim.Ids

type move = Footprint.move =
  | Step of Pid.t
  | Commit of Pid.t
  | Commit_var of Pid.t * Var.t
  | Crash of Pid.t * int
  | Recover of Pid.t
  | Abort of Pid.t

let move_to_string = function
  | Step p -> Printf.sprintf "step %s" (Pid.to_string p)
  | Commit p -> Printf.sprintf "commit %s" (Pid.to_string p)
  | Commit_var (p, v) ->
      Printf.sprintf "commit %s v%d" (Pid.to_string p) (Var.to_int v)
  | Crash (p, 0) -> Printf.sprintf "crash %s" (Pid.to_string p)
  | Crash (p, k) -> Printf.sprintf "crash %s %d" (Pid.to_string p) k
  | Recover p -> Printf.sprintf "recover %s" (Pid.to_string p)
  | Abort p -> Printf.sprintf "abort %s" (Pid.to_string p)

(* Inverse of [move_to_string]. Tolerates surrounding whitespace but is
   otherwise strict: pids are "p<i>", variables "v<i>", both >= 0; a
   crash's commit-prefix length is a bare non-negative int (omitted when
   zero). *)
let move_of_string s =
  let int_after prefix tok =
    if String.length tok >= 2 && tok.[0] = prefix then
      match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
      | Some i when i >= 0 -> Some i
      | _ -> None
    else None
  in
  let nat tok =
    match int_of_string_opt tok with
    | Some i when i >= 0 -> Some i
    | _ -> None
  in
  let words =
    String.split_on_char ' ' (String.trim s)
    |> List.filter (fun w -> w <> "")
  in
  match words with
  | [ "step"; p ] ->
      Option.map (fun p -> Step (Pid.of_int p)) (int_after 'p' p)
  | [ "commit"; p ] ->
      Option.map (fun p -> Commit (Pid.of_int p)) (int_after 'p' p)
  | [ "commit"; p; v ] -> (
      match (int_after 'p' p, int_after 'v' v) with
      | Some p, Some v -> Some (Commit_var (Pid.of_int p, Var.of_int v))
      | _ -> None)
  | [ "crash"; p ] ->
      Option.map (fun p -> Crash (Pid.of_int p, 0)) (int_after 'p' p)
  | [ "crash"; p; k ] -> (
      match (int_after 'p' p, nat k) with
      | Some p, Some k -> Some (Crash (Pid.of_int p, k))
      | _ -> None)
  | [ "recover"; p ] ->
      Option.map (fun p -> Recover (Pid.of_int p)) (int_after 'p' p)
  | [ "abort"; p ] ->
      Option.map (fun p -> Abort (Pid.of_int p)) (int_after 'p' p)
  | _ -> None

(* --- schedule (de)serialization --------------------------------------- *)

(* One move per line; '#' comments and blank lines are ignored on input so
   corpus fixtures can carry provenance headers. *)

let schedule_to_string schedule =
  String.concat "" (List.map (fun mv -> move_to_string mv ^ "\n") schedule)

let schedule_of_string text =
  let lines = String.split_on_char '\n' text in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let body =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        if String.trim body = "" then go acc (lineno + 1) rest
        else
          match move_of_string body with
          | Some mv -> go (mv :: acc) (lineno + 1) rest
          | None ->
              Error
                (Printf.sprintf "line %d: unparsable move %S" lineno
                   (String.trim body)))
  in
  go [] 1 lines

let save_schedule file schedule =
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc (schedule_to_string schedule))

let load_schedule file =
  match In_channel.with_open_text file In_channel.input_all with
  | text -> schedule_of_string text
  | exception Sys_error msg -> Error msg

type violation = {
  schedule : move list;  (* the decision sequence reaching the bug *)
  kind : [ `Exclusion of Pid.t * Pid.t | `Deadlock | `Spin_exhausted ];
}

type partial_reason = [ `Nodes | `Millis | `Violations | `Aborts ]

let partial_reason_name = function
  | `Nodes -> "node budget"
  | `Millis -> "time budget"
  | `Violations -> "violation cap"
  | `Aborts -> "abort request (interrupt)"

(* Search-internals accounting, kept as plain int bumps on the hot path
   (a handful of increments against a ~2µs/node budget) and surfaced both
   in the result and — at heartbeat granularity — through the telemetry
   hub. *)
type stats = {
  dedup_hits : int;  (* revisits pruned by the seen store *)
  resleeps : int;  (* mask-aware re-explorations of a seen state *)
  sleep_prunes : int;  (* moves skipped because asleep *)
  ample_chains : int;  (* singleton-ample selections (chains started) *)
  ample_fused : int;  (* local moves fused through those chains *)
  seen_entries : int;  (* seen-store occupancy (shared store: global) *)
  crashes_applied : int;  (* crash moves executed *)
  aborts_applied : int;  (* abort moves executed *)
  domains_used : int;
  domain_nodes : int list;  (* per-worker node counts, worker 0 first *)
  merge_stall_us : int;
      (* idle window of the workers that finished before the last one —
         load-imbalance cost paid at the join *)
  journal_peak : int;
      (* high-water undo-log depth (max over workers) *)
  undo_records : int;  (* total undo records pushed *)
  steals : int;  (* work items taken from other workers *)
  store_capacity : int;  (* seen store: slots (exact) or bits (bitstate) *)
  omission_prob : float;
      (* bitstate store: estimated probability that the next distinct
         state falsely aliases as seen — (ones/m)^k at final fill *)
}

let zero_stats =
  { dedup_hits = 0; resleeps = 0; sleep_prunes = 0; ample_chains = 0;
    ample_fused = 0; seen_entries = 0; crashes_applied = 0;
    aborts_applied = 0; domains_used = 1;
    domain_nodes = []; merge_stall_us = 0; journal_peak = 0;
    undo_records = 0; steals = 0; store_capacity = 0;
    omission_prob = 0.0 }

type result = {
  nodes : int;  (* states expanded *)
  exhausted : bool;  (* the whole space was explored within budget *)
  verified : bool;  (* exhausted with no violations *)
  violations : violation list;
  max_depth : int;
  partial : partial_reason option;
      (* why the search stopped early, when it did ([None] iff exhausted) *)
  stats : stats;
}

(* One-line verdict + exit code for front ends: 0 verified, 1 violations
   found, 3 partial (budget exhausted with nothing found — NOT a
   verification; conflating it with exit 0 was a CLI bug). A "verified"
   whose coverage is qualified by bitstate aliasing carries the
   confession on the verdict line itself, not only in --search-stats. *)
let render_verdict r =
  if r.verified then
    ( "VERIFIED: no exclusion violation or deadlock in the full \
       (deduplicated) schedule space"
      ^ (if r.stats.omission_prob > 0.0 then
           Printf.sprintf
             " (bitstate: distinct states may have aliased, omission \
              probability %.2e)"
             r.stats.omission_prob
         else ""),
      0 )
  else if r.violations <> [] then
    let kind_name = function
      | `Exclusion _ -> "exclusion violation"
      | `Deadlock -> "deadlock"
      | `Spin_exhausted -> "spin exhaustion"
    in
    let first =
      match r.violations with v :: _ -> kind_name v.kind | [] -> "?"
    in
    ( Printf.sprintf "VIOLATION: %d found in %d states (first: %s)"
        (List.length r.violations) r.nodes first,
      1 )
  else
    let reason =
      match r.partial with
      | Some reason -> partial_reason_name reason
      | None -> "search interruption"
    in
    ( Printf.sprintf
        "PARTIAL: stopped by %s after %d states with no violation found — \
         not a verification"
        reason r.nodes,
      3 )

(* Move values are immutable, so the ubiquitous [Step p] / [Commit p] /
   [Recover p] boxes are shared across calls (and domains) instead of
   being re-allocated by every [enabled_moves]; [Commit_var] and [Crash]
   carry state-dependent payloads and stay per-call. *)
let boxed_pids = 64
let step_box = Array.init boxed_pids (fun p -> Step (Pid.of_int p))
let commit_box = Array.init boxed_pids (fun p -> Commit (Pid.of_int p))
let recover_box = Array.init boxed_pids (fun p -> Recover (Pid.of_int p))
let abort_box = Array.init boxed_pids (fun p -> Abort (Pid.of_int p))
let[@inline] step_move p = if p < boxed_pids then step_box.(p) else Step p

let[@inline] commit_move p =
  if p < boxed_pids then commit_box.(p) else Commit p

let[@inline] recover_move p =
  if p < boxed_pids then recover_box.(p) else Recover p

let[@inline] abort_move p = if p < boxed_pids then abort_box.(p) else Abort p

let enabled_moves ?(max_crashes = 0) ?(max_aborts = 0) m =
  let n = Machine.n_procs m in
  let pso = (Machine.config m).Config.ordering = Config.Pso in
  let budget_left = Machine.crashes_total m < max_crashes in
  let abort_left = Machine.aborts_total m < max_aborts in
  let semantics = (Machine.config m).Config.crash_semantics in
  let moves = ref [] in
  for p = n - 1 downto 0 do
    (match Machine.pending_class m p with
    | Machine.K_done -> ()
    | Machine.K_recover -> moves := recover_move p :: !moves
    | _ ->
        moves := step_move p :: !moves;
        (* abort faults: only at declared wait points, while budget
           remains and the configuration is abortable *)
        if abort_left && Machine.abort_deliverable m p then
          moves := abort_move p :: !moves;
        (* crash faults, while budget remains: the prefix length is the
           adversary's choice under Atomic_prefix, forced otherwise *)
        if budget_left then begin
          let size = Wbuf.size (Machine.proc m p).Machine.buf in
          match semantics with
          | Config.Drop_buffer -> moves := Crash (p, 0) :: !moves
          | Config.Flush_buffer -> moves := Crash (p, size) :: !moves
          | Config.Atomic_prefix ->
              for k = size downto 0 do
                moves := Crash (p, k) :: !moves
              done
        end);
    (* explicit commits: under TSO only the oldest write may commit (and
       only outside fences — inside, Step already commits); under PSO the
       adversary may commit ANY buffered write at any time *)
    let pr = Machine.proc m p in
    if pso then
      List.iter
        (fun v -> moves := Commit_var (p, v) :: !moves)
        (Wbuf.vars pr.Machine.buf)
    else if (not pr.Machine.in_fence) && not (Wbuf.is_empty pr.Machine.buf)
    then moves := commit_move p :: !moves
  done;
  !moves

let apply m = function
  | Step p -> ignore (Machine.step m p)
  | Commit p -> ignore (Machine.commit m p)
  | Commit_var (p, v) -> ignore (Machine.commit_var m p v)
  | Crash (p, k) -> ignore (Machine.crash ~commit_prefix:k m p)
  | Abort p -> ignore (Machine.abort m p)
  | Recover p ->
      if Machine.pending m p <> Machine.P_recover then
        invalid_arg
          (Printf.sprintf "recover %s: process is not crashed"
             (Pid.to_string p));
      ignore (Machine.step m p)

(* --- fingerprinting --------------------------------------------------- *)

(* The fingerprint lives in {!Machine} since PR 5: a packed 63-bit XOR
   fold of per-variable Zobrist terms and per-process terms, chosen so
   the explorer can maintain it incrementally from undo records
   (O(1) per memory write plus one process-term refresh per event). The
   state abstraction is unchanged — memory, pending events, sections,
   passage/crash counts, continuations, buffered writes. *)
let fingerprint = Machine.fingerprint

(* --- search core ------------------------------------------------------ *)

exception Done

(* A parked subtree: an independent machine plus the search coordinates
   to resume it. Every parked item has already been admitted by the
   shared store (its state is claimed), so the worker that pops it
   resumes with [run_start] directly. The root is the first item of
   worker 0. *)
type work_item = {
  w_m : Machine.t;
  w_sched : move list;
  w_depth : int;
  w_sleep : int;
}

(* Mutable search state, one [ctx] per worker. Violation caps and tallies
   are worker-local; the seen store, the node-budget pool and the [halt]
   flag are shared by the workers of one search.

   [quota] is the locally claimed slice of the node budget; when it runs
   out the ctx claims another chunk from [pool] (CAS), or stops when the
   pool is drained.

   [deque] is the worker's work-stealing deque when it has fellow
   workers: a successor state just admitted by the seen store may be
   cloned and parked there for thieves instead of recursed into. *)
type ctx = {
  seen : Fpstore.t;
  por : bool;
  codec : Footprint.codec;
  sleepable : bool;  (* por && codec.encodable *)
  paranoid : bool;  (* cross-check incremental fingerprints per node *)
  on_fingerprint : (int -> unit) option;
  on_spin : [ `Prune | `Violation ];
  pool : int Atomic.t;  (* node budget not yet claimed by any worker *)
  budget : int;  (* the pool's initial size *)
  halt : bool Atomic.t;  (* a worker raised: the others stop at a poll *)
  deque : work_item Deque.t option;  (* [None] when working alone *)
  max_violations : int;
  max_crashes : int;  (* crash faults the adversary may inject, total *)
  max_aborts : int;  (* abort faults the adversary may inject, total *)
  stop : bool Atomic.t option;
      (* external interrupt flag (SIGINT): polled with the deadline;
         raises the typed `Aborts partial verdict instead of dying *)
  deadline : float option;  (* absolute wall-clock cutoff *)
  obs : Obs.Telemetry.t;  (* Telemetry.null when no sink is attached *)
  decoded : move array;
      (* [decode codec] memoized per code — sleeping moves are revisited
         every [filter_sleep], and decoding allocates *)
  fp_a : Footprint.t;  (* scratch footprints for {!Footprint.of_move_into} *)
  fp_b : Footprint.t;
  mutable quota : int;  (* locally claimed node budget remaining *)
  mutable pid_counts : int array;
      (* scratch for [singleton_ample_journal]'s per-pid move tally,
         grown on demand — the explorer's only per-node [Array.make] was
         here *)
  mutable nodes : int;
  mutable max_depth : int;
  mutable nviol : int;  (* = List.length violations, kept O(1) *)
  mutable violations : violation list;  (* newest first *)
  mutable stopped : partial_reason option;  (* why Done was raised *)
  (* search-internals tallies (see [stats]) *)
  mutable c_dedup : int;
  mutable c_resleeps : int;
  mutable c_sleep_prunes : int;
  mutable c_chains : int;
  mutable c_fused : int;
  mutable c_crashes : int;
  mutable c_aborts : int;
  mutable c_jpeak : int;  (* max undo-log depth *)
  mutable c_jrecords : int;  (* undo records pushed *)
  mutable c_steals : int;  (* work items stolen from other domains *)
  (* heartbeat bookkeeping (only touched when [obs] is enabled) *)
  mutable hb_nodes : int;
  mutable hb_us : int;
  mutable hb_due_us : int;  (* next time-based heartbeat (us, hub clock) *)
}

let make_ctx ~seen ~pool ~halt ?deque ?on_fingerprint ~max_crashes ~max_aborts
    ?stop ?deadline ~obs ~paranoid ~por ~codec ~on_spin
    ~max_violations () =
  let sleepable = por && codec.Footprint.encodable in
  let decoded =
    if sleepable then
      Array.init codec.Footprint.total_bits (Footprint.decode codec)
    else [||]
  in
  { seen; por; codec;
    sleepable; decoded; fp_a = Footprint.make_scratch ();
    fp_b = Footprint.make_scratch (); paranoid; on_fingerprint;
    on_spin; pool; budget = Atomic.get pool; halt; deque; max_violations;
    max_crashes; max_aborts; stop; deadline;
    obs; quota = 0; pid_counts = [||];
    nodes = 0; max_depth = 0; nviol = 0; violations = []; stopped = None;
    c_dedup = 0; c_resleeps = 0; c_sleep_prunes = 0; c_chains = 0;
    c_fused = 0; c_crashes = 0; c_aborts = 0; c_jpeak = 0; c_jrecords = 0;
    c_steals = 0; hb_nodes = 0; hb_us = 0; hb_due_us = 0 }

let stats_of_ctx ctx =
  { zero_stats with
    dedup_hits = ctx.c_dedup; resleeps = ctx.c_resleeps;
    sleep_prunes = ctx.c_sleep_prunes; ample_chains = ctx.c_chains;
    ample_fused = ctx.c_fused; seen_entries = Fpstore.entries ctx.seen;
    crashes_applied = ctx.c_crashes; aborts_applied = ctx.c_aborts;
    domain_nodes = [ ctx.nodes ];
    journal_peak = ctx.c_jpeak; undo_records = ctx.c_jrecords;
    steals = ctx.c_steals; store_capacity = Fpstore.capacity ctx.seen;
    omission_prob = Fpstore.omission_prob ctx.seen }

(* Charge the node budget for one expansion: burn local quota, then
   claim another chunk from the shared pool. Chunked claims (256 nodes)
   keep the pool CAS off the hot path; a lone worker spends the budget
   exactly, and several never spend more than it between them. *)
let budget_chunk = 256

let rec claim ctx =
  let avail = Atomic.get ctx.pool in
  if avail <= 0 then false
  else
    let take = if avail < budget_chunk then avail else budget_chunk in
    if Atomic.compare_and_set ctx.pool avail (avail - take) then begin
      ctx.quota <- take - 1;
      true
    end
    else claim ctx

let charge ctx =
  if ctx.quota > 0 then begin
    ctx.quota <- ctx.quota - 1;
    true
  end
  else claim ctx

(* The explore.* counters, from a [stats] record: the heartbeat's live
   snapshot and [explore]'s final one publish the same list. *)
let publish_counters obs ~nodes ~violations (s : stats) =
  let set name v = Obs.Telemetry.set (Obs.Telemetry.counter obs name) v in
  set "explore.nodes" nodes;
  set "explore.dedup_hits" s.dedup_hits;
  set "explore.sleep_prunes" s.sleep_prunes;
  set "explore.ample_fused" s.ample_fused;
  set "explore.seen_entries" s.seen_entries;
  set "explore.crashes_applied" s.crashes_applied;
  set "explore.aborts_applied" s.aborts_applied;
  set "explore.violations" violations;
  set "explore.steals" s.steals;
  Obs.Telemetry.flush_counters obs

(* Heartbeat: push counter snapshots, the instantaneous nodes/sec and
   the current DFS depth to the sinks. Cadence is time-based
   (~1 Hz): the deadline/stop poll still runs every 1024 expansions, and
   a heartbeat is emitted from it only once [hb_due_us] has passed — so
   a fast search pays one [now_us] read per 1024 nodes and one sink
   write per second, while a slow search (< 1024 nodes/s) simply beats
   on every poll. All of this is behind [Telemetry.enabled] — with no
   sink attached the explorer never reaches here. Only worker 0 holds the
   hub: its node count is every worker's (the budget drawn from the
   shared pool, less its own unspent quota), the other tallies are its
   own. *)
let heartbeat ctx depth now =
  let obs = ctx.obs in
  let nodes = ctx.budget - Atomic.get ctx.pool - ctx.quota in
  publish_counters obs ~nodes ~violations:ctx.nviol (stats_of_ctx ctx);
  Obs.Telemetry.gauge obs "explore.frontier_depth" (float_of_int depth);
  let dn = nodes - ctx.hb_nodes and dt = now - ctx.hb_us in
  if dt > 0 && ctx.hb_us > 0 then
    Obs.Telemetry.gauge obs "explore.nodes_per_sec"
      (1e6 *. float_of_int dn /. float_of_int dt);
  ctx.hb_nodes <- nodes;
  ctx.hb_us <- now;
  Obs.Telemetry.instant ctx.obs "explore.heartbeat"

(* The ~1 Hz gate around [heartbeat], called from the DFS loop's poll
   block. Re-arms one second after the beat actually fired, so the
   cadence adapts to stalls instead of bursting to catch up. *)
let heartbeat_due ctx depth =
  let now = Obs.Telemetry.now_us ctx.obs in
  if now >= ctx.hb_due_us then begin
    heartbeat ctx depth now;
    ctx.hb_due_us <- now + 1_000_000
  end

let record_violation ctx schedule kind =
  ctx.nviol <- ctx.nviol + 1;
  ctx.violations <- { schedule = List.rev schedule; kind } :: ctx.violations;
  if ctx.nviol >= ctx.max_violations then begin
    ctx.stopped <- Some `Violations;
    raise Done
  end

(* Singleton ample set: a [Step p] with a purely-local footprint (no
   shared access, no CS check) is independent of every move of every
   other process, now and after any interleaving — enabledness is
   process-local and nobody else touches [p]'s local state. To be a
   persistent set on its own it must additionally commute with [p]'s own
   commit moves (the only other moves [p] can perform without executing
   the step), which holds per pending event:

   - [P_enter] / [P_exit]: touch section / passage bookkeeping only;
     commits touch buffer + memory. Always commute.
   - [P_issue_write (v, _)] with [v] not already buffered: the push
     appends while commits pop other entries — both orders reach the
     same buffer and memory. (With [v] buffered the push REPLACES the
     pending entry in place, so issue/commit order changes the committed
     value: dependent, not eligible.)
   - [P_begin_fence] / [P_rmw_fence]: under PSO genuinely independent of
     the (still enabled) out-of-order commits. Under TSO entering the
     fence disables the explicit [Commit] move, which formally makes
     them dependent — but in-fence [Step]s perform exactly the commits
     the disabled move would have, in the same (FIFO) order, so every
     schedule committing before the fence maps to an explored one
     committing inside it, with identical memory trajectory and
     CS-enabledness at every point. Eligible by that simulation.
   - [P_end_fence]: only pending once the buffer is drained, so there
     are no commit moves to commute with.
   - everything else (notably a buffer-forwarded read, whose footprint
     class would change once the forwarding entry commits): eligible
     only when the step is [p]'s sole enabled move.

   Validation is post hoc on the successor, applied in place and undone
   on failure: the step must not make its owner CS-enabled (other
   processes' CS executions read that predicate). A candidate that
   becomes CS-enabled or raises is skipped; exceptions are left for the
   full expansion to diagnose. *)
let singleton_eligible m p ~sole =
  match Machine.pending_class m p with
  | Machine.K_enter | Machine.K_exit | Machine.K_begin_fence
  | Machine.K_rmw_fence | Machine.K_end_fence ->
      true
  | Machine.K_issue_write ->
      not (Wbuf.mem (Machine.proc m p).Machine.buf (Machine.pending_var m p))
  | _ -> sole

(* Per-pid enabled-move tally into a ctx-owned scratch array. *)
let rec tally_pids counts = function
  | [] -> ()
  | mv :: rest ->
      let p = Footprint.move_pid mv in
      counts.(p) <- counts.(p) + 1;
      tally_pids counts rest

let pid_counts ctx m moves =
  let n = Machine.n_procs m in
  if Array.length ctx.pid_counts < n then ctx.pid_counts <- Array.make n 0
  else Array.fill ctx.pid_counts 0 n 0;
  tally_pids ctx.pid_counts moves;
  ctx.pid_counts

(* Child sleep set after executing [mv] from state [m]: keep the sleeping
   moves independent of [mv]; dependent ones wake up (are explored again
   in the subtree). Footprints of sleeping moves are computed in the
   current state, which is exact: a sleeping move's owner has not moved
   since it fell asleep (same-process moves are dependent and would have
   woken it), and other processes' moves do not change its footprint.

   [fmv] is conventionally [ctx.fp_a] (the executed move's footprint);
   sleeping moves are refilled one at a time into [ctx.fp_b], so the two
   scratches never alias. One pass over the mask, carrying the move code
   of its low bit as it shifts: each sleeping move costs one footprint
   and one independence check, and the decoded-move table spares a
   [decode] allocation per move. *)
let rec sleep_keep ctx m fmv z code keep =
  if z = 0 then keep
  else if z land 1 = 0 then sleep_keep ctx m fmv (z lsr 1) (code + 1) keep
  else begin
    Footprint.of_move_into ctx.fp_b m ctx.decoded.(code);
    let keep =
      if Footprint.independent ctx.fp_b fmv then keep lor (1 lsl code)
      else keep
    in
    sleep_keep ctx m fmv (z lsr 1) (code + 1) keep
  end

let filter_sleep_fp ctx m fmv z = sleep_keep ctx m fmv z 0 0

let filter_sleep ctx m mv z =
  if z = 0 then 0
  else begin
    Footprint.of_move_into ctx.fp_a m mv;
    filter_sleep_fp ctx m ctx.fp_a z
  end

(* Admit a successor state through the seen store, dedup'ing with the
   mask-aware rule. A fingerprint stored with mask [z'] was explored
   covering every execution not starting in [z']; arriving again with
   sleep [z]:
   - z' ⊆ z: nothing new to do, prune ([None]);
   - otherwise re-explore only the moves slept before but wanted now
     (sleep z ∪ ¬z') and record the new coverage (store z ∩ z').

   The store expresses this rule as claims on a "remaining moves" word
   (z' within the full move set): this visit's cover is ¬z (∩ full), the
   claim hands back exactly the not-yet-owed intersection [fresh], and
   the child re-explores under sleep ¬fresh — for a fresh state that is
   z itself. Claims on one state are serialised by the store's shard
   lock, so at any domain count a visit sees the coverage of every
   earlier one, as at one domain. *)
let admit_pruned = min_int
(* [seen_admit] returns the child sleep mask, or [admit_pruned] when the
   revisit is covered — an int sentinel rather than an option so the
   per-edge admission allocates nothing (masks are always >= 0). *)

let seen_admit ctx fp z =
  let st = ctx.seen in
  if not (Fpstore.masks st) then (
    (* Bitstate keeps one seen-bit per state, no mask: the FIRST visit
       decides coverage forever, so it must cover the full move set —
       admit with an empty sleep mask, sacrificing the sleep-set
       reduction at this subtree root. A revisit then prunes soundly up
       to hash aliasing, which is exactly what omission_prob accounts
       for; admitting under a nonempty sleep would instead lose slept
       interleavings with no accounting at all. *)
    match Fpstore.visit st ~fp ~cover:(-1) with
    | Fpstore.New -> 0
    | Fpstore.Covered | Fpstore.Partial _ ->
        ctx.c_dedup <- ctx.c_dedup + 1;
        admit_pruned)
  else
    let full = Footprint.full_mask ctx.codec in
    let cover = if ctx.sleepable then lnot z land full else -1 in
    match Fpstore.visit st ~fp ~cover with
    | Fpstore.New -> z
    | Fpstore.Covered ->
        ctx.c_dedup <- ctx.c_dedup + 1;
        admit_pruned
    | Fpstore.Partial fresh ->
        ctx.c_resleeps <- ctx.c_resleeps + 1;
        if ctx.sleepable then lnot fresh land full else 0

(* --- the DFS engine ---------------------------------------------------- *)

(* One DFS loop serves every search: it expands children by apply →
   recurse → undo on a single journaling machine, and reads the
   incrementally-maintained fingerprint instead of rehashing the state.
   [Machine.clone] survives only for subtrees parked for other workers
   and for replay. The test-only
   reference explorer (test/reference.ml: clone per child, full
   fingerprint, no reduction) checks state sets and verdicts against
   this loop.

   Invariant: every path through these functions leaves the machine's
   journal exactly where the caller's mark put it, except when [Done]
   aborts the whole search (the machine is then discarded). *)

(* Node fingerprint: O(1) from the journal fold; [~paranoid_fp] verifies
   it against a full rehash and fails loudly on drift. *)
let node_fp ctx m =
  let fp = Machine.fingerprint_fast m in
  if ctx.paranoid then begin
    let full = Machine.fingerprint m in
    if fp <> full then
      failwith
        (Printf.sprintf
           "Explore: incremental fingerprint drift (fast %#x, full %#x)" fp
           full)
  end;
  fp

(* Singleton ample selection: validates the candidate by applying it on
   the machine itself, undoing on failure. On success the machine is
   LEFT in the successor state (the caller owns the rollback) and the
   returned mask is the child sleep set — filtered against the
   pre-state, which is why it must be computed here, before the apply. *)
let rec ample_pick_journal ctx m z count = function
  | [] -> None
  | (Step p as mv) :: rest when singleton_eligible m p ~sole:(count.(p) = 1)
    -> (
      Footprint.of_move_into ctx.fp_a m mv;
      if Footprint.purely_local ctx.fp_a then begin
        let z_next =
          if ctx.sleepable then filter_sleep_fp ctx m ctx.fp_a z else 0
        in
        let mark = Machine.Journal.mark m in
        match apply m mv with
        | () when Machine.pending_class m p <> Machine.K_cs ->
            Some (mv, z_next)
        | () ->
            Machine.Journal.undo_to m mark;
            ample_pick_journal ctx m z count rest
        | exception (Machine.Exclusion_violation _ | Prog.Spin_exhausted _) ->
            Machine.Journal.undo_to m mark;
            ample_pick_journal ctx m z count rest
      end
      else ample_pick_journal ctx m z count rest)
  | _ :: rest -> ample_pick_journal ctx m z count rest

(* Singleton ample sets (and their chase fusion) are switched off while
   crash budget remains: a crash of the stepping process is dependent on
   its own local step (it is enabled alongside it and wipes the state the
   step would advance), so a lone local step is not an ample set — fusing
   it would skip the crash-before-step interleavings. Once the budget is
   spent no crash move is ever enabled again and the original argument
   applies unchanged. The abort budget suspends them for the same reason:
   a local step may enter or leave an abortable window, which enables or
   disables the process's own abort move. *)
let singleton_ample_journal ctx m z moves =
  if
    (not ctx.por)
    || Machine.crashes_total m < ctx.max_crashes
    || Machine.aborts_total m < ctx.max_aborts
  then None
  else ample_pick_journal ctx m z (pid_counts ctx m moves) moves

(* Parking thresholds: a worker parks only while its own deque holds
   fewer than [deque_low_water] items, and only on every 64th node. *)
let deque_low_water = 4

let park_period_mask = 63

let park own m schedule depth z =
  Deque.push own
    { w_m = Machine.clone m; w_sched = schedule; w_depth = depth;
      w_sleep = z }

let rec dfs_journal ctx m schedule depth sleep =
  if not (charge ctx) then begin
    ctx.stopped <- Some `Nodes;
    raise Done
  end;
  (* the deadline is polled — and a telemetry heartbeat considered —
     every 1024 nodes: a gettimeofday (or sink write) per node would
     dominate the hot path *)
  if ctx.nodes land 1023 = 0 then begin
    (* another worker raised: [explore] re-raises that, not this result *)
    if Atomic.get ctx.halt then raise Done;
    (match ctx.stop with
    | Some s when Atomic.get s ->
        ctx.stopped <- Some `Aborts;
        raise Done
    | _ -> ());
    (match ctx.deadline with
    | Some t when Unix.gettimeofday () > t ->
        ctx.stopped <- Some `Millis;
        raise Done
    | _ -> ());
    if Obs.Telemetry.enabled ctx.obs then heartbeat_due ctx depth
  end;
  ctx.nodes <- ctx.nodes + 1;
  if depth > ctx.max_depth then ctx.max_depth <- depth;
  let moves =
    enabled_moves ~max_crashes:ctx.max_crashes ~max_aborts:ctx.max_aborts m
  in
  if moves = [] then begin
    let n = Machine.n_procs m in
    let unfinished = ref false in
    for p = 0 to n - 1 do
      if Machine.pending_class m p <> Machine.K_done then unfinished := true
    done;
    if !unfinished then record_violation ctx schedule `Deadlock
  end
  else begin
    let mark0 = Machine.Journal.mark m in
    match singleton_ample_journal ctx m sleep moves with
    | Some (mv0, z0) ->
        (* the machine is in mv0's successor state; the chase walks the
           singleton chain in place and [undo_to mark0] unwinds the whole
           chain in one sweep when it bottoms out (or is asleep) *)
        ctx.c_chains <- ctx.c_chains + 1;
        chase_journal ctx m ~chain_mark:mark0 mv0 ~z_in:sleep ~z_out:z0
          schedule depth 4096
    | None -> dfs_journal_moves ctx m schedule depth sleep 0 moves
  end

(* The per-move expansion loop, a (closure-free) recursion over the
   enabled moves; [explored] accumulates the already-expanded moves'
   codes for the sibling sleep sets. *)
and dfs_journal_moves ctx m schedule depth sleep explored = function
  | [] -> ()
  | mv :: rest ->
      let bit =
        if ctx.sleepable then 1 lsl Footprint.encode ctx.codec mv else 0
      in
      if sleep land bit <> 0 then begin
        ctx.c_sleep_prunes <- ctx.c_sleep_prunes + 1;
        dfs_journal_moves ctx m schedule depth sleep explored rest
      end
      else begin
        (* sleeping-move footprints must be read in the pre-state, so the
           child mask is computed before applying [mv] *)
        let z =
          if ctx.sleepable then filter_sleep ctx m mv (sleep lor explored)
          else 0
        in
        let mark = Machine.Journal.mark m in
        (match apply m mv with
        | () ->
            (match mv with
            | Crash _ -> ctx.c_crashes <- ctx.c_crashes + 1
            | Abort _ -> ctx.c_aborts <- ctx.c_aborts + 1
            | _ -> ());
            visit_child_journal ctx m (mv :: schedule) (depth + 1) z;
            Machine.Journal.undo_to m mark
        | exception Machine.Exclusion_violation { holder; intruder } ->
            Machine.Journal.undo_to m mark;
            record_violation ctx (mv :: schedule)
              (`Exclusion (holder, intruder))
        | exception Prog.Spin_exhausted _ -> (
            Machine.Journal.undo_to m mark;
            match ctx.on_spin with
            | `Prune -> ()
            | `Violation ->
                record_violation ctx (mv :: schedule) `Spin_exhausted));
        dfs_journal_moves ctx m schedule depth sleep (explored lor bit) rest
      end

(* [m] is in the successor state of [mv]; [z_in] is the sleep mask the
   move was selected under (the asleep check), [z_out] the filtered child
   mask. Successive singletons are fused into one transition: each
   intermediate state has exactly one explored move, so it is passed
   through without being counted, fingerprinted or stored — only the
   chain's endpoint becomes a search node. Chains are finite (every local
   move strictly advances a continuation, and spin reads are not
   chase-eligible); the fuel is a defensive backstop only. *)
and chase_journal ctx m ~chain_mark mv ~z_in ~z_out schedule depth fuel =
  let bit =
    if ctx.sleepable then 1 lsl Footprint.encode ctx.codec mv else 0
  in
  if z_in land bit <> 0 then begin
    ctx.c_sleep_prunes <- ctx.c_sleep_prunes + 1;
    (* asleep: covered elsewhere — abandon the whole chain *)
    Machine.Journal.undo_to m chain_mark
  end
  else begin
    (match mv with
    | Crash _ -> ctx.c_crashes <- ctx.c_crashes + 1
    | Abort _ -> ctx.c_aborts <- ctx.c_aborts + 1
    | _ -> ());
    let schedule = mv :: schedule and depth = depth + 1 in
    if fuel = 0 then begin
      visit_child_journal ctx m schedule depth z_out;
      Machine.Journal.undo_to m chain_mark
    end
    else
      match
        singleton_ample_journal ctx m z_out
          (enabled_moves ~max_crashes:ctx.max_crashes
             ~max_aborts:ctx.max_aborts m)
      with
      | Some (mv', z') ->
          ctx.c_fused <- ctx.c_fused + 1;
          chase_journal ctx m ~chain_mark mv' ~z_in:z_out ~z_out:z' schedule
            depth (fuel - 1)
      | None ->
          visit_child_journal ctx m schedule depth z_out;
          Machine.Journal.undo_to m chain_mark
  end

(* Admit a successor through the seen store, with the fingerprint read
   from the journal fold (computed once, shared by the hook and the
   store), then recurse — or park the subtree on the worker's deque for
   thieves, when it has fellow workers and its deque runs low, at most
   once per 64 nodes so the O(state) clone stays far off the per-node
   budget. The clone sheds the active journal (see
   {!Machine.clone}), and whoever pops it re-enables journaling through
   [run_start]. *)
and visit_child_journal ctx m schedule depth z =
  let fp = node_fp ctx m in
  (match ctx.on_fingerprint with Some f -> f fp | None -> ());
  let admitted = seen_admit ctx fp z in
  if admitted <> admit_pruned then begin
    let z = admitted in
    match ctx.deque with
    | Some own
      when ctx.nodes land park_period_mask = 0
           && Deque.size own < deque_low_water ->
        park own m schedule depth z
    | _ -> dfs_journal ctx m schedule depth z
  end

(* Root machine for a search. Search machines run lean
   ({!Machine.set_lean}), which the journal requires: no search consumer
   reads the RMR / awareness / CC line / contention accounting (violations
   are re-executed by [replay] on a fresh, fully-accounting machine).
   Verdicts, node counts and fingerprints are unchanged — see the
   soundness note on [Machine.set_lean]. *)
let search_machine cfg =
  let m = Machine.create cfg in
  Machine.set_lean m true;
  m

(* Run one work item to completion, folding the machine's journal
   gauges into the ctx even when [Done] aborts mid-subtree. *)
let run_start ctx it =
  let m = it.w_m in
  Machine.Journal.enable m;
  Fun.protect
    ~finally:(fun () ->
      ctx.c_jpeak <- max ctx.c_jpeak (Machine.Journal.peak m);
      ctx.c_jrecords <- ctx.c_jrecords + Machine.Journal.records m)
    (fun () -> dfs_journal ctx m it.w_sched it.w_depth it.w_sleep)

(* --- the worker loop -------------------------------------------------- *)

(* Worker [d] of a search: run [first] (worker 0's is the root; a helper
   has none and starts by stealing), then pop its own deque LIFO
   (depth-first locality) and steal FIFO from the others' when it runs
   dry. Termination: items are only ever pushed to the pusher's OWN
   deque, so a worker draining its own deque before leaving guarantees
   every parked item is run by someone. [busy] counts the workers
   holding work: a worker releases its token before hunting and takes
   one back on a successful steal, which makes [busy = 0 ∧ all deques
   empty] a sound termination signal — nobody busy means nobody can push
   again. A thief that leaves on a momentarily-true signal while another
   is mid-steal is still sound: parked work always drains through its
   owner's deque.

   Returns the worker's wall-clock window, or the exception that ended
   it after raising [halt], so the other workers stop at their next poll
   and hunters stop hunting. A [Done] stop is not an error: its reason
   is the ctx's [stopped]. *)
let work ctx ~deques ~busy ~d first =
  let k = Array.length deques in
  let rec steal i =
    if i >= k then None
    else
      match Deque.steal deques.((d + i) mod k) with
      | Some _ as it ->
          ctx.c_steals <- ctx.c_steals + 1;
          it
      | None -> steal (i + 1)
  in
  let rec hunt () =
    match steal 1 with
    | Some _ as it ->
        Atomic.incr busy;
        it
    | None ->
        if Atomic.get busy = 0 || Atomic.get ctx.halt then None
        else begin
          Domain.cpu_relax ();
          hunt ()
        end
  in
  let rec go = function
    | None -> ()
    | Some it ->
        run_start ctx it;
        go
          (match Deque.pop deques.(d) with
          | Some _ as it -> it
          | None ->
              Atomic.decr busy;
              hunt ())
  in
  let t0 = Unix.gettimeofday () in
  match go (if Option.is_some first then first else hunt ()) with
  | () -> Ok (t0, Unix.gettimeofday ())
  | exception Done ->
      Atomic.decr busy;
      Ok (t0, Unix.gettimeofday ())
  | exception e ->
      Atomic.set ctx.halt true;
      Error e

(* One result from the workers' ctxs and windows, in worker order: node
   counts and tallies summed, the store's occupancy read once (workers
   share it), and the violations — in discovery order from a lone
   worker; sorted by schedule from several, a key intrinsic to the
   violation rather than to the worker or instant that found it, then
   cut to the global cap. A worker that finishes early idles until the
   last one does; that window, summed over workers, is the merge stall. *)
let merge ~max_violations ~obs ctxs windows =
  let add a s =
    { a with
      dedup_hits = a.dedup_hits + s.dedup_hits;
      resleeps = a.resleeps + s.resleeps;
      sleep_prunes = a.sleep_prunes + s.sleep_prunes;
      ample_chains = a.ample_chains + s.ample_chains;
      ample_fused = a.ample_fused + s.ample_fused;
      crashes_applied = a.crashes_applied + s.crashes_applied;
      aborts_applied = a.aborts_applied + s.aborts_applied;
      domain_nodes = a.domain_nodes @ s.domain_nodes;
      journal_peak = max a.journal_peak s.journal_peak;
      undo_records = a.undo_records + s.undo_records;
      steals = a.steals + s.steals }
  in
  let stats =
    match List.map stats_of_ctx ctxs with
    | s :: rest -> List.fold_left add s rest
    | [] -> zero_stats
  in
  let last = List.fold_left (fun a (_, t1) -> Float.max a t1) 0.0 windows in
  let stats =
    { stats with
      domains_used = List.length ctxs;
      merge_stall_us =
        List.fold_left
          (fun a (_, t1) -> a + int_of_float (1e6 *. (last -. t1)))
          0 windows }
  in
  (* sinks are not thread-safe, so helpers never touch the hub: their
     windows are replayed here as spans, one timeline lane per worker *)
  if Obs.Telemetry.enabled obs then begin
    let now = Obs.Telemetry.now_us obs and wall = Unix.gettimeofday () in
    let rel t = now - int_of_float (1e6 *. (wall -. t)) in
    List.iteri
      (fun d (c, (t0, t1)) ->
        Obs.Telemetry.span_at obs ~tid:d ~ts0:(rel t0) ~ts1:(rel t1)
          ~args:
            [ ("nodes", Obs.Json.Int c.nodes);
              ("dedup_hits", Obs.Json.Int c.c_dedup);
              ("sleep_prunes", Obs.Json.Int c.c_sleep_prunes);
              ("steals", Obs.Json.Int c.c_steals) ]
          "explore.dfs")
      (List.combine ctxs windows);
    Obs.Telemetry.gauge obs "explore.merge_stall_us"
      (float_of_int stats.merge_stall_us)
  end;
  let violations =
    match ctxs with
    | [ c ] -> List.rev c.violations
    | _ ->
        List.concat_map (fun c -> c.violations) ctxs
        |> List.sort_uniq (fun a b -> compare a.schedule b.schedule)
        |> List.filteri (fun i _ -> i < max_violations)
  in
  let partial = List.find_map (fun c -> c.stopped) ctxs in
  {
    nodes = List.fold_left (fun a c -> a + c.nodes) 0 ctxs;
    exhausted = partial = None;
    verified = partial = None && violations = [];
    violations;
    max_depth = List.fold_left (fun a c -> max a c.max_depth) 0 ctxs;
    partial;
    stats;
  }

(* --- public entry points ---------------------------------------------- *)

(* The search prunes states with identical fingerprints. The fingerprint
   covers shared memory, every buffer, section / passage counts,
   cache-relevant pending state and a structural hash of each continuation
   (which includes spin fuel counters), all folded into one 63-bit value,
   an XOR of per-variable and per-process Zobrist terms ({!Machine}) —
   pruning is exact up to hash collisions, so verification results are
   "no violation in the full deduplicated space", a high-confidence check
   rather than a proof.

   [on_spin] decides what spin-fuel exhaustion means: [`Prune] (default)
   abandons the branch — sound for exclusion checking because spin
   re-reads do not change shared state, so longer spins revisit the same
   choice points — while [`Violation] reports it (livelock hunting). *)
(* [spin_fuel] temporarily lowers [Prog.default_spin_fuel] so algorithm
   busy-waits stay shallow during exploration. *)
let explore ?(max_nodes = 500_000) ?(max_violations = 1) ?(on_spin = `Prune)
    ?(spin_fuel = 6) ?(domains = 1) ?(por = true) ?(max_crashes = 0)
    ?(max_aborts = 0) ?stop ?max_millis ?on_fingerprint
    ?(obs = Obs.Telemetry.null) ?(paranoid_fp = false) (cfg : Config.t) :
    result =
  if domains < 1 then invalid_arg "Explore.explore: domains must be >= 1";
  (* at fuel 0 every spin raises before its first read, so the search
     would prune each branch at its first spin and verify what it never
     explored *)
  if spin_fuel < 1 then invalid_arg "Explore.explore: spin_fuel must be >= 1";
  if domains > 1 && Option.is_some on_fingerprint then
    invalid_arg "Explore.explore: on_fingerprint requires domains = 1";
  if max_crashes < 0 then
    invalid_arg "Explore.explore: max_crashes must be >= 0";
  if max_aborts < 0 then
    invalid_arg "Explore.explore: max_aborts must be >= 0";
  if max_aborts > 0 && Option.is_none cfg.Config.abort_section then
    invalid_arg
      "Explore.explore: max_aborts > 0 requires an abort_section in the \
       configuration";
  let codec =
    Footprint.codec_of_config ~crashes:(max_crashes > 0)
      ~aborts:(max_aborts > 0) cfg
  in
  let deadline =
    Option.map
      (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.))
      max_millis
  in
  (* search machines are lean, and lean machines record no trace *)
  let cfg = { cfg with Config.record_trace = false } in
  let saved_fuel = !Prog.default_spin_fuel in
  Prog.default_spin_fuel := spin_fuel;
  Fun.protect ~finally:(fun () -> Prog.default_spin_fuel := saved_fuel)
  @@ fun () ->
  (* one store at every domain count, starting small: it grows with the
     states it stores *)
  let seen = Fpstore.create ~mode:cfg.Config.store ~expected:0 in
  let pool = Atomic.make (max 0 max_nodes) and halt = Atomic.make false in
  let deques = Array.init domains (fun _ -> Deque.create ()) in
  (* worker 0 holds the root, so it holds the one [busy] token *)
  let busy = Atomic.make 1 in
  (* Worker 0 holds the caller's hub. Each worker builds its ctx on its
     own domain, so the scratch it writes on every node never shares a
     cache line with another worker's. *)
  let run d first =
    let ctx =
      make_ctx ~seen ~pool ~halt
        ?deque:(if domains > 1 then Some deques.(d) else None)
        ?on_fingerprint ~max_crashes ~max_aborts ?stop ?deadline
        ~obs:(if d = 0 then obs else Obs.Telemetry.null)
        ~paranoid:paranoid_fp ~por ~codec ~on_spin ~max_violations ()
    in
    (ctx, work ctx ~deques ~busy ~d first)
  in
  let root =
    { w_m = search_machine cfg; w_sched = []; w_depth = 0; w_sleep = 0 }
  in
  (* helpers start one at a time; after a failed spawn none follows, and
     [halt] stops worker 0 at its first poll *)
  let failed_spawn = ref None in
  let rec spawn d =
    if d = domains then []
    else
      match Domain.spawn (fun () -> run d None) with
      | h -> h :: spawn (d + 1)
      | exception e ->
          Atomic.set halt true;
          failed_spawn := Some e;
          []
  in
  let helpers = spawn 1 in
  let lead = run 0 (Some root) in
  let workers = lead :: List.map Domain.join helpers in
  (* every started helper is joined before an exception is re-raised *)
  Option.iter raise !failed_spawn;
  let windows =
    List.map (function _, Ok w -> w | _, Error e -> raise e) workers
  in
  let r = merge ~max_violations ~obs (List.map fst workers) windows in
  if Obs.Telemetry.enabled obs then begin
    publish_counters obs ~nodes:r.nodes
      ~violations:(List.length r.violations) r.stats;
    if r.stats.omission_prob > 0.0 then
      Obs.Telemetry.gauge obs "explore.omission_prob" r.stats.omission_prob;
    (* final repaint trigger for the progress sink — also reached on
       partial (stopped / interrupted) verdicts *)
    Obs.Telemetry.instant obs "explore.heartbeat"
  end;
  r

(* --- replay ------------------------------------------------------------ *)

type replay_outcome =
  | R_completed
  | R_exclusion of Pid.t * Pid.t
  | R_spin of Var.t
  | R_bad_pid of int * Pid.t  (* 0-based move index, out-of-range pid *)
  | R_bad_abort of int * Pid.t
      (* abort delivered outside a declared wait point (or the
         configuration has no abort section): 0-based move index, pid *)
  | R_stuck of int * string  (* 0-based move index, reason *)

let replay (cfg : Config.t) (schedule : move list) =
  let m = Machine.create cfg in
  (* Validate pids up front: a schedule referencing a process the machine
     does not have is a malformed input (wrong lock, wrong -n, truncated
     file), not a property of this configuration — report it as such
     rather than letting the move raise a generic out-of-bounds error. *)
  let rec scan_pids i = function
    | [] -> None
    | mv :: rest ->
        let p = Footprint.move_pid mv in
        if p < 0 || p >= cfg.Config.n then Some (R_bad_pid (i, p))
        else scan_pids (i + 1) rest
  in
  let bad_pid = scan_pids 0 schedule in
  match bad_pid with
  | Some outcome -> (m, outcome)
  | None ->
      let rec go i = function
        | [] -> R_completed
        | (Abort p) :: _ when not (Machine.abort_deliverable m p) ->
            (* typed, pre-apply: an ill-timed abort is a malformed
               schedule (wrong point, wrong lock), not a machine error *)
            R_bad_abort (i, p)
        | mv :: rest -> (
            match apply m mv with
            | () -> go (i + 1) rest
            | exception Machine.Exclusion_violation { holder; intruder } ->
                R_exclusion (holder, intruder)
            | exception Prog.Spin_exhausted v -> R_spin v
            | exception Machine.Process_finished p ->
                R_stuck
                  (i, Printf.sprintf "%s already finished" (Pid.to_string p))
            | exception Invalid_argument msg -> R_stuck (i, msg))
      in
      let outcome = go 0 schedule in
      (m, outcome)
