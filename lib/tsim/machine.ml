(* The TSO machine: processes with write buffers, an adversary-driven
   scheduler interface, transition events, and online RMR / fence /
   critical-event accounting.

   The scheduler (an adversary, a random tester, or the lower-bound
   construction) drives the machine one event at a time:

   - [step m p]   lets process [p] execute its next enabled event;
   - [commit m p] commits the oldest write in [p]'s buffer (always allowed
     when the buffer is non-empty — the adversary may commit writes even
     when [p] is not executing a fence);
   - [pending m p] peeks at what [step] would do, without side effects.

   While a process is executing a fence (between BeginFence and EndFence),
   [step] only commits buffered writes, then emits EndFence — exactly the
   [mode(p,E) = write] regime of the paper. *)

open Ids

exception Exclusion_violation of { holder : Pid.t; intruder : Pid.t }
exception Process_finished of Pid.t

type section = Ncs | Entry | Exiting | Finished | Crashed | Aborting

let section_name = function
  | Ncs -> "ncs"
  | Entry -> "entry"
  | Exiting -> "exit"
  | Finished -> "finished"
  | Crashed -> "crashed"
  | Aborting -> "aborting"

type passage_stats = {
  p_rmrs : int;
  p_fences : int;
  p_criticals : int;
  p_interval : int;  (* interval contention of the passage *)
  p_point : int;  (* point contention of the passage *)
}

let dummy_passage =
  { p_rmrs = 0; p_fences = 0; p_criticals = 0; p_interval = 0; p_point = 0 }

type proc = {
  pid : Pid.t;
  mutable sec : section;
  mutable cont : unit Prog.t;
  buf : Wbuf.t;
  mutable in_fence : bool;  (* issued BeginFence, not yet EndFence *)
  mutable fence_implicit : bool;  (* current fence is an RMW drain *)
  mutable rmw_fenced : bool;  (* the pending RMW's drain already completed *)
  mutable passages : int;  (* completed passages *)
  mutable crashes : int;  (* crash faults injected into this process *)
  mutable needs_recovery : bool;
      (* the next passage must run the recovery section first *)
  mutable abortable : bool;
      (* the process is at a declared wait point ([Prog.Abortable] marker
         up): an adversary abort is deliverable *)
  mutable aborts : int;  (* abort faults injected into this process *)
}

(* The accounting of one process: what the adversary, [stats] and the
   harness read, and the search never does. *)
type proc_acct = {
  mutable aw : Pidset.t;  (* awareness set (Definition 1) *)
  remote_reads : (Var.t, unit) Hashtbl.t;  (* vars remotely read so far *)
  mutable rmrs : int;
  mutable fences : int;  (* completed fences (EndFence events) *)
  mutable criticals : int;
  mutable cur_rmrs : int;  (* same counters, current passage only *)
  mutable cur_fences : int;
  mutable cur_criticals : int;
  mutable interval_set : Pidset.t;
      (* processes active at some point during the current passage *)
  mutable point_max : int;
      (* max number of simultaneously active processes during the passage *)
  passage_log : passage_stats Vec.t;  (* one entry per completed passage *)
}

(* The machine's accounting: the paper's cost model (RMRs under the
   configured memory model, awareness, criticality, contention) and the
   trace. None of it enters the fingerprint, the footprints or a verdict
   check. The per-variable tables are paged ({!Paged}): they take memory
   for the pages that commits and accesses write, not for the layout. *)
type acct = {
  writer : Pid.t option Paged.t;  (* writer(v, E) *)
  writer_aw : Pidset.t Paged.t;  (* awareness of writer(v) at issue time *)
  accessed : Pidset.t Paged.t;  (* Accessed(v, E) *)
  lines : Memmodel.t;  (* CC line directory *)
  trace : Event.t Vec.t;
  per_proc : proc_acct array;
}

(* --- mutation journal: flat undo records ------------------------------ *)

(* Undo records live in a Flatstate log: unboxed ints plus typed side
   stacks, pushed operands-first / header-last so [undo_to] pops the
   header and then the operands in reverse push order. One record per
   individual state write; each restores the exact old value, so a
   rollback is byte-exact regardless of what the mutator did (including
   partial mutations before an exception). The header word packs
   [tag lor (aux lsl 4)] where [aux] is the record's pid or variable.

   Only lean machines journal ([Journal.enable]): they carry no
   accounting record, so no undo record covers accounting. Every public
   mutator opens with a head snapshot of the stepping process's scalars
   plus the machine scalars — one flat record is cheaper than tagged
   records per field; memory cells and write buffers are journaled per
   operation. *)
let t_head = 0
(* passage / crash / abort counts, fp, fp_proc, the four machine
   counters and the flag word: 11 words. The flag word carries the
   process's classification word ([cls_proc]) above its 8 flag bits. *)

let t_head_mini = 1
(* head for events that cannot touch those counters (reads, issues,
   commits, fences, RMWs): fp, fp_proc and the flag word only, 4 words *)

let t_mem = 2  (* aux=v; int: old value *)
let t_buf_set = 3  (* aux=p; int: i; entry: old — issue replaced a write *)
let t_buf_drop_last = 4  (* aux=p — issue appended a write *)
let t_buf_insert = 5  (* aux=p; int: i; entry — commit popped this entry *)
let t_buf_restore = 6  (* aux=p; entries — crash cleared the buffer *)

type t = {
  cfg : Config.t;
  mem : Value.t array;
  procs : proc array;
  mutable cs_entries : int;  (* total CS events executed *)
  mutable active_count : int;  (* processes currently outside their NCS *)
  mutable crash_count : int;  (* total crash faults injected *)
  mutable abort_count : int;  (* total abort faults injected *)
  mutable acct : acct option;
      (* [None] on lean machines ([set_lean]): the search never reads
         accounting, so it neither pays for it nor can write it *)
  (* journal / incremental-fingerprint state (see module Journal) *)
  flog : Flatstate.t;
  mutable journaling : bool;  (* implies lean *)
  fp_proc : int array;  (* per-process fingerprint terms (XOR fold) *)
  cls_proc : int array;  (* per-process classification words ([classify]) *)
  mutable fp : int;  (* incrementally-maintained state fingerprint *)
  mutable j_peak : int;  (* high-water journal depth, in log words *)
  mutable j_records : int;  (* undo records pushed since enable *)
}

type pending =
  | P_enter
  | P_cs
  | P_exit
  | P_done
  | P_read of Var.t
  | P_issue_write of Var.t * Value.t
  | P_begin_fence
  | P_end_fence
  | P_commit of Var.t
  | P_rmw_fence  (* implicit BeginFence that precedes a buffered RMW *)
  | P_cas of Var.t * Value.t * Value.t
  | P_faa of Var.t * Value.t
  | P_swap of Var.t * Value.t
  | P_recover  (* crashed process: the only enabled event is Recover *)
  | P_marker of bool  (* abortable-waiting marker, a purely local step *)
  | P_abort_done  (* cleanup section completed: Abort_done back to NCS *)

let pending_to_string = function
  | P_enter -> "Enter"
  | P_cs -> "CS"
  | P_exit -> "Exit"
  | P_done -> "done"
  | P_read v -> Printf.sprintf "read v%d" v
  | P_issue_write (v, x) -> Printf.sprintf "issue v%d:=%d" v x
  | P_begin_fence -> "begin-fence"
  | P_end_fence -> "end-fence"
  | P_commit v -> Printf.sprintf "commit v%d" v
  | P_rmw_fence -> "rmw-fence"
  | P_cas (v, _, _) -> Printf.sprintf "cas v%d" v
  | P_faa (v, _) -> Printf.sprintf "faa v%d" v
  | P_swap (v, _) -> Printf.sprintf "swap v%d" v
  | P_recover -> "recover"
  | P_marker b -> if b then "abortable-on" else "abortable-off"
  | P_abort_done -> "abort-done"

let create (cfg : Config.t) =
  let nvars = Layout.size cfg.layout in
  let procs =
    Array.init cfg.n (fun p ->
        {
          pid = p;
          sec = Ncs;
          cont = Prog.unit;
          buf = Wbuf.create ();
          in_fence = false;
          fence_implicit = false;
          rmw_fenced = false;
          passages = 0;
          crashes = 0;
          needs_recovery = false;
          abortable = false;
          aborts = 0;
        })
  in
  let per_proc =
    Array.init cfg.n (fun p ->
        {
          aw = Pidset.singleton p;
          remote_reads = Hashtbl.create 8;
          rmrs = 0;
          fences = 0;
          criticals = 0;
          cur_rmrs = 0;
          cur_fences = 0;
          cur_criticals = 0;
          interval_set = Pidset.empty;
          point_max = 0;
          passage_log = Vec.create dummy_passage;
        })
  in
  let acct =
    {
      writer = Paged.create ~size:nvars None;
      writer_aw = Paged.create ~size:nvars Pidset.empty;
      accessed = Paged.create ~size:nvars Pidset.empty;
      lines = Memmodel.create ~nvars;
      trace =
        Vec.create
          ~capacity:(if cfg.record_trace then 1024 else 1)
          Event.dummy;
      per_proc;
    }
  in
  {
    cfg;
    mem = Layout.initial_memory cfg.layout;
    procs;
    cs_entries = 0;
    active_count = 0;
    crash_count = 0;
    abort_count = 0;
    acct = Some acct;
    flog = Flatstate.create ();
    journaling = false;
    fp_proc = Array.make cfg.n 0;
    cls_proc = Array.make cfg.n 0;
    fp = 0;
    j_peak = 0;
    j_records = 0;
  }

let copy_acct a =
  {
    writer = Paged.copy a.writer;
    writer_aw = Paged.copy a.writer_aw;
    accessed = Paged.copy a.accessed;
    lines = Memmodel.copy a.lines;
    trace = Vec.copy a.trace;
    per_proc =
      Array.map
        (fun pa ->
          {
            pa with
            remote_reads = Hashtbl.copy pa.remote_reads;
            passage_log = Vec.copy pa.passage_log;
          })
        a.per_proc;
  }

(* Deep copy for state-space exploration: all mutable state is duplicated;
   program continuations are immutable values and are shared. *)
let clone m =
  {
    m with
    mem = Array.copy m.mem;
    procs = Array.map (fun pr -> { pr with buf = Wbuf.copy pr.buf }) m.procs;
    acct = Option.map copy_acct m.acct;
    (* clones never inherit an active journal: parallel frontier handoff
       and counterexample materialization want plain machines; a worker
       re-enables journaling on its own copy *)
    flog = Flatstate.create ();
    journaling = false;
    fp_proc = Array.copy m.fp_proc;
    cls_proc = Array.copy m.cls_proc;
    j_peak = 0;
    j_records = 0;
  }

(* Lean exploration mode: drop the accounting record. Accounting enters
   neither the fingerprint nor the footprints nor a verdict check, so
   verdicts, node counts and fingerprints are the same either way, and
   with no record no undo record ever has to cover it — which is why
   journaling requires lean mode. Lean machines emit quietly
   ([Event.dummy]); they cannot record traces. The mode is one-way. *)
let set_lean m b =
  if b then begin
    if m.cfg.Config.record_trace then
      invalid_arg "Machine.set_lean: incompatible with record_trace";
    m.acct <- None
  end
  else if Option.is_none m.acct then
    invalid_arg "Machine.set_lean: lean mode is one-way"

(* The accounting record, for the accessor [fn]. *)
let acct m fn =
  match m.acct with
  | Some a -> a
  | None ->
      invalid_arg ("Machine." ^ fn ^ ": lean machines carry no accounting")

let proc_acct m fn p = (acct m fn).per_proc.(p)
let config m = m.cfg
let trace m = (acct m "trace").trace
let proc m p = m.procs.(p)
let n_procs m = m.cfg.n
let mem_value m v = m.mem.(v)
let writer_of m v = Paged.get (acct m "writer_of").writer v
let accessed_set m v = Paged.get (acct m "accessed_set").accessed v
let awareness m p = (proc_acct m "awareness" p).aw
let section m p = m.procs.(p).sec
let is_remote m p v = Layout.is_remote m.cfg.layout p v

let passages m p = m.procs.(p).passages
let fences_completed m p = (proc_acct m "fences_completed" p).fences
let rmrs m p = (proc_acct m "rmrs" p).rmrs
let criticals m p = (proc_acct m "criticals" p).criticals
let passage_log m p = (proc_acct m "passage_log" p).passage_log
let cs_entries m = m.cs_entries
let crashes m p = m.procs.(p).crashes
let crashes_total m = m.crash_count
let needs_recovery m p = m.procs.(p).needs_recovery
let aborts m p = m.procs.(p).aborts
let aborts_total m = m.abort_count
let abortable m p = m.procs.(p).abortable

(* An abort move is deliverable iff the configuration declares a cleanup
   section and the process stands at a declared wait point of its entry
   section (marker up). Exiting processes are past the point of giving
   up; crashed / aborting / finished ones have nothing to abort. *)
let abort_deliverable m p =
  let pr = m.procs.(p) in
  pr.sec = Entry && pr.abortable
  && Option.is_some m.cfg.Config.abort_section

(* Contention accounting (paper, Introduction): interval contention of the
   current passage = processes active at some point during it; point
   contention = maximum simultaneously active. *)
let interval_contention m p =
  Pidset.cardinal (proc_acct m "interval_contention" p).interval_set

let point_contention m p = (proc_acct m "point_contention" p).point_max

(* [mode p] per the paper: Write while executing a fence, Read otherwise. *)
let mode m p = if m.procs.(p).in_fence then `Write else `Read

let pending m p : pending =
  let pr = m.procs.(p) in
  match pr.sec with
  | Finished -> P_done
  | Crashed -> P_recover
  | _ when pr.in_fence -> (
      match Wbuf.peek pr.buf with
      | Some e -> P_commit e.var
      | None -> P_end_fence)
  | Ncs -> P_enter
  | Entry | Exiting | Aborting -> (
      match pr.cont with
      | Prog.Return () ->
          if pr.sec = Entry then P_cs
          else if pr.sec = Exiting then P_exit
          else P_abort_done
      | Prog.Bind (op, _) -> (
          let rmw_needs_fence = not pr.rmw_fenced in
          match op with
          | Prog.Read v -> P_read v
          | Prog.Write (v, x) -> P_issue_write (v, x)
          | Prog.Fence -> P_begin_fence
          | Prog.Cas (v, e, d) ->
              if rmw_needs_fence then P_rmw_fence else P_cas (v, e, d)
          | Prog.Faa (v, d) ->
              if rmw_needs_fence then P_rmw_fence else P_faa (v, d)
          | Prog.Swap (v, x) ->
              if rmw_needs_fence then P_rmw_fence else P_swap (v, x)
          | Prog.Abortable b -> P_marker b))

(* Allocation-free projection of [pending]: constant constructors only,
   for the explorer's per-node classification loops where materializing
   [P_read v] / [P_issue_write (v, x)] payloads was measurable. Must
   discriminate exactly like [pending]; [pending_var] recovers the
   variable for the classes that carry one. *)
type pending_class =
  | K_enter
  | K_cs
  | K_exit
  | K_done
  | K_read
  | K_issue_write
  | K_begin_fence
  | K_end_fence
  | K_commit
  | K_rmw_fence
  | K_cas
  | K_faa
  | K_swap
  | K_recover
  | K_marker
  | K_abort_done

(* A class's code in the classification word is its index here. *)
let pending_classes =
  [| K_enter (* 0 *); K_cs (* 1 *); K_exit (* 2 *); K_done (* 3 *);
     K_read (* 4 *); K_issue_write (* 5 *); K_begin_fence (* 6 *);
     K_end_fence (* 7 *); K_commit (* 8 *); K_rmw_fence (* 9 *);
     K_cas (* 10 *); K_faa (* 11 *); K_swap (* 12 *); K_recover (* 13 *);
     K_marker (* 14 *); K_abort_done (* 15 *) |]

(* Pending class code [k] (bits 0-3), may-enable-CS (bit 4), and the step
   footprint (bits 5 and up): its class [fc] in bits 5-7, its variable [v]
   above. *)
let[@inline] class_word k ~may fc v =
  k lor (if may then 16 else 0) lor (fc lsl 5) lor (v lsl 8)

(* Classification word of process [p]: its pending class
   ({!pending_class}), the footprint of its next step
   ({!step_footprint_packed}) and whether that step may leave it
   CS-enabled ({!step_may_enable_cs}), from one match over its state.
   Like [proc_term] it reads only [p]'s own state, so a journaling
   machine refreshes it once per event ([j_refresh]) and answers every
   per-node query with a load ([classify_fast]). Must discriminate
   exactly like {!pending}.

   The footprint classes are 0 = finished, 1 = local, 2 = read,
   3 = write, 4 = rmw, 5 = CS. "Local" means the event touches only
   process-local state: the process's own buffer, fence flags, section
   bookkeeping and continuation — including reads satisfied by
   store-to-load forwarding, which never reach shared memory.

   May-enable-CS is conservative: true whenever the event advances the
   continuation of a process that is (or becomes) in Entry — the
   continuation's remainder cannot be inspected without running its
   closures. An implicit RMW drain's EndFence leaves the pending RMW in
   place, so it never completes the section. *)
let classify m p =
  let pr = m.procs.(p) in
  match pr.sec with
  | Finished -> class_word 3 ~may:false 0 0
  | Crashed -> class_word 13 ~may:false 1 0
  | _ when pr.in_fence ->
      if Wbuf.is_empty pr.buf then
        class_word 7 ~may:(pr.sec = Entry && not pr.fence_implicit) 1 0
      else class_word 8 ~may:false 3 (Wbuf.peek_var pr.buf)
  | Ncs -> class_word 0 ~may:true 1 0
  | Entry | Exiting | Aborting -> (
      match pr.cont with
      | Prog.Return () ->
          if pr.sec = Entry then class_word 1 ~may:false 5 0
          else if pr.sec = Exiting then class_word 2 ~may:false 1 0
          else class_word 15 ~may:false 1 0
      | Prog.Bind (op, _) -> (
          let entry = pr.sec = Entry in
          (* an RMW waits for its implicit drain fence ([K_rmw_fence]) *)
          let drain = class_word 9 ~may:false 1 0 in
          match op with
          | Prog.Read v ->
              if Wbuf.mem pr.buf v then class_word 4 ~may:entry 1 0
              else class_word 4 ~may:entry 2 v
          | Prog.Write _ -> class_word 5 ~may:entry 1 0
          | Prog.Fence -> class_word 6 ~may:false 1 0
          | Prog.Cas (v, _, _) ->
              if pr.rmw_fenced then class_word 10 ~may:entry 4 v else drain
          | Prog.Faa (v, _) ->
              if pr.rmw_fenced then class_word 11 ~may:entry 4 v else drain
          | Prog.Swap (v, _) ->
              if pr.rmw_fenced then class_word 12 ~may:entry 4 v else drain
          | Prog.Abortable _ -> class_word 14 ~may:entry 1 0))

(* The stored word on a journaling machine, a fresh one otherwise — the
   same pattern as [fingerprint_fast]. *)
let[@inline] classify_fast m p =
  if m.journaling then m.cls_proc.(p) else classify m p

let[@inline] pending_class m p : pending_class =
  Array.unsafe_get pending_classes (classify_fast m p land 15)

let[@inline] step_footprint_packed m p = classify_fast m p lsr 5
let[@inline] step_may_enable_cs m p = classify_fast m p land 16 <> 0

(* The variable of the pending event, for the classes that have one
   ([K_read], [K_issue_write], [K_cas]/[K_faa]/[K_swap], [K_commit]). *)
let pending_var m p : Var.t =
  let pr = m.procs.(p) in
  if pr.in_fence then Wbuf.peek_var pr.buf
  else
    match pr.cont with
    | Prog.Bind (Prog.Read v, _)
    | Prog.Bind (Prog.Write (v, _), _)
    | Prog.Bind (Prog.Cas (v, _, _), _)
    | Prog.Bind (Prog.Faa (v, _), _)
    | Prog.Bind (Prog.Swap (v, _), _) ->
        v
    | _ -> invalid_arg "Machine.pending_var: pending event has no variable"

(* --- fingerprints ----------------------------------------------------- *)

(* Packed 63-bit state fingerprint.

   Structure: an XOR fold of independent terms — one Zobrist-style term
   per shared variable and one term per process —

     fp = basis  XOR  (XOR_v zmix v mem.(v))  XOR  (XOR_p proc_term p)

   XOR makes the fingerprint incrementally maintainable: when an event
   overwrites mem.(v) the journal applies
   [fp <- fp lxor zmix v old lxor zmix v new], and since each public
   mutator only ever changes the stepping process's own term (pending,
   section, continuation, buffer, ... are all process-local), one
   [proc_term] recomputation per event keeps fp exact. Every term is
   passed through a splitmix-style finalizer ([zfin]) before entering
   the fold so that the XOR of many terms stays well distributed.

   The state abstraction matches the previous sequential FNV-1a
   fingerprint: memory values, per-process pending event, fence flag,
   section, passage/crash counts, recovery flag, continuation structure
   and buffered writes. The accounting record is deliberately excluded —
   it is accounting, not behavior. *)

let fnv_prime = 0x100000001b3
let fnv_basis = 0x0bf29ce484222325 (* 64-bit FNV basis truncated to 63-bit int *)

let[@inline] mix h x = (h lxor x) * fnv_prime

(* splitmix64-style finalizer, truncated to OCaml's 63-bit int range. *)
let[@inline] zfin x =
  let x = x lxor (x lsr 30) in
  let x = x * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 27) in
  let x = x * 0x369DEA0F31A53F85 in
  (x lxor (x lsr 31)) land max_int

(* Zobrist term for "variable [v] holds [x]". *)
let[@inline] zmix v x = zfin (mix (mix fnv_basis (v + 1)) x)

(* Continuations are hashed structurally. [Hashtbl.hash] stops after 10
   meaningful nodes, which conflates deep spin states; raise both
   traversal bounds so distinct continuation shapes (spin fuels, loop
   indices, captured reads) hash apart. The runtime (OCaml 5.1.1) mixes
   a closure's code pointers into the hash along with its environment:
   two closures with equal environments and different code hash apart,
   and the same closure hashes differently in two runs of one binary,
   because code addresses move between runs. Fingerprints are therefore
   per-process values: nothing may persist them or compare them across
   processes. The campaign cache keys by rendered cell fields
   ([Campaign.Cell.search_key]), which hash no closure. *)
let hash_cont (c : unit Prog.t) = Hashtbl.hash_param 128 256 c

let sec_code = function
  | Ncs -> 0
  | Entry -> 1
  | Exiting -> 2
  | Finished -> 3
  | Crashed -> 4
  | Aborting -> 5

let sec_of_code = function
  | 0 -> Ncs
  | 1 -> Entry
  | 2 -> Exiting
  | 3 -> Finished
  | 4 -> Crashed
  | _ -> Aborting

(* Pending-event term of the fingerprint. Folds one code per event shape
   (Enter=1, CS=2, Exit=3, done=4, read=5·v, issue=6·v·x, begin-fence=7,
   end-fence=8, commit=9·v, rmw-fence=10, cas=11·v·e·d, faa=12·v·d,
   swap=13·v·x, recover=14, abort-done=15, marker=16·b) directly instead
   of materializing the
   {!pending} variant — this runs once per journaled event
   ([j_refresh]), where the variant allocation was measurable. Must
   classify exactly like {!pending}. *)
let pending_hash m p h =
  let pr = m.procs.(p) in
  match pr.sec with
  | Finished -> mix h 4
  | Crashed -> mix h 14
  | _ when pr.in_fence ->
      if Wbuf.is_empty pr.buf then mix h 8
      else mix (mix h 9) (Wbuf.peek_var pr.buf)
  | Ncs -> mix h 1
  | Entry | Exiting | Aborting -> (
      match pr.cont with
      | Prog.Return () ->
          if pr.sec = Entry then mix h 2
          else if pr.sec = Exiting then mix h 3
          else mix h 15
      | Prog.Bind (op, _) -> (
          let rmw_needs_fence = not pr.rmw_fenced in
          match op with
          | Prog.Read v -> mix (mix h 5) v
          | Prog.Write (v, x) -> mix (mix (mix h 6) v) x
          | Prog.Fence -> mix h 7
          | Prog.Cas (v, e, d) ->
              if rmw_needs_fence then mix h 10
              else mix (mix (mix (mix h 11) v) e) d
          | Prog.Faa (v, d) ->
              if rmw_needs_fence then mix h 10
              else mix (mix (mix h 12) v) d
          | Prog.Swap (v, x) ->
              if rmw_needs_fence then mix h 10
              else mix (mix (mix h 13) v) x
          | Prog.Abortable b -> mix (mix h 16) (if b then 1 else 0)))

(* Non-capturing buffer fold (a closure over [Wbuf.iter] would allocate
   per call). *)
let rec buf_hash buf h i n =
  if i >= n then h
  else
    let e = Wbuf.get buf i in
    buf_hash buf (mix (mix h e.Wbuf.var) e.Wbuf.value) (i + 1) n

(* Fingerprint term of one process; depends only on that process's own
   state (pending inspects pr.sec / in_fence / buffer head / cont, all
   local), which is what makes the per-event refresh sound. *)
let proc_term m p =
  let pr = m.procs.(p) in
  let h = mix fnv_basis (p + 0x7f) in
  let h = pending_hash m p h in
  (* the scalar fields pack into one word (passage / crash / abort counts
     are budget-bounded, far below their fields): one mix instead of
     seven on the per-event refresh path *)
  let h =
    mix h
      (sec_code pr.sec
      lor (if pr.in_fence then 8 else 0)
      lor (if pr.needs_recovery then 16 else 0)
      lor (if pr.abortable then 32 else 0)
      lor (pr.passages lsl 6)
      lor (pr.crashes lsl 34)
      lor (pr.aborts lsl 46))
  in
  let h = mix h (hash_cont pr.cont) in
  zfin (buf_hash pr.buf h 0 (Wbuf.size pr.buf))

(* Full recompute: the reference implementation and the paranoid
   cross-check for the incremental fold. *)
let fingerprint m =
  let h = ref (fnv_basis land max_int) in
  for v = 0 to Array.length m.mem - 1 do
    h := !h lxor zmix v m.mem.(v)
  done;
  for p = 0 to Array.length m.procs - 1 do
    h := !h lxor proc_term m p
  done;
  !h

let fingerprint_fast m = if m.journaling then m.fp else fingerprint m

(* --- journal bookkeeping --------------------------------------------- *)

(* Record accounting: bump the record count and the high-water mark
   (in log words) after each completed record. *)
let[@inline] jdone m =
  m.j_records <- m.j_records + 1;
  let d = Flatstate.length m.flog in
  if d > m.j_peak then m.j_peak <- d

(* Process scalar flags packed into one log word. *)
let[@inline] flags_of (pr : proc) =
  sec_code pr.sec
  lor (if pr.in_fence then 8 else 0)
  lor (if pr.fence_implicit then 16 else 0)
  lor (if pr.rmw_fenced then 32 else 0)
  lor (if pr.needs_recovery then 64 else 0)
  lor if pr.abortable then 128 else 0

(* The head records' flag word: the process flags in the low 8 bits, its
   classification word above them. *)
let[@inline] head_flags m (pr : proc) =
  flags_of pr lor (m.cls_proc.(pr.pid) lsl 8)

(* Head of every public mutator: snapshot the stepping process and the
   machine-global scalars, including the fingerprint state, so undo can
   restore them wholesale. Operands first, header last; the decoder in
   [undo_to] mirrors this order exactly. The continuation goes to the
   cont side-log. Steps that cannot touch the passage / crash / CS-entry
   / activity counters — a process in Entry/Exiting with an uncompleted
   program, or inside a fence — get the 4-word mini head. *)
let j_head ?(force_full = false) m (pr : proc) =
  if m.journaling then begin
    let f = m.flog in
    Flatstate.push_cont f pr.cont;
    let mini =
      (not force_full)
      && (pr.in_fence
         ||
         match pr.sec with
         | Entry | Exiting | Aborting -> (
             match pr.cont with
             | Prog.Return () -> false
             | Prog.Bind _ -> true)
         | Ncs | Crashed | Finished -> false)
    in
    if mini then begin
      Flatstate.reserve f 4;
      Flatstate.push_unsafe f m.fp;
      Flatstate.push_unsafe f m.fp_proc.(pr.pid);
      Flatstate.push_unsafe f (head_flags m pr);
      Flatstate.push_unsafe f (t_head_mini lor (pr.pid lsl 4))
    end
    else begin
      Flatstate.reserve f 11;
      Flatstate.push_unsafe f pr.passages;
      Flatstate.push_unsafe f pr.crashes;
      Flatstate.push_unsafe f pr.aborts;
      Flatstate.push_unsafe f m.fp;
      Flatstate.push_unsafe f m.fp_proc.(pr.pid);
      Flatstate.push_unsafe f m.cs_entries;
      Flatstate.push_unsafe f m.active_count;
      Flatstate.push_unsafe f m.crash_count;
      Flatstate.push_unsafe f m.abort_count;
      Flatstate.push_unsafe f (head_flags m pr);
      Flatstate.push_unsafe f (t_head lor (pr.pid lsl 4))
    end;
    jdone m
  end

(* Tail of every public mutator: fold the stepping process's refreshed
   fingerprint term into fp (memory deltas were applied inline) and
   refresh its classification word. *)
let[@inline] j_refresh m (pr : proc) =
  if m.journaling then begin
    let t = proc_term m pr.pid in
    m.fp <- m.fp lxor m.fp_proc.(pr.pid) lxor t;
    m.fp_proc.(pr.pid) <- t;
    m.cls_proc.(pr.pid) <- classify m pr.pid
  end

let[@inline] set_mem m v x =
  if m.journaling then begin
    let old = m.mem.(v) in
    let f = m.flog in
    Flatstate.reserve f 2;
    Flatstate.push_unsafe f old;
    Flatstate.push_unsafe f (t_mem lor (v lsl 4));
    jdone m;
    m.fp <- m.fp lxor zmix v old lxor zmix v x
  end;
  m.mem.(v) <- x

let[@inline] restore_flags (pr : proc) flags =
  pr.sec <- sec_of_code (flags land 7);
  pr.in_fence <- flags land 8 <> 0;
  pr.fence_implicit <- flags land 16 <> 0;
  pr.rmw_fenced <- flags land 32 <> 0;
  pr.needs_recovery <- flags land 64 <> 0;
  pr.abortable <- flags land 128 <> 0

(* Pop one record (header word, then operands in reverse push order) and
   restore the exact old values. *)
let undo_record m =
  let f = m.flog in
  let header = Flatstate.pop f in
  let tag = header land 15 and aux = header lsr 4 in
  if tag = t_head then begin
    let pr = m.procs.(aux) in
    let flags = Flatstate.pop f in
    m.abort_count <- Flatstate.pop f;
    m.crash_count <- Flatstate.pop f;
    m.active_count <- Flatstate.pop f;
    m.cs_entries <- Flatstate.pop f;
    m.fp_proc.(aux) <- Flatstate.pop f;
    m.fp <- Flatstate.pop f;
    pr.aborts <- Flatstate.pop f;
    pr.crashes <- Flatstate.pop f;
    pr.passages <- Flatstate.pop f;
    pr.cont <- Flatstate.pop_cont f;
    restore_flags pr flags;
    m.cls_proc.(aux) <- flags lsr 8
  end
  else if tag = t_head_mini then begin
    let pr = m.procs.(aux) in
    let flags = Flatstate.pop f in
    m.fp_proc.(aux) <- Flatstate.pop f;
    m.fp <- Flatstate.pop f;
    pr.cont <- Flatstate.pop_cont f;
    restore_flags pr flags;
    m.cls_proc.(aux) <- flags lsr 8
  end
  else if tag = t_mem then m.mem.(aux) <- Flatstate.pop f
  else if tag = t_buf_set then begin
    let i = Flatstate.pop f in
    Wbuf.set m.procs.(aux).buf i (Flatstate.pop_entry f)
  end
  else if tag = t_buf_drop_last then Wbuf.drop_last m.procs.(aux).buf
  else if tag = t_buf_insert then begin
    let i = Flatstate.pop f in
    Wbuf.insert m.procs.(aux).buf i (Flatstate.pop_entry f)
  end
  else if tag = t_buf_restore then begin
    let buf = m.procs.(aux).buf in
    Array.iteri (fun i e -> Wbuf.insert buf i e) (Flatstate.pop_entries f)
  end
  else invalid_arg "Machine.undo: corrupt journal record"

let undo_to m mark =
  if not m.journaling then
    invalid_arg "Machine.undo_to: journaling is not enabled";
  let len = Flatstate.length m.flog in
  if mark < 0 || mark > len then invalid_arg "Machine.undo_to: bad mark";
  while Flatstate.length m.flog > mark do
    undo_record m
  done;
  (* every record pops exactly what it pushed, so a walk that lands
     anywhere but the mark means the log was corrupted *)
  if Flatstate.length m.flog <> mark then
    invalid_arg "Machine.undo_to: misaligned journal mark"

(* --- event emission ------------------------------------------------- *)

(* Record an event on an accounting machine: append it to the trace when
   the configuration records one, and bump the process's RMR and
   critical counters. *)
let emit m a pid kind ~remote ~rmr ~critical =
  let e =
    { Event.seq = Vec.length a.trace; pid; kind; remote; rmr; critical }
  in
  if m.cfg.Config.record_trace then Vec.push a.trace e;
  let pa = a.per_proc.(pid) in
  if rmr then begin
    pa.rmrs <- pa.rmrs + 1;
    pa.cur_rmrs <- pa.cur_rmrs + 1
  end;
  if critical then begin
    pa.criticals <- pa.criticals + 1;
    pa.cur_criticals <- pa.cur_criticals + 1
  end;
  e

(* Emission of a local event: no shared access, so no RMR and not
   critical. *)
let emit_local m a (pr : proc) kind =
  emit m a pr.pid kind ~remote:false ~rmr:false ~critical:false

(* Lean machines emit quietly: no event record, and the returned event
   is [Event.dummy] — exploration never reads it. Steps whose kind
   carries a payload match on the record themselves, so that a lean step
   does not allocate the kind. *)
let[@inline] emit_k m pr kind =
  match m.acct with None -> Event.dummy | Some a -> emit_local m a pr kind

(* Awareness propagation on a shared (non-buffer) read of [v]: the reader
   becomes aware of the last writer and of everything that writer was aware
   of when it issued the write. *)
let absorb_awareness a pa v =
  match Paged.get a.writer v with
  | None -> ()
  | Some q ->
      pa.aw <- Pidset.add q (Pidset.union pa.aw (Paged.get a.writer_aw v))

let note_access a pid v =
  Paged.set a.accessed v (Pidset.add pid (Paged.get a.accessed v))

(* A remote read is critical iff it is the process's first remote read of
   that variable (Definition 2). *)
let read_criticality pa v ~remote =
  let critical = remote && not (Hashtbl.mem pa.remote_reads v) in
  if remote then Hashtbl.replace pa.remote_reads v ();
  critical

(* --- executing events ------------------------------------------------ *)

let commit_entry m pr (entry : Wbuf.entry) =
  let v = entry.Wbuf.var and x = entry.Wbuf.value in
  let e =
    match m.acct with
    | None -> Event.dummy
    | Some a ->
        let remote = is_remote m pr.pid v in
        let critical = remote && Paged.get a.writer v <> Some pr.pid in
        let rmr = Memmodel.write_rmr m.cfg.model a.lines pr.pid v ~remote in
        Paged.set a.writer v (Some pr.pid);
        Paged.set a.writer_aw v entry.Wbuf.aw;
        note_access a pr.pid v;
        emit m a pr.pid
          (Event.Commit_write { var = v; value = x })
          ~remote ~rmr ~critical
  in
  set_mem m v x;
  e

let j_buf_insert m (pr : proc) i entry =
  let f = m.flog in
  Flatstate.push_entry f entry;
  Flatstate.reserve f 2;
  Flatstate.push_unsafe f i;
  Flatstate.push_unsafe f (t_buf_insert lor (pr.pid lsl 4));
  jdone m

let do_commit m pr =
  let entry = Wbuf.pop pr.buf in
  if m.journaling then j_buf_insert m pr 0 entry;
  commit_entry m pr entry

let commit m p =
  let pr = m.procs.(p) in
  if Wbuf.is_empty pr.buf then invalid_arg "Machine.commit: empty buffer";
  j_head m pr;
  let e = do_commit m pr in
  j_refresh m pr;
  e

(* PSO only: commit the pending write to [v] out of order. Under TSO the
   write buffer is FIFO and only the oldest write may become visible. *)
let commit_var m p v =
  if m.cfg.ordering <> Config.Pso then
    invalid_arg "Machine.commit_var: only allowed under PSO ordering";
  let pr = m.procs.(p) in
  j_head m pr;
  let i, entry = Wbuf.pop_var' pr.buf v in
  if m.journaling then j_buf_insert m pr i entry;
  let e = commit_entry m pr entry in
  j_refresh m pr;
  e

let finish_fence m pr =
  let implicit = pr.fence_implicit in
  pr.in_fence <- false;
  pr.fence_implicit <- false;
  if implicit then pr.rmw_fenced <- true;
  (* the program continues past an explicit fence only once it completes:
     apply the continuation here, not at BeginFence, so op-boundary
     closures observe the drained buffer *)
  (match pr.cont with
  | Prog.Bind (Prog.Fence, k) -> pr.cont <- k ()
  | _ -> ());
  match m.acct with
  | None -> Event.dummy
  | Some a ->
      let pa = a.per_proc.(pr.pid) in
      pa.fences <- pa.fences + 1;
      pa.cur_fences <- pa.cur_fences + 1;
      emit_local m a pr (Event.End_fence { implicit })

let do_read m pr v k =
  match Wbuf.find pr.buf v with
  | Some x ->
      let e =
        match m.acct with
        | None -> Event.dummy
        | Some a ->
            emit_local m a pr
              (Event.Read { var = v; value = x; src = Event.From_buffer })
      in
      pr.cont <- k x;
      e
  | None ->
      let x = m.mem.(v) in
      let e =
        match m.acct with
        | None -> Event.dummy
        | Some a ->
            let pa = a.per_proc.(pr.pid) in
            let remote = is_remote m pr.pid v in
            let rmr, src =
              Memmodel.read_rmr m.cfg.model a.lines pr.pid v ~remote
            in
            let critical = read_criticality pa v ~remote in
            absorb_awareness a pa v;
            note_access a pr.pid v;
            emit m a pr.pid
              (Event.Read { var = v; value = x; src })
              ~remote ~rmr ~critical
      in
      pr.cont <- k x;
      e

let do_issue_write m pr v x k =
  let aw =
    match m.acct with None -> Pidset.empty | Some a -> a.per_proc.(pr.pid).aw
  in
  (match Wbuf.push' pr.buf { Wbuf.var = v; value = x; aw } with
  | Some (i, old) ->
      if m.journaling then begin
        let f = m.flog in
        Flatstate.push_entry f old;
        Flatstate.reserve f 2;
        Flatstate.push_unsafe f i;
        Flatstate.push_unsafe f (t_buf_set lor (pr.pid lsl 4));
        jdone m
      end
  | None ->
      if m.journaling then begin
        Flatstate.push m.flog (t_buf_drop_last lor (pr.pid lsl 4));
        jdone m
      end);
  let e =
    match m.acct with
    | None -> Event.dummy
    | Some a -> emit_local m a pr (Event.Issue_write { var = v; value = x })
  in
  pr.cont <- k ();
  e

(* Explicit fences leave the continuation in place (applied by
   [finish_fence]); implicit RMW drains leave the pending RMW in place. *)
let do_begin_fence m pr ~implicit =
  pr.in_fence <- true;
  pr.fence_implicit <- implicit;
  match m.acct with
  | None -> Event.dummy
  | Some a -> emit_local m a pr (Event.Begin_fence { implicit })

(* Atomic RMWs access the variable directly in shared memory (their store
   buffer was drained first, as on x86). Their accounting, run before the
   memory effect: criticality is that of a read followed, when the RMW
   [writes], by a write commit; the RMR decision is a write's (the line
   must be Exclusive under CC write-back); the process absorbs the
   awareness of what it read, and a writing RMW publishes it as the new
   writer's. *)
let account_rmw m a (pr : proc) v ~writes kind =
  let pa = a.per_proc.(pr.pid) in
  let remote = is_remote m pr.pid v in
  let critical =
    read_criticality pa v ~remote
    || (writes && remote && Paged.get a.writer v <> Some pr.pid)
  in
  let rmr = Memmodel.write_rmr m.cfg.model a.lines pr.pid v ~remote in
  absorb_awareness a pa v;
  note_access a pr.pid v;
  if writes then begin
    Paged.set a.writer v (Some pr.pid);
    Paged.set a.writer_aw v pa.aw
  end;
  emit m a pr.pid kind ~remote ~rmr ~critical

let do_cas m pr v expected desired (k : bool -> unit Prog.t) =
  let observed = m.mem.(v) in
  let success = Value.equal observed expected in
  let e =
    match m.acct with
    | None -> Event.dummy
    | Some a ->
        account_rmw m a pr v ~writes:success
          (Event.Cas_ev { var = v; expected; desired; observed; success })
  in
  if success then set_mem m v desired;
  pr.rmw_fenced <- false;
  pr.cont <- k success;
  e

let do_faa m pr v delta (k : Value.t -> unit Prog.t) =
  let observed = m.mem.(v) in
  let e =
    match m.acct with
    | None -> Event.dummy
    | Some a ->
        account_rmw m a pr v ~writes:true
          (Event.Faa_ev { var = v; delta; observed })
  in
  set_mem m v (observed + delta);
  pr.rmw_fenced <- false;
  pr.cont <- k observed;
  e

let do_swap m pr v x (k : Value.t -> unit Prog.t) =
  let observed = m.mem.(v) in
  let e =
    match m.acct with
    | None -> Event.dummy
    | Some a ->
        account_rmw m a pr v ~writes:true
          (Event.Swap_ev { var = v; stored = x; observed })
  in
  set_mem m v x;
  pr.rmw_fenced <- false;
  pr.cont <- k observed;
  e

(* Aborting processes are still active: they hold lock-related state and
   contend for shared memory until their cleanup completes. *)
let is_active (pr : proc) =
  pr.sec = Entry || pr.sec = Exiting || pr.sec = Aborting

(* Execute the abortable-waiting marker: a purely local step that moves
   only the per-process flag and the continuation. Emits no trace event
   (the marker is bookkeeping, not a memory operation), so the returned
   event is [Event.dummy] even with recording on. *)
let do_marker (pr : proc) b (k : unit -> unit Prog.t) =
  pr.abortable <- b;
  pr.cont <- k ();
  Event.dummy

(* The continuation of a recovering process: recovery section, then the
   regular entry section (just the entry section when the configuration
   has no recovery). Captures only immutable data: closing over the
   machine would make the structural hash — part of the fingerprint —
   depend on mutable state. *)
let recovery_cont (cfg : Config.t) pid =
  match cfg.Config.recovery with
  | Some r ->
      let entry = cfg.Config.entry in
      Prog.bind (r pid) (fun () -> entry pid)
  | None -> cfg.Config.entry pid

(* --- crash faults ----------------------------------------------------- *)

(* Inject a crash fault into [p]. The process's private state — its
   continuation, fence flags and pending RMW bookkeeping — is wiped and it
   moves to the [Crashed] section, from which its only enabled event is
   [Recover]. The write buffer's fate follows [cfg.crash_semantics]:
   [commit_prefix] oldest entries reach shared memory as ordinary
   [Commit_write] events (so replay, RMR accounting and awareness stay
   exact), the rest are discarded. The prefix length defaults per
   semantics — 0 under [Drop_buffer], the full buffer under
   [Flush_buffer] — and is the adversary's choice under [Atomic_prefix].

   Crashing in the NCS is allowed and is the canonical lost-release
   scenario: after [Exit] the release write may still sit in the buffer. *)
let crash ?commit_prefix m p =
  let pr = m.procs.(p) in
  (match pr.sec with
  | Finished -> invalid_arg "Machine.crash: process already finished"
  | Crashed -> invalid_arg "Machine.crash: process already crashed"
  (* crashing inside the abort cleanup section is explicitly allowed:
     recoverable-abortable locks must tolerate the composition *)
  | Ncs | Entry | Exiting | Aborting -> ());
  let size = Wbuf.size pr.buf in
  let k =
    match (m.cfg.Config.crash_semantics, commit_prefix) with
    | Config.Drop_buffer, (None | Some 0) -> 0
    | Config.Drop_buffer, Some _ ->
        invalid_arg "Machine.crash: Drop_buffer commits no prefix"
    | Config.Flush_buffer, None -> size
    | Config.Flush_buffer, Some k when k = size -> k
    | Config.Flush_buffer, Some _ ->
        invalid_arg "Machine.crash: Flush_buffer commits the whole buffer"
    | Config.Atomic_prefix, None -> 0
    | Config.Atomic_prefix, Some k when k >= 0 && k <= size -> k
    | Config.Atomic_prefix, Some _ ->
        invalid_arg "Machine.crash: prefix exceeds buffer size"
  in
  (* a crash bumps the crash / activity counters regardless of the
     pre-state's pending shape, so it never takes the mini head *)
  j_head ~force_full:true m pr;
  for _ = 1 to k do
    ignore (do_commit m pr)
  done;
  let dropped = Wbuf.size pr.buf in
  if m.journaling && dropped > 0 then begin
    Flatstate.push_entries m.flog (Wbuf.entries pr.buf);
    Flatstate.push m.flog (t_buf_restore lor (pr.pid lsl 4));
    jdone m
  end;
  Wbuf.clear pr.buf;
  if is_active pr then m.active_count <- m.active_count - 1;
  pr.sec <- Crashed;
  pr.cont <- Prog.unit;
  pr.in_fence <- false;
  pr.fence_implicit <- false;
  pr.rmw_fenced <- false;
  pr.needs_recovery <- true;
  pr.abortable <- false;
  pr.crashes <- pr.crashes + 1;
  m.crash_count <- m.crash_count + 1;
  let e =
    match m.acct with
    | None -> Event.dummy
    | Some a -> emit_local m a pr (Event.Crash { committed = k; dropped })
  in
  j_refresh m pr;
  e

(* --- abort faults ------------------------------------------------------ *)

(* Inject an abort fault into [p]: the adversary times the process out at
   a declared wait point ([abort_deliverable]). Unlike a crash the
   process does not lose state — its write buffer survives untouched and
   it transitions to [Aborting], where its continuation is the
   configuration's abort cleanup section; reaching the cleanup's
   [Return ()] is the [Abort_done] transition back to NCS (no passage is
   counted). An in-progress fence drain is cut short (the cleanup may
   fence again if it needs the drain); the pending RMW it guarded is
   abandoned with the rest of the entry section. *)
let abort m p =
  let pr = m.procs.(p) in
  let cleanup =
    match m.cfg.Config.abort_section with
    | Some a -> a
    | None -> invalid_arg "Machine.abort: configuration has no abort section"
  in
  (match pr.sec with
  | Entry when pr.abortable -> ()
  | Entry -> invalid_arg "Machine.abort: process is not at a wait point"
  | Ncs | Exiting | Finished | Crashed | Aborting ->
      invalid_arg "Machine.abort: process is not in its entry section");
  (* an abort bumps the abort counters regardless of the pre-state's
     pending shape, so it never takes the mini head *)
  j_head ~force_full:true m pr;
  pr.sec <- Aborting;
  pr.abortable <- false;
  pr.in_fence <- false;
  pr.fence_implicit <- false;
  pr.rmw_fenced <- false;
  (* reaching the cleanup's [Return ()] is the abort-done transition *)
  pr.cont <- cleanup pr.pid;
  pr.aborts <- pr.aborts + 1;
  m.abort_count <- m.abort_count + 1;
  let e = emit_k m pr Event.Abort in
  j_refresh m pr;
  e

let do_abort_done m pr =
  pr.sec <- Ncs;
  pr.cont <- Prog.unit;
  m.active_count <- m.active_count - 1;
  emit_k m pr Event.Abort_done

let do_recover m pr =
  pr.sec <- Ncs;
  emit_k m pr Event.Recover

let do_enter m pr =
  pr.sec <- Entry;
  pr.cont <-
    (if pr.needs_recovery then recovery_cont m.cfg pr.pid
     else m.cfg.entry pr.pid);
  pr.needs_recovery <- false;
  m.active_count <- m.active_count + 1;
  (match m.acct with
  | None -> ()
  | Some a ->
      let pa = a.per_proc.(pr.pid) in
      pa.cur_rmrs <- 0;
      pa.cur_fences <- 0;
      pa.cur_criticals <- 0;
      (* contention accounting: the newcomer joins every in-flight
         passage's interval set, and its own interval set starts from the
         currently active processes *)
      pa.interval_set <- Pidset.singleton pr.pid;
      pa.point_max <- m.active_count;
      Array.iter
        (fun (q : proc) ->
          if is_active q && not (Pid.equal q.pid pr.pid) then begin
            let qa = a.per_proc.(q.pid) in
            qa.interval_set <- Pidset.add pr.pid qa.interval_set;
            qa.point_max <- max qa.point_max m.active_count;
            pa.interval_set <- Pidset.add q.pid pa.interval_set
          end)
        m.procs);
  emit_k m pr Event.Enter

let do_cs m pr =
  if m.cfg.check_exclusion then
    Array.iter
      (fun (q : proc) ->
        if
          (not (Pid.equal q.pid pr.pid))
          && q.sec = Entry && (not q.in_fence)
          && (match q.cont with Prog.Return () -> true | _ -> false)
        then raise (Exclusion_violation { holder = pr.pid; intruder = q.pid }))
      m.procs;
  pr.sec <- Exiting;
  pr.cont <- m.cfg.exit_section pr.pid;
  m.cs_entries <- m.cs_entries + 1;
  emit_k m pr Event.Cs

let do_exit m pr =
  pr.passages <- pr.passages + 1;
  (match m.acct with
  | Some a when m.cfg.Config.record_trace ->
      let pa = a.per_proc.(pr.pid) in
      Vec.push pa.passage_log
        { p_rmrs = pa.cur_rmrs; p_fences = pa.cur_fences;
          p_criticals = pa.cur_criticals;
          p_interval = Pidset.cardinal pa.interval_set;
          p_point = pa.point_max }
  | _ -> ());
  pr.sec <- (if pr.passages >= m.cfg.max_passages then Finished else Ncs);
  m.active_count <- m.active_count - 1;
  emit_k m pr Event.Exit

(* Execute the process's pending event. This is {!pending} fused with the
   dispatch — classification and execution in one pass over the same
   machine state, without materializing the [pending] variant. *)
let exec_cur m (pr : proc) : Event.t =
  match pr.sec with
  | Finished -> assert false (* filtered by [step] *)
  | Crashed -> do_recover m pr
  | _ when pr.in_fence ->
      if Wbuf.is_empty pr.buf then finish_fence m pr else do_commit m pr
  | Ncs -> do_enter m pr
  | Entry | Exiting | Aborting -> (
      match pr.cont with
      | Prog.Return () ->
          if pr.sec = Entry then do_cs m pr
          else if pr.sec = Exiting then do_exit m pr
          else do_abort_done m pr
      | Prog.Bind (op, k) -> (
          let rmw_needs_fence = not pr.rmw_fenced in
          match op with
          | Prog.Read v -> do_read m pr v k
          | Prog.Write (v, x) -> do_issue_write m pr v x k
          | Prog.Fence -> do_begin_fence m pr ~implicit:false
          | Prog.Cas (v, expected, desired) ->
              if rmw_needs_fence then do_begin_fence m pr ~implicit:true
              else do_cas m pr v expected desired k
          | Prog.Faa (v, delta) ->
              if rmw_needs_fence then do_begin_fence m pr ~implicit:true
              else do_faa m pr v delta k
          | Prog.Swap (v, x) ->
              if rmw_needs_fence then do_begin_fence m pr ~implicit:true
              else do_swap m pr v x k
          | Prog.Abortable b -> do_marker pr b k))

(* The journal head is pushed after the finished check (so a raising call
   leaves no record) but before execution: if the event itself raises
   mid-mutation (Exclusion_violation from [do_cs], or a lock program's
   spin-guard exception escaping a continuation), the caller's
   [undo_to mark] still restores the pre-step state exactly — the head
   snapshot plus the fine-grained records cover every partial write. *)
let step m p : Event.t =
  let pr = m.procs.(p) in
  if pr.sec = Finished then raise (Process_finished p);
  j_head m pr;
  let e = exec_cur m pr in
  j_refresh m pr;
  e

(* --- classification helpers for adversaries ------------------------- *)

(* Would the pending event of [p] be special (Definition 3) if executed now?
   Decided from machine state without executing it. *)
let pending_is_special m p =
  let a = acct m "pending_is_special" in
  let first_remote_read v =
    is_remote m p v && not (Hashtbl.mem a.per_proc.(p).remote_reads v)
  in
  match pending m p with
  | P_done -> false
  | P_enter | P_cs | P_exit | P_recover | P_abort_done -> true
  | P_begin_fence | P_end_fence | P_rmw_fence -> true
  | P_issue_write _ | P_marker _ -> false
  | P_read v -> (not (Wbuf.mem m.procs.(p).buf v)) && first_remote_read v
  | P_commit v -> is_remote m p v && Paged.get a.writer v <> Some p
  | P_cas (v, _, _) | P_faa (v, _) | P_swap (v, _) ->
      (* conservatively special: RMWs both read and write the variable *)
      is_remote m p v
      && (Paged.get a.writer v <> Some p || first_remote_read v)

(* Run [p] while its pending event is neither special nor [P_done], up to
   [fuel] events. Returns the number of events executed and the reason for
   stopping. *)
type stop_reason = At_special | Done_ | Out_of_fuel

let run_until_special ?(fuel = 100_000) m p =
  let rec go steps fuel =
    if fuel <= 0 then (steps, Out_of_fuel)
    else
      match pending m p with
      | P_done -> (steps, Done_)
      | _ when pending_is_special m p -> (steps, At_special)
      | _ ->
          ignore (step m p);
          go (steps + 1) (fuel - 1)
  in
  go 0 fuel

(* Run [p] until it has completed [k] passages or fuel runs out. *)
let run_until_passages ?(fuel = 1_000_000) m p ~target =
  let rec go fuel =
    if m.procs.(p).passages >= target then true
    else if fuel <= 0 then false
    else
      match pending m p with
      | P_done -> m.procs.(p).passages >= target
      | _ ->
          ignore (step m p);
          go (fuel - 1)
  in
  go fuel

(* --- journal public interface ---------------------------------------- *)

module Journal = struct
  type mark = int

  let enable m =
    if Option.is_some m.acct then
      invalid_arg "Machine.Journal.enable: the machine is not lean";
    if not m.journaling then begin
      Flatstate.clear m.flog;
      m.journaling <- true;
      m.j_peak <- 0;
      m.j_records <- 0;
      for p = 0 to Array.length m.procs - 1 do
        m.fp_proc.(p) <- proc_term m p;
        m.cls_proc.(p) <- classify m p
      done;
      m.fp <- fingerprint m
    end

  let mark m = Flatstate.length m.flog
  let undo_to m (mk : mark) = undo_to m mk
  let peak m = m.j_peak
  let records m = m.j_records
end

(* --- structural equality ---------------------------------------------- *)

(* Structural equality of machine {e state} (journal bookkeeping and the
   configuration are excluded). Continuations are compared physically:
   closures have no structural equality, and both [clone] and the journal
   restore the very same continuation value, which is exactly the
   guarantee the journal tests need. Buffer entries, writers, awareness
   and access sets compare structurally: [Pidset] representations are
   canonical. *)
let proc_equal (a : proc) (b : proc) =
  Pid.equal a.pid b.pid && a.cont == b.cont && flags_of a = flags_of b
  && a.passages = b.passages && a.crashes = b.crashes && a.aborts = b.aborts
  && Wbuf.entries a.buf = Wbuf.entries b.buf

let proc_acct_equal a b =
  Pidset.equal a.aw b.aw
  && a.rmrs = b.rmrs && a.fences = b.fences && a.criticals = b.criticals
  && a.cur_rmrs = b.cur_rmrs && a.cur_fences = b.cur_fences
  && a.cur_criticals = b.cur_criticals
  && Pidset.equal a.interval_set b.interval_set
  && a.point_max = b.point_max
  && Hashtbl.length a.remote_reads = Hashtbl.length b.remote_reads
  && Hashtbl.fold
       (fun v () acc -> acc && Hashtbl.mem b.remote_reads v)
       a.remote_reads true
  && Vec.to_array a.passage_log = Vec.to_array b.passage_log

let acct_equal a b =
  Paged.equal a.writer b.writer
  && Paged.equal a.writer_aw b.writer_aw
  && Paged.equal a.accessed b.accessed
  && Memmodel.equal a.lines b.lines
  && Array.for_all2 proc_acct_equal a.per_proc b.per_proc
  && Vec.to_array a.trace = Vec.to_array b.trace

let equal a b =
  a.mem = b.mem
  && Array.length a.procs = Array.length b.procs
  && Array.for_all2 proc_equal a.procs b.procs
  && a.cs_entries = b.cs_entries && a.active_count = b.active_count
  && a.crash_count = b.crash_count && a.abort_count = b.abort_count
  &&
  match (a.acct, b.acct) with
  | None, None -> true
  | Some x, Some y -> acct_equal x y
  | None, Some _ | Some _, None -> false
