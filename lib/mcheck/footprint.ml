(* Per-move footprints and the independence relation driving the
   explorer's partial-order reduction.

   A scheduler move either steps a process or commits one of its buffered
   writes. Its footprint over-approximates every channel through which
   the move can influence — or be influenced by — a move of another
   process, *restricted to the state the explorer distinguishes*: shared
   memory, write buffers, continuations, sections and fence flags (the
   fingerprint projection), plus the two verdict channels (the CS
   exclusion check and deadlock detection). Channels outside that
   projection (awareness sets, RMR/cache bookkeeping, contention
   accounting) are deliberately ignored: they influence neither verdicts
   nor any future projected transition.

   Two moves of different processes are independent when, from any state
   where both are enabled, (a) executing them in either order yields the
   same projected state, and (b) neither affects the other's enabledness
   or outcome (including whether a violation is raised). Enabledness in
   this machine is process-local — no move of [p] ever enables or
   disables a move of [q] — so independence reduces to footprint
   disjointness plus two property-specific clauses:

   - a CS execution reads every other process's CS-enabledness
     ([sec = Entry], [cont = Return], [not in_fence]), so it is dependent
     on any move that may change that predicate ([may_enable_cs]) and on
     other CS executions;
   - everything else is dependent exactly on shared-variable read/write
     conflicts.

   Moves of the same process are always dependent (program order, FIFO
   buffer order, and the issue-replaces-pending-write rule). *)

open Tsim
open Tsim.Ids

type move =
  | Step of Pid.t
  | Commit of Pid.t
  | Commit_var of Pid.t * Var.t
  | Crash of Pid.t * int
  | Recover of Pid.t
  | Abort of Pid.t

let move_pid = function
  | Step p | Commit p | Commit_var (p, _) | Crash (p, _) | Recover p
  | Abort p ->
      p

(* Fields are mutable solely for [of_move_into]'s in-place refill of a
   scratch record on the explorer hot path; no consumer ever writes one. *)
type t = {
  mutable pid : Pid.t;
  mutable reads : int;  (* bitset of shared variables read from memory *)
  mutable writes : int;
      (* bitset of shared variables written (committed / RMW) *)
  mutable cs_check : bool;
      (* CS execution: reads everyone's CS-enabledness *)
  mutable may_enable_cs : bool;  (* may change the owner's CS-enabledness *)
  mutable budget : bool;
      (* consumes the shared crash budget: crash moves disable each other
         once the budget runs out, so any two of them are dependent *)
  mutable global : bool;  (* conservative fallback: dependent on everything *)
}

(* Variables above the one-word bitset capacity fall back to [global]
   (dependent on everything) — correctness never relies on the bitset. *)
let tracked_vars = Sys.int_size - 2

(* --- computing footprints --------------------------------------------- *)

(* The explorer refills a caller-owned scratch record per move, with
   zero allocation ({!Machine.step_footprint_packed} classifies a step
   without building its pending event); [of_move] fills a fresh one. *)

let make_scratch () =
  { pid = Pid.of_int 0; reads = 0; writes = 0; cs_check = false;
    may_enable_cs = false; budget = false; global = false }

let[@inline] fill f pid ~reads ~writes ~cs_check ~may_enable_cs ~budget
    ~global =
  f.pid <- pid;
  f.reads <- reads;
  f.writes <- writes;
  f.cs_check <- cs_check;
  f.may_enable_cs <- may_enable_cs;
  f.budget <- budget;
  f.global <- global

let[@inline] fill_var f pid ~may_enable_cs ~reads ~writes v =
  if v < 0 || v >= tracked_vars then
    fill f pid ~reads:0 ~writes:0 ~cs_check:false ~may_enable_cs
      ~budget:false ~global:true
  else
    let b = 1 lsl v in
    fill f pid
      ~reads:(if reads then b else 0)
      ~writes:(if writes then b else 0)
      ~cs_check:false ~may_enable_cs ~budget:false ~global:false

let of_move_into f m mv =
  match mv with
  | Step p -> (
      let may = Machine.step_may_enable_cs m p in
      let packed = Machine.step_footprint_packed m p in
      let v = packed lsr 3 in
      match packed land 7 with
      | 0 | 1 ->
          (* finished, or process-local *)
          fill f p ~reads:0 ~writes:0 ~cs_check:false ~may_enable_cs:may
            ~budget:false ~global:false
      | 2 -> fill_var f p ~may_enable_cs:may ~reads:true ~writes:false v
      | 3 -> fill_var f p ~may_enable_cs:may ~reads:false ~writes:true v
      | 4 -> fill_var f p ~may_enable_cs:may ~reads:true ~writes:true v
      | _ ->
          (* CS execution *)
          fill f p ~reads:0 ~writes:0 ~cs_check:true ~may_enable_cs:false
            ~budget:false ~global:false)
  | Commit p ->
      let buf = (Machine.proc m p).Machine.buf in
      if Wbuf.is_empty buf then
        (* commit of an empty buffer: never enabled; stay conservative *)
        fill f p ~reads:0 ~writes:0 ~cs_check:false ~may_enable_cs:false
          ~budget:false ~global:true
      else
        fill_var f p ~may_enable_cs:false ~reads:false ~writes:true
          (Wbuf.peek_var buf)
  | Commit_var (p, v) ->
      fill_var f p ~may_enable_cs:false ~reads:false ~writes:true v
  | Crash (p, k) ->
      (* writes = the committed prefix (the first [k] buffered vars); the
         wipe itself is process-local. A crash always may change the
         owner's CS-enabledness (it un-enables a completed entry section,
         so its order against another process's CS execution decides
         whether a violation is observed), and it consumes the shared
         crash budget. *)
      let buf = (Machine.proc m p).Machine.buf in
      let writes = ref 0 and global = ref false in
      let i = ref 0 in
      Wbuf.iter
        (fun e ->
          if !i < k then begin
            if e.Wbuf.var >= tracked_vars then global := true
            else writes := !writes lor (1 lsl e.Wbuf.var)
          end;
          incr i)
        buf;
      fill f p ~reads:0 ~writes:!writes ~cs_check:false ~may_enable_cs:true
        ~budget:true ~global:!global
  | Recover p ->
      fill f p ~reads:0 ~writes:0 ~cs_check:false ~may_enable_cs:false
        ~budget:false ~global:false
  | Abort p ->
      (* Process-local: the buffer is kept, the continuation swaps to the
         cleanup section. Like a crash it changes the owner's section
         against the CS check and consumes a shared fault budget (any two
         budget moves are ordered conservatively). *)
      fill f p ~reads:0 ~writes:0 ~cs_check:false ~may_enable_cs:true
        ~budget:true ~global:false

let of_move m mv =
  let f = make_scratch () in
  of_move_into f m mv;
  f

let independent a b =
  (not (Pid.equal a.pid b.pid))
  && (not a.global) && (not b.global)
  && (not (a.budget && b.budget))
  && a.writes land (b.reads lor b.writes) = 0
  && b.writes land a.reads = 0
  && not (a.cs_check && (b.cs_check || b.may_enable_cs))
  && not (b.cs_check && a.may_enable_cs)

(* A purely local move touches no shared variable and cannot raise the
   exclusion check: the candidate class for singleton ample sets. (It may
   still carry [may_enable_cs]; the explorer validates that post hoc by
   peeking at the successor's pending event.) *)
let purely_local f =
  f.reads = 0 && f.writes = 0 && (not f.cs_check) && (not f.budget)
  && not f.global

(* --- dense move encoding (sleep-set masks) --------------------------- *)

(* Moves pack into [0 .. n*stride - 1]: per process, slot 0 is Step,
   slot 1 is Commit, slot [2+v] is Commit_var v. When crash moves are in
   play ([codec_of_config ~crashes:true]) the stride widens: slot 2 is
   Recover, slots [3+v] are Commit_var, and slots [3+nvars+k] are Crash
   with prefix [k] (0..nvars — a buffer holds at most one write per
   variable). When abort moves are in play ([~aborts:true]) one more
   slot — always the last of the stride — encodes Abort; crash and abort
   widenings compose. Sleep sets are then one-word bitsets over codes;
   configurations too large to encode simply run without sleep sets
   (masks stay 0), keeping the reduction sound. Fault-free explorations
   keep the narrow stride so their encodability is unchanged. *)
type codec = {
  stride : int;
  total_bits : int;
  encodable : bool;
  crashes : bool;
  aborts : bool;
}

let codec_of_config ?(crashes = false) ?(aborts = false) (cfg : Config.t) =
  let nvars = Layout.size cfg.Config.layout in
  let stride =
    (if crashes then 4 + (2 * nvars) else 2 + nvars)
    + if aborts then 1 else 0
  in
  let total_bits = cfg.Config.n * stride in
  { stride; total_bits; encodable = total_bits <= Sys.int_size - 2; crashes;
    aborts }

(* Variable count implied by the stride, independent of the widenings. *)
let codec_nvars c =
  let base = c.stride - if c.aborts then 1 else 0 in
  if c.crashes then (base - 4) / 2 else base - 2

let encode c = function
  | Step p -> p * c.stride
  | Commit p -> (p * c.stride) + 1
  | Commit_var (p, v) -> (p * c.stride) + (if c.crashes then 3 else 2) + v
  | Recover p ->
      if not c.crashes then invalid_arg "Footprint.encode: crash-free codec";
      (p * c.stride) + 2
  | Crash (p, k) ->
      if not c.crashes then invalid_arg "Footprint.encode: crash-free codec";
      (p * c.stride) + 3 + codec_nvars c + k
  | Abort p ->
      if not c.aborts then invalid_arg "Footprint.encode: abort-free codec";
      (p * c.stride) + c.stride - 1

let decode c code =
  let p = code / c.stride in
  let nvars = codec_nvars c in
  match code mod c.stride with
  | s when c.aborts && s = c.stride - 1 -> Abort p
  | 0 -> Step p
  | 1 -> Commit p
  | 2 when c.crashes -> Recover p
  | s when not c.crashes -> Commit_var (p, s - 2)
  | s when s - 3 < nvars -> Commit_var (p, s - 3)
  | s -> Crash (p, s - 3 - nvars)

let full_mask c = (1 lsl c.total_bits) - 1
