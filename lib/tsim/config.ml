(* Machine configuration.

   A configuration fixes everything a deterministic replay needs: the number
   of processes, the memory/cost model, the shared-variable layout, the
   per-process entry and exit section programs, and the RMW-fencing
   convention. Erasure (lib/trace) re-creates machines from the same
   configuration, which is why programs live here rather than being fed to
   the machine imperatively. *)

open Ids

type mem_model =
  | Dsm  (* distributed shared memory: remote accesses are RMRs *)
  | Cc_wt  (* cache-coherent, write-through protocol *)
  | Cc_wb  (* cache-coherent, write-back protocol *)

let mem_model_name = function
  | Dsm -> "DSM"
  | Cc_wt -> "CC-WT"
  | Cc_wb -> "CC-WB"

(* Store ordering. TSO (the paper's model) commits buffered writes in issue
   order; PSO (Section 6 / SPARC PSO) additionally lets writes to different
   variables commit out of order — the scheduler may commit any buffered
   write, not just the oldest. *)
type ordering = Tso | Pso

let ordering_name = function Tso -> "TSO" | Pso -> "PSO"

(* What happens to a crashed process's write buffer (recoverable mutual
   exclusion literature; cf. Chan & Woelfel and Golab & Ramaraju):

   - [Drop_buffer]: pending writes vanish — crashes erase everything that
     had not reached shared memory (the strictest model; a buffered lock
     release is simply lost).
   - [Flush_buffer]: the whole buffer commits atomically at the crash —
     the hardware drains the store buffer as part of failure containment.
   - [Atomic_prefix]: an adversary-chosen FIFO prefix of the buffer
     commits and the rest is dropped — the general "the machine died
     partway through the drain" model. The surviving prefix length is a
     scheduler choice ([Machine.crash ~commit_prefix]); the explorer
     branches over every prefix. *)
type crash_semantics = Drop_buffer | Flush_buffer | Atomic_prefix

let crash_semantics_name = function
  | Drop_buffer -> "drop-buffer"
  | Flush_buffer -> "flush-buffer"
  | Atomic_prefix -> "atomic-prefix"

(* How machines execute programs under the explorer: the continuation
   interpreter ([`Journal], the default) or compile-ahead code
   ([`Compiled], see Compile). Verdicts, node counts and fingerprints are
   identical. *)
type engine = [ `Journal | `Compiled ]

let engine_name = function `Journal -> "journal" | `Compiled -> "compiled"

(* PA_ENGINE overrides the default so CI can run every existing suite
   under another engine without touching the suites. Empty counts as
   unset; any other value is rejected rather than silently run as the
   journal engine. *)
let default_engine () : engine =
  match Sys.getenv_opt "PA_ENGINE" with
  | None | Some "" | Some "journal" -> `Journal
  | Some "compiled" -> `Compiled
  | Some other ->
      invalid_arg
        (Printf.sprintf
           "PA_ENGINE=%S: unknown engine (expected journal or compiled)"
           other)

(* How the explorer remembers visited states:

   - [Store_exact]: every distinct fingerprint is kept (a hash table at
     one domain, the shared lock-free store in parallel mode). Exact
     dedup; memory grows with the reachable space. The default. The
     shared store caps at 2^23 slots: past ~8M states parallel exact
     mode drops (counts, confesses in the verdict) overflowing states
     and re-explores them, where the sequential hash table just grows —
     prefer [Store_bounded] for spaces that big.
   - [Store_bitstate]: SPIN-style bitstate/supertrace hashing — [hashes]
     hash functions into a bit array of 2^[log2_bits] bits. Memory is
     fixed; distinct states may alias (the search then under-approximates
     coverage), and the explorer reports a measured omission-probability
     estimate in its stats. Sleep-set pruning is suspended at admitted
     states under this mode, so aliasing is the only omission source.
   - [Store_bounded]: exact fingerprints in a fixed table of
     2^[log2_slots] slots with eviction on collision-window overflow.
     Memory is fixed and the search stays exhaustive: an evicted state
     reached again is simply re-explored (the cost is time, counted as
     [store_evictions], never soundness). *)
type store_mode =
  | Store_exact
  | Store_bitstate of { log2_bits : int; hashes : int }
  | Store_bounded of { log2_slots : int }

let store_mode_name = function
  | Store_exact -> "exact"
  | Store_bitstate { log2_bits; hashes } ->
      Printf.sprintf "bitstate(2^%d bits, k=%d)" log2_bits hashes
  | Store_bounded { log2_slots } ->
      Printf.sprintf "bounded(2^%d slots)" log2_slots

type t = {
  n : int;  (* number of processes *)
  model : mem_model;
  ordering : ordering;
  layout : Layout.t;
  entry : Pid.t -> unit Prog.t;  (* entry-section program for one passage *)
  exit_section : Pid.t -> unit Prog.t;
  max_passages : int;  (* passages per process before it finishes *)
  rmw_drains : bool;
      (* atomic RMWs drain the store buffer and count one fence, as on x86;
         the paper's tradeoff covers comparison primitives either way *)
  check_exclusion : bool;  (* detect two simultaneously-enabled CS events *)
  record_trace : bool;
      (* emit events into the machine trace and passage log; exploration
         turns this off so Machine.clone is O(state), not O(depth) *)
  crash_semantics : crash_semantics;
      (* fate of the write buffer when a process crashes *)
  recovery : (Pid.t -> unit Prog.t) option;
      (* recovery section run before the entry section on the first
         passage after a crash; [None] restarts at the entry label with
         no repair step (the non-recoverable baseline) *)
  abort_section : (Pid.t -> unit Prog.t) option;
      (* cleanup section run when the adversary aborts the process at a
         declared wait point ([Machine.abort]); must leave the lock
         reusable in a statically bounded number of own-steps. [None]
         means the lock is not abortable: abort moves are never
         deliverable *)
  engine : engine;
      (* program execution under exploration (interpreter vs compiled) *)
  pure_programs : bool;
      (* declared promise that [entry]/[exit_section]/[recovery] and every
         continuation they build are effect-free: constructing a program
         twice yields structurally identical terms and applying a
         continuation has no observable effect besides its result. The
         compile-ahead engine ([`Compiled]) caches interned continuations
         and applies them at most once each, which is only faithful under
         this promise — locks that pass per-passage scratch through
         mutable OCaml arrays (ticket, CLH, the adaptive tree) must leave
         it false, and [`Compiled] then degrades to the journal
         interpreter for them *)
  store : store_mode;
      (* exploration seen-state memory policy (exact vs memory-bounded) *)
}

let make ?(model = Cc_wb) ?(ordering = Tso) ?(max_passages = 1)
    ?(rmw_drains = true) ?(check_exclusion = true) ?(record_trace = true)
    ?(crash_semantics = Drop_buffer) ?recovery ?abort_section ?engine
    ?(pure_programs = false) ?(store = Store_exact) ~n ~layout ~entry
    ~exit_section () =
  if n <= 0 then invalid_arg "Config.make: n must be positive";
  let engine =
    match engine with Some e -> e | None -> default_engine ()
  in
  (match store with
  | Store_exact -> ()
  | Store_bitstate { log2_bits; hashes } ->
      if log2_bits < 10 || log2_bits > 36 then
        invalid_arg "Config.make: bitstate log2_bits must be in [10, 36]";
      if hashes < 1 || hashes > 8 then
        invalid_arg "Config.make: bitstate hashes must be in [1, 8]"
  | Store_bounded { log2_slots } ->
      if log2_slots < 8 || log2_slots > 30 then
        invalid_arg "Config.make: bounded log2_slots must be in [8, 30]");
  { n; model; ordering; layout; entry; exit_section; max_passages;
    rmw_drains; check_exclusion; record_trace; crash_semantics; recovery;
    abort_section; engine; pure_programs; store }

let summary c =
  Printf.sprintf
    "n=%d model=%s ordering=%s passages=%d engine=%s store=%s crash=%s%s%s"
    c.n (mem_model_name c.model) (ordering_name c.ordering) c.max_passages
    (engine_name c.engine) (store_mode_name c.store)
    (crash_semantics_name c.crash_semantics)
    (if c.recovery = None then "" else " recovery")
    (if c.abort_section = None then "" else " abortable")
