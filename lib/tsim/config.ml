(* Machine configuration.

   A configuration fixes everything a deterministic replay needs: the number
   of processes, the memory/cost model, the shared-variable layout and the
   per-process entry and exit section programs. Erasure (lib/trace)
   re-creates machines from the same configuration, which is why programs
   live here rather than being fed to the machine imperatively. *)

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
   interpreter, stepped in place and rolled back through the mutation
   journal. The one-value type keeps the field for code that sets it. *)
type engine = [ `Journal ]

(* How the explorer remembers visited states:

   - [Store_exact]: every distinct fingerprint is kept (a hash table at
     one domain, the shared lock-free store in parallel mode). Exact
     dedup; memory grows with the reachable space. The default. The
     shared store caps at 2^23 slots: past ~8M states parallel exact
     mode drops (counts, confesses in the verdict) overflowing states
     and re-explores them, where the sequential hash table just grows —
     for spaces that big run at one domain or use [Store_bitstate].
   - [Store_bitstate]: SPIN-style bitstate/supertrace hashing — [hashes]
     hash functions into a bit array of 2^[log2_bits] bits. Memory is
     fixed; distinct states may alias (the search then under-approximates
     coverage), and the explorer reports a measured omission-probability
     estimate in its stats. Sleep-set pruning is suspended at admitted
     states under this mode, so aliasing is the only omission source. *)
type store_mode =
  | Store_exact
  | Store_bitstate of { log2_bits : int; hashes : int }

let store_mode_name = function
  | Store_exact -> "exact"
  | Store_bitstate { log2_bits; hashes } ->
      Printf.sprintf "bitstate(2^%d bits, k=%d)" log2_bits hashes

type t = {
  n : int;  (* number of processes *)
  model : mem_model;
  ordering : ordering;
  layout : Layout.t;
  entry : Pid.t -> unit Prog.t;  (* entry-section program for one passage *)
  exit_section : Pid.t -> unit Prog.t;
  max_passages : int;  (* passages per process before it finishes *)
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
  engine : engine;  (* program execution under exploration *)
  store : store_mode;
      (* exploration seen-state memory policy (exact vs bitstate) *)
}

let make ?(model = Cc_wb) ?(ordering = Tso) ?(max_passages = 1)
    ?(check_exclusion = true) ?(record_trace = true)
    ?(crash_semantics = Drop_buffer) ?recovery ?abort_section
    ?(store = Store_exact) ~n ~layout ~entry ~exit_section () =
  if n <= 0 then invalid_arg "Config.make: n must be positive";
  (match store with
  | Store_exact -> ()
  | Store_bitstate { log2_bits; hashes } ->
      if log2_bits < 10 || log2_bits > 36 then
        invalid_arg "Config.make: bitstate log2_bits must be in [10, 36]";
      if hashes < 1 || hashes > 8 then
        invalid_arg "Config.make: bitstate hashes must be in [1, 8]");
  { n; model; ordering; layout; entry; exit_section; max_passages;
    check_exclusion; record_trace; crash_semantics; recovery;
    abort_section; engine = `Journal; store }

let summary c =
  Printf.sprintf
    "n=%d model=%s ordering=%s passages=%d engine=journal store=%s crash=%s%s%s"
    c.n (mem_model_name c.model) (ordering_name c.ordering) c.max_passages
    (store_mode_name c.store)
    (crash_semantics_name c.crash_semantics)
    (if c.recovery = None then "" else " recovery")
    (if c.abort_section = None then "" else " abortable")
