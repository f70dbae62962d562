(* RMR accounting per memory model (paper, Section 2).

   - DSM: an access to a variable remote to the process is an RMR; local
     accesses are free. There are no caches.
   - CC write-through: reads hit iff a valid copy is cached; every write
     commit is an RMR and invalidates all other copies.
   - CC write-back: reads hit on Shared or Exclusive copies; a read miss
     downgrades any Exclusive holder; writes hit only on an Exclusive copy,
     a write miss invalidates all other copies and takes Exclusive.

   The simulator keeps one authoritative value per variable (coherence
   never serves stale data), so the CC models track only line states, in
   a directory with one entry per variable (a {!Paged} table), following
   the protocol the paper quotes from Golab et al.: the line is held
   [Exclusive] by one process, or [Shared] by a set of processes — the
   empty set meaning invalid everywhere. An Exclusive copy excludes every
   other copy by construction. Write-through never takes Exclusive.

   The functions below both *decide* whether an access is an RMR and
   *update* the directory accordingly. In the CC models every variable is
   remote to every process (owner = ⊥), per the paper. *)

open Ids

type line = Exclusive of Pid.t | Shared of Pidset.t
type t = line Paged.t

let create ~nvars = Paged.create ~size:nvars (Shared Pidset.empty)
let copy = Paged.copy

(* [Pidset] representations are canonical, so structural equality is
   line equality. *)
let equal : t -> t -> bool = Paged.equal

(* A read miss joins the sharers, demoting an Exclusive holder to Shared
   (only write-back lines are ever Exclusive), so one branch serves both
   CC models. *)
let read_rmr (model : Config.mem_model) dir p v ~remote :
    bool * Event.read_src =
  match model with
  | Config.Dsm -> (remote, Event.From_memory)
  | Config.Cc_wt | Config.Cc_wb -> (
      match Paged.get dir v with
      | Exclusive q when Pid.equal q p -> (false, Event.From_cache)
      | Shared s when Pidset.mem p s -> (false, Event.From_cache)
      | Exclusive q ->
          Paged.set dir v (Shared (Pidset.add p (Pidset.singleton q)));
          (true, Event.From_memory)
      | Shared s ->
          Paged.set dir v (Shared (Pidset.add p s));
          (true, Event.From_memory))

(* Write commits and atomic RMWs alike: under write-through every one is
   an RMR and leaves the writer the only valid copy; under write-back only
   an Exclusive holder hits, and a miss takes Exclusive. *)
let write_rmr (model : Config.mem_model) dir p v ~remote : bool =
  match model with
  | Config.Dsm -> remote
  | Config.Cc_wt ->
      Paged.set dir v (Shared (Pidset.singleton p));
      true
  | Config.Cc_wb -> (
      match Paged.get dir v with
      | Exclusive q when Pid.equal q p -> false
      | Exclusive _ | Shared _ ->
          Paged.set dir v (Exclusive p);
          true)
