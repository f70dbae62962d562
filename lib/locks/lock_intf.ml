(* Interface implemented by every lock in the zoo.

   A lock declares its shared variables into a [Layout.t] (choosing DSM
   ownership for variables a process spins on) and provides entry- and
   exit-section programs per process. Some locks (ticket, CLH, Anderson,
   the adaptive tree, cascade, the abortable queue) keep per-passage
   scratch state — a ticket number, a tree position — in OCaml arrays
   inside the context: the entry program stores into them as it executes
   and the exit program — constructed only when the process reaches its
   CS — reads them back. A single run or schedule replay sees a
   consistent value, because it re-executes the entry section before
   constructing the exit section. Exploration does not: the scratch lives
   outside the machine state, so every explored branch shares it and no
   journal rollback restores it, and state counts for these locks depend
   on the exploration order (EXPERIMENTS.md E22).

   Lock programs close over variable ids, not over the lock's tables:
   [Machine.hash_cont] walks every value a continuation captures and
   stops at 128 (see the interface). *)

open Tsim
open Tsim.Ids

type t = {
  name : string;
  uses_rmw : bool;  (* uses comparison primitives (CAS/FAA/SWAP)? *)
  one_time : bool;  (* only supports a single passage per process *)
  adaptive : bool;  (* RMR complexity a function of contention? *)
  layout : Layout.t;
  entry : Pid.t -> unit Prog.t;
  exit_section : Pid.t -> unit Prog.t;
  recovery : (Pid.t -> unit Prog.t) option;
      (* recovery section run before the entry section on the first
         passage after a crash (recoverable mutual exclusion); None means
         the lock has no crash story and restarts cold *)
  abort : (Pid.t -> unit Prog.t) option;
      (* cleanup section run when an acquisition attempt is cancelled at a
         declared wait point (Prog.abortable / Machine.abort). Must be
         bounded (no unbounded spins) and leave the lock reusable: other
         processes keep making progress and the aborter may re-enter
         later. None means acquisitions cannot be aborted. *)
}

(* A lock family: given n, instantiate shared state for n processes. *)
type family = { family_name : string; instantiate : n:int -> t }

let make_family name instantiate = { family_name = name; instantiate }
