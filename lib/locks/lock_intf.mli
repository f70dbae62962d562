(** Interface implemented by every lock in the zoo.

    A lock declares its shared variables into a {!Tsim.Layout.t} (choosing
    DSM ownership for spin cells) and provides entry and exit-section
    programs. Some locks keep per-passage scratch state in OCaml arrays
    inside the lock's closure: the entry program stores into them as it
    executes and the exit program — constructed only when the process
    reaches its CS — reads them back. A single run or schedule replay is
    consistent, since it re-executes entries before exits; exploration is
    not, because the scratch is outside the machine state and shared by
    every explored branch (no journal rollback restores it), so state
    counts for those locks depend on exploration order.

    Lock programs close over variable ids, not over the lock's tables
    (arrays of ids, per-process paths, records holding them): look an
    id up before building the closures that use it. The explorer hashes
    every continuation with [Hashtbl.hash_param 128 256], which walks
    every value the closures capture and stops after 128 meaningful
    values or 256 queued ones, so a captured table costs that walk on
    every step and can push the rest of the continuation past the
    horizon, where two states that differ get one fingerprint. *)

open Tsim
open Tsim.Ids

type t = {
  name : string;
  uses_rmw : bool;  (** uses comparison primitives (CAS/FAA/SWAP)? *)
  one_time : bool;  (** supports a single passage per process only *)
  adaptive : bool;  (** RMR complexity a function of contention? *)
  layout : Layout.t;
  entry : Pid.t -> unit Prog.t;
  exit_section : Pid.t -> unit Prog.t;
  recovery : (Pid.t -> unit Prog.t) option;
      (** recovery section run before the entry section on the first
          passage after a crash ({!Tsim.Machine.crash}); [None] means the
          lock has no crash story and restarts cold *)
  abort : (Pid.t -> unit Prog.t) option;
      (** cleanup section run when an acquisition attempt is cancelled at
          a declared wait point ({!Tsim.Prog.abortable},
          {!Tsim.Machine.abort}). Must be bounded and leave the lock
          reusable; [None] means acquisitions cannot be aborted. *)
}

(** A lock family: instantiate shared state for [n] processes. *)
type family = { family_name : string; instantiate : n:int -> t }

val make_family : string -> (n:int -> t) -> family
