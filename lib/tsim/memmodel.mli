(** RMR accounting per memory model (paper, Section 2): decides whether an
    access incurs an RMR and updates the CC line directory accordingly.

    - DSM: remote accesses are RMRs; no caches.
    - CC write-through: reads hit on a valid copy; every commit is an RMR
      and invalidates other copies.
    - CC write-back: reads hit on Shared/Exclusive (a miss downgrades the
      Exclusive holder); writes hit only on Exclusive (a miss invalidates
      the other copies and takes Exclusive).

    The directory holds one line per variable: Exclusive to one process,
    or Shared by a set of processes (the empty set: invalid everywhere),
    so an Exclusive copy excludes every other copy by construction. It is
    a {!Paged} table: a line reads invalid everywhere until an access
    writes it, and only the pages that accesses touch take memory. *)

open Ids

type t
(** The line directory of the CC models (unused under DSM). *)

val create : nvars:int -> t
(** Every line invalid everywhere; allocates the page directory only. *)

val copy : t -> t
(** Copies the pages that accesses have written. *)

val equal : t -> t -> bool

val read_rmr :
  Config.mem_model -> t -> Pid.t -> Var.t -> remote:bool
  -> bool * Event.read_src
(** Whether the read is an RMR, and where it was served from. *)

val write_rmr : Config.mem_model -> t -> Pid.t -> Var.t -> remote:bool -> bool
(** Whether a write commit or an atomic read-modify-write is an RMR (both
    need Exclusive under CC write-back). *)
