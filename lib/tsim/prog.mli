(** Process programs as a free monad over shared-memory operations.

    A program deterministically describes what a process does between the
    Enter/CS/Exit transition events: reads, writes, fences, and comparison
    primitives (which the paper's tradeoff explicitly covers). Determinism
    given read values is what makes trace erasure (Lemmas 1 and 4)
    executable by replay. *)

open Ids

(** One shared-memory operation, indexed by its result type. *)
type _ op =
  | Read : Var.t -> Value.t op
  | Write : Var.t * Value.t -> unit op
  | Fence : unit op
  | Cas : Var.t * Value.t * Value.t -> bool op
      (** [Cas (v, expected, desired)] returns whether it installed
          [desired]. *)
  | Faa : Var.t * Value.t -> Value.t op
      (** [Faa (v, delta)] returns the previous value. *)
  | Swap : Var.t * Value.t -> Value.t op
      (** [Swap (v, x)] stores [x] and returns the previous value. *)
  | Abortable : bool -> unit op
      (** Abortable-waiting marker: declares (true) / retracts (false)
          that the process is at a wait point where an adversary abort
          ({!Machine.abort}) may be delivered. Purely local — no shared
          memory, no trace event. *)

(** A program returning ['a]. *)
type 'a t =
  | Return : 'a -> 'a t
  | Bind : 'b op * ('b -> 'a t) -> 'a t

val return : 'a -> 'a t
val bind : 'a t -> ('a -> 'b t) -> 'b t
val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
val ( >>= ) : 'a t -> ('a -> 'b t) -> 'b t
val map : 'a t -> ('a -> 'b) -> 'b t
val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t

val read : Var.t -> Value.t t
val write : Var.t -> Value.t -> unit t

val fence : unit t
(** A full memory fence: drains the process's write buffer. The machine
    models it as a [BeginFence]/[EndFence] pair with the buffered commits
    in between (paper, Section 2). *)

val cas : Var.t -> expected:Value.t -> desired:Value.t -> bool t
val faa : Var.t -> Value.t -> Value.t t
val swap : Var.t -> Value.t -> Value.t t

val unit : unit t

val seq : unit t list -> unit t
(** Sequence a list of unit programs. *)

val for_ : int -> int -> (int -> unit t) -> unit t
(** [for_ lo hi body] runs [body i] for [i = lo..hi]. *)

exception Spin_exhausted of Var.t
(** Raised when a bounded busy-wait exceeds its fuel; harnesses surface it
    as a liveness diagnosis rather than diverging. *)

val default_spin_fuel : int ref
(** Fuel used by {!spin_until} when none is given (default 1_000_000).
    The model checker shrinks it during state-space exploration. *)

val spin_until : ?fuel:int -> Var.t -> (Value.t -> bool) -> Value.t t
(** [spin_until v cond] reads [v] until [cond] holds on the value read and
    returns that value.

    @raise Spin_exhausted (at simulation time) after [fuel] (default
    [!default_spin_fuel]) reads. *)

val repeat_until : 'a t -> ('a -> bool) -> 'a t
(** Re-run a program until its result satisfies the predicate. *)

val abortable : bool -> unit t
(** Raise (true) or lower (false) the abortable-waiting marker. *)

val abortably : 'a t -> 'a t
(** Bracket a wait: marker up, run the body, marker down. Aborts are
    deliverable at every scheduling point inside the bracket. *)

val abortable_spin_until : ?fuel:int -> Var.t -> (Value.t -> bool) -> Value.t t
(** {!spin_until} declared as an abortable wait point. *)

val retry_backoff : ?fuel:int -> Var.t -> bool t -> unit t
(** [retry_backoff v attempt] runs the optimistic [attempt] until it
    returns true; between failures it backs off by re-reading [v] an
    exponentially growing number of times (once, then doubling), and
    that polite wait is an abortable window. Exhausting
    [fuel] attempts raises {!Spin_exhausted}[ v] at simulation time. *)

val head_to_string : 'a t -> string
(** Describe the next operation of a program, for diagnostics. *)
