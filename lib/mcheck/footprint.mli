(** Per-move footprints, the independence relation, and the dense move
    encoding used by the explorer's partial-order reduction.

    See {!Explore} for the soundness argument tying these pieces to the
    sleep-set / ample-set machinery. *)

open Tsim
open Tsim.Ids

(** One scheduler choice (mirrored by {!Explore.move}). [Crash (p, k)]
    injects a crash fault committing a [k]-entry buffer prefix
    ({!Machine.crash}); [Recover p] restarts a crashed process;
    [Abort p] cancels an acquisition attempt at a declared wait point
    ({!Machine.abort}). *)
type move =
  | Step of Pid.t
  | Commit of Pid.t
  | Commit_var of Pid.t * Var.t
  | Crash of Pid.t * int
  | Recover of Pid.t
  | Abort of Pid.t

val move_pid : move -> Pid.t

(** Over-approximate footprint of a move in a given state. Fields are
    mutable solely so {!of_move_into} can refill a scratch record without
    allocating; treat values as immutable unless you own the scratch. *)
type t = {
  mutable pid : Pid.t;
  mutable reads : int;  (** bitset of shared variables read from memory *)
  mutable writes : int;  (** bitset of shared variables written *)
  mutable cs_check : bool;
      (** CS execution: reads every process's CS-enabledness *)
  mutable may_enable_cs : bool;
      (** may change the owner's CS-enabledness *)
  mutable budget : bool;
      (** consumes the shared crash budget; any two budget-consuming
          moves are dependent (one can disable the other) *)
  mutable global : bool;  (** conservative fallback: dependent on everything *)
}

val make_scratch : unit -> t
(** A scratch record for {!of_move_into} (initially an empty local
    footprint of pid 0). *)

val of_move_into : t -> Machine.t -> move -> unit
(** [of_move_into f m mv] fills [f] with the footprint of [mv] in machine
    state [m], computed without executing it and allocating nothing
    (explorer hot path). Only meaningful for enabled moves; disabled ones
    get conservative answers. The previous contents of [f] are
    overwritten; results from earlier fills must not be read after a
    refill. *)

val of_move : Machine.t -> move -> t
(** {!of_move_into} on a fresh {!make_scratch} record. *)

val independent : t -> t -> bool
(** Sound commutation check: [independent a b] implies the two moves are
    enabled-preserving and commute up to the explorer's fingerprint
    projection, and neither can mask or cause a violation of the other.
    Moves of the same process are never independent. *)

val purely_local : t -> bool
(** No shared-variable access, no CS check, not global — the candidate
    class for singleton ample sets. [may_enable_cs] may still hold; the
    explorer validates that post hoc on the successor state. *)

(** {1 Dense move encoding}

    Sleep sets are one-word bitsets over move codes
    [pid * stride + slot]. Configurations whose move space exceeds a
    word are flagged unencodable and run without sleep sets. *)

type codec = {
  stride : int;
  total_bits : int;
  encodable : bool;
  crashes : bool;  (** stride widened to cover Crash/Recover slots *)
  aborts : bool;  (** stride widened by one trailing Abort slot *)
}

val codec_of_config : ?crashes:bool -> ?aborts:bool -> Config.t -> codec
(** [~crashes:true] (default [false]) reserves code slots for [Recover]
    and every [Crash] prefix length; [~aborts:true] (default [false])
    reserves one more for [Abort]. Fault-free explorations keep the
    narrow stride so their encodability is unchanged. {!encode} raises
    [Invalid_argument] on a fault move against a codec without its
    slots. *)

val encode : codec -> move -> int
val decode : codec -> int -> move
val full_mask : codec -> int
(** Mask with one bit per encodable move; only valid when [encodable]. *)
