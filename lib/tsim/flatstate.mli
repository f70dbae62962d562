(** Flat mutation journal: an unboxed [int array] log plus typed side
    stacks for pointer-sized operands (continuations and buffer
    entries).

    The machine (machine.ml) is the only writer; record tags and their
    encode/decode live there. The push discipline is: operands first,
    one header word last, so rollback pops the header and then the
    operands in reverse push order. Pushing an existing pointer onto a
    side stack allocates nothing — this is what makes journal-engine
    steps allocation-free in steady state. *)

type t

val create : unit -> t
val length : t -> int
(** Length of the main int log — the journal mark unit. *)

val clear : t -> unit

val reserve : t -> int -> unit
(** [reserve t n]: ensure capacity for [n] more ints, so a multi-word
    record can use {!push_unsafe} and pay the capacity check once. *)

val push_unsafe : t -> int -> unit
(** Push without a capacity check: only after a covering {!reserve}. *)

val push : t -> int -> unit
val pop : t -> int

val push_cont : t -> unit Prog.t -> unit
val pop_cont : t -> unit Prog.t
val push_entry : t -> Wbuf.entry -> unit
val pop_entry : t -> Wbuf.entry
val push_entries : t -> Wbuf.entry array -> unit
val pop_entries : t -> Wbuf.entry array
