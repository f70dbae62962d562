(** Shared-variable layout: names, initial values and DSM ownership.

    In the DSM model each variable is permanently local to at most one
    process; in the CC models every variable is remote to everybody
    ([owner = None]), following the paper. Algorithms declare their
    variables through this module so the machine, the trace analyzer and
    the adversary agree on ownership.

    Every declaration is one block of consecutive ids; ids are handed
    out in declaration order, starting at 0. A variable's name is
    rendered from its block's name function only when {!name}, {!info},
    {!iter} or {!pp_var} asks for it, so declaring a large block costs
    no per-variable work. {!init} and {!owner} find the block by binary
    search over the blocks. *)

open Ids

type info = { name : string; init : Value.t; owner : Pid.t option }

type t

val create : unit -> t

val size : t -> int
(** Number of declared variables. *)

val block :
  t -> ?owner_fn:(int -> Pid.t option) -> ?init:Value.t -> (int -> string)
  -> int -> Var.t
(** [block t name_of n] declares [n] variables with consecutive ids and
    returns the first ([size t] before the call, also when [n = 0]).
    Variable [first + i] is named [name_of i] and owned by [owner_fn i]
    (default: no owner); both must be pure, as they are called on
    demand, any number of times.
    @raise Invalid_argument if [n < 0]. *)

val var : t -> ?owner:Pid.t -> ?init:Value.t -> string -> Var.t
(** Declare one variable (default [init = 0], no owner). *)

val array : t -> ?owner_fn:(int -> Pid.t option) -> ?init:Value.t -> string
  -> int -> Var.t array
(** Declare [n] variables named ["name[i]"]; [owner_fn i] assigns DSM
    ownership per index (e.g. [fun i -> Some i] for per-process spin
    cells). *)

val matrix : t -> ?owner_fn:(int -> int -> Pid.t option) -> ?init:Value.t
  -> string -> int -> int -> Var.t array array
(** Declare [rows * cols] variables named ["name[i][j]"], row-major. *)

val info : t -> Var.t -> info
val name : t -> Var.t -> string
val init : t -> Var.t -> Value.t
val owner : t -> Var.t -> Pid.t option
(** These four raise [Invalid_argument] on an id outside [0, size t). *)

val initial_memory : t -> Value.t array
(** A fresh array of every variable's initial value, indexed by id and
    filled block by block (the machine's starting memory). *)

val is_local : t -> Pid.t -> Var.t -> bool
val is_remote : t -> Pid.t -> Var.t -> bool

val pp_var : t -> Format.formatter -> Var.t -> unit
val iter : t -> (Var.t -> info -> unit) -> unit
(** In id order. *)
