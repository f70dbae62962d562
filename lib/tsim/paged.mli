(** Per-variable tables with a default value, stored in fixed-size pages
    that are allocated on the first write into them. A fresh table costs
    one directory slot per page, so the machine's accounting tables and
    {!Memmodel}'s line directory take memory for the variables a run
    writes, not for every variable its layout declares. *)

type 'a t

val create : size:int -> 'a -> 'a t
(** [size] cells that read the default until written; allocates only
    the page directory. @raise Invalid_argument if [size < 0]. *)

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
(** Both raise [Invalid_argument] outside [0, size). [set] allocates the
    cell's page, filled with the default, on the first write into it. *)

val copy : 'a t -> 'a t
(** Independent copy; copies only the written pages. *)

val equal : 'a t -> 'a t -> bool
(** Same size and structurally equal cells; an unwritten page reads as
    all-default, so where the writes fell does not matter. *)
