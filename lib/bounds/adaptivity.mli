(** Adaptivity functions f(k) as first-class values. Values are floats
    because the exponential family overflows integers over the sweeps'
    i-ranges. *)

type t

val eval : t -> int -> float
val name : t -> string

val linear : float -> t
(** f(i) = c·i (Corollary 2's family). *)

val exponential : float -> t
(** f(i) = 2^(c·i) (Corollary 3's family). *)

val polynomial : c:float -> d:float -> t
val constant : float -> t
