(** Undirected graphs over an arbitrary vertex type. The construction's
    read and write phases build small conflict graphs over active
    processes and keep a Turán independent set of them. *)

type 'v t = {
  vertices : 'v array;
  index : ('v, int) Hashtbl.t;
  adj : (int, unit) Hashtbl.t array;
  mutable edges : int;
}

val create : 'v list -> 'v t

val order : 'v t -> int
(** Number of vertices. *)

val size : 'v t -> int
(** Number of edges. *)

val add_edge : 'v t -> 'v -> 'v -> unit
(** Self-loops, duplicates and edges to absent vertices are ignored. *)

val has_edge : 'v t -> 'v -> 'v -> bool
val degree : 'v t -> 'v -> int
val average_degree : 'v t -> float
val neighbours : 'v t -> 'v -> 'v list
val is_independent : 'v t -> 'v list -> bool
