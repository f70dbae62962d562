(** Moir-Anderson splitters and the renaming grid — the read/write
    building blocks of adaptive algorithms (Kim-Anderson's adaptive mutex
    is built from them).

    Splitter guarantee for k entrants: at most one stops, at most k-1
    leave right, at most k-1 leave down; a sole entrant stops. A
    triangular grid therefore assigns distinct names within diagonal
    2(k-1) — adaptive renaming from reads and writes only. Each splitter
    costs two fences on TSO (announce and claim must be published). *)

open Tsim
open Tsim.Ids

type outcome = Stop | Right | Down

type splitter = { x : Var.t; y : Var.t }

val make_splitter : Layout.t -> string -> splitter
val enter_splitter : splitter -> Pid.t -> outcome Prog.t

type grid
(** A [side] x [side] renaming grid of splitters, each cell with a
    visited mark: a process marks every cell on its path, so an
    unmarked diagonal bounds the occupied region. *)

val make_grid : Layout.t -> side:int -> grid
(** Declares the [side]² marks ["mark[r][d]"], row-major, then the
    splitters, ["sp[r][d].y"] before ["sp[r][d].x"], each group as one
    layout block. *)

val cell : grid -> r:int -> d:int -> splitter
(** The splitter at row [r], column [d]. *)

val mark : grid -> r:int -> d:int -> Var.t
(** The visited mark of cell ([r], [d]). *)

val cell_name : grid -> r:int -> d:int -> int
(** Dense encoding of a cell as a name. *)

val rename : grid -> Pid.t -> int option Prog.t
(** Walk from (0,0); [Some name] of the claimed cell, or [None] if the
    walk fell off the grid. *)
