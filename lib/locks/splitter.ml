(* Moir–Anderson splitters and the renaming grid.

   A splitter is the read/write building block of adaptive algorithms
   (Kim–Anderson's adaptive mutex is built from them, which is why it
   appears in this reproduction): of the k processes entering a splitter,
   at most one *stops*, at most k-1 move right and at most k-1 move down.
   A triangular grid of splitters therefore assigns each participant a
   distinct cell ("name") within diagonal 2(k-1) — adaptive renaming with
   read/writes only.

   Each splitter needs one fence after its announce write (x := me) and
   one after claiming (y := 1): under TSO an unpublished x would let two
   processes both see their own id and stop at the same splitter. *)

open Tsim
open Tsim.Ids
open Prog

type outcome = Stop | Right | Down

type splitter = { x : Var.t; y : Var.t }

let make_splitter layout name =
  { x = Layout.var layout ~init:0 (name ^ ".x");
    y = Layout.var layout ~init:0 (name ^ ".y") }

(* The classic splitter protocol. *)
let enter_splitter (s : splitter) p =
  let me = p + 1 in
  let* () = write s.x me in
  let* () = fence in
  let* y = read s.y in
  if y <> 0 then return Right
  else
    let* () = write s.y 1 in
    let* () = fence in
    let* x = read s.x in
    if x = me then return Stop else return Down

(* A side x side grid is two blocks: the visited marks, row-major, then
   the splitters, each as its y then its x. *)
type grid = { side : int; marks : Var.t; splitters : Var.t }

let make_grid layout ~side =
  let cell k = Printf.sprintf "[%d][%d]" (k / side) (k mod side) in
  let marks = Layout.block layout (fun k -> "mark" ^ cell k) (side * side) in
  let splitters =
    Layout.block layout
      (fun k -> Printf.sprintf "sp%s.%s" (cell (k / 2)) (if k mod 2 = 0 then "y" else "x"))
      (2 * side * side)
  in
  { side; marks; splitters }

let cell_name g ~r ~d = (r * g.side) + d
let mark g ~r ~d = g.marks + cell_name g ~r ~d

let cell g ~r ~d =
  let y = g.splitters + (2 * cell_name g ~r ~d) in
  { x = y + 1; y }

(* Walk the grid from (0,0); returns the claimed cell's name, or None if
   the walk falls off the grid (more than [side] contenders on a path).
   Marks every visited cell, so the marks bound the region walks reached. *)
let rename g p =
  let rec walk r d =
    if r >= g.side || d >= g.side then return None
    else
      let* () = write (mark g ~r ~d) 1 in
      let* outcome = enter_splitter (cell g ~r ~d) p in
      match outcome with
      | Stop -> return (Some (cell_name g ~r ~d))
      | Right -> walk (r + 1) d
      | Down -> walk r (d + 1)
  in
  walk 0 0
