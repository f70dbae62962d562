(* Reusable Peterson building blocks: a 2-process node and a tournament
   over anonymous slots. Used by the adaptive-tree lock and the cascade
   lock; the tournament lock declares and runs its own nodes. *)

open Tsim
open Prog

(* A node is three consecutive variables from [node]: flag[0], flag[1]
   and turn, named [var_name tag k]. *)
let var_name tag k =
  if k = 2 then tag ^ ".turn" else Printf.sprintf "%s.flag[%d]" tag k

(* TSO-fenced acquire by side (0 or 1). The spin fuel is read when the
   program is built. *)
let acquire node side =
  let turn = node + 2 in
  let* () = write (node + side) 1 in
  let* () = write turn side in
  let* () = fence in
  let rec await fuel =
    if fuel <= 0 then raise (Prog.Spin_exhausted turn)
    else
      let* rival = read (node + 1 - side) in
      if rival = 0 then unit
      else
        let* t = read turn in
        if t <> side then unit else await (fuel - 1)
  in
  await !Prog.default_spin_fuel

let release node side =
  let* () = write (node + side) 0 in
  fence

(* A 2-process Peterson node. Returns (acquire, release) by side. *)
let peterson_node layout tag =
  let node = Layout.block layout (var_name tag) 3 in
  (acquire node, release node)

(* A Peterson tournament over [leaves] anonymous slots: an entrant starts
   at the leaf matching its slot index and climbs to the root. At most one
   process may hold any slot at a time. Returns (entry, exit) by slot.
   Nodes 1 .. l-1 are one block, node i named as [peterson_node] would
   name ["tag.i"]; a node's programs are built only when an entry or exit
   passes through it. *)
let tournament_over layout tag ~leaves =
  let next_pow2 n =
    let rec go x = if x >= n then x else go (2 * x) in
    go 1
  in
  let l = max 2 (next_pow2 leaves) in
  let base =
    Layout.block layout
      (fun k -> var_name (Printf.sprintf "%s.%d" tag ((k / 3) + 1)) (k mod 3))
      (3 * (l - 1))
  in
  let node i = base + (3 * (i - 1)) in
  let path slot =
    let rec climb node_ acc =
      if node_ <= 1 then List.rev acc
      else climb (node_ / 2) ((node_ / 2, node_ mod 2) :: acc)
    in
    climb (l + slot) []
  in
  let entry slot =
    seq (List.map (fun (nd, side) -> acquire (node nd) side) (path slot))
  in
  let exit_ slot =
    seq (List.map (fun (nd, side) -> release (node nd) side) (List.rev (path slot)))
  in
  (entry, exit_)
