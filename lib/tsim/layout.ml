(* Shared-variable layout: names, initial values and DSM ownership.

   In the DSM model each variable is permanently local to at most one
   process ([owner v = Some p]); in the CC models every variable is remote
   to everybody ([owner v = None]), as in the paper. Locks declare their
   variables through this module so that the machine, the trace analyzer and
   the adversary all agree on ownership.

   Each declaration is one block of consecutive ids with one initial
   value and owner and name functions of the offset in the block: the
   cascade at n=128 declares half a million variables and a run touches
   a few thousand, so declaring costs nothing per variable and names are
   rendered only when asked for. *)

open Ids

type info = { name : string; init : Value.t; owner : Pid.t option }

type block = {
  first : Var.t;
  count : int;
  value : Value.t;  (* every variable's initial value *)
  owner_of : int -> Pid.t option;  (* by offset in the block *)
  name_of : int -> string;  (* by offset in the block *)
}

(* Blocks in id order, none of them empty: each starts where the one
   before it ends, and [size] is where the last one ends. *)
type t = { blocks : block Vec.t; mutable size : int }

let no_owner _ = None

let dummy_block =
  { first = 0; count = 0; value = 0; owner_of = no_owner; name_of = (fun _ -> "?") }

let create () = { blocks = Vec.create dummy_block; size = 0 }

let size t = t.size

let block t ?(owner_fn = no_owner) ?(init = 0) name_of count =
  if count < 0 then invalid_arg "Layout.block: negative count";
  let first = t.size in
  if count > 0 then begin
    Vec.push t.blocks { first; count; value = init; owner_of = owner_fn; name_of };
    t.size <- first + count
  end;
  first

let var t ?owner ?(init = 0) name =
  block t ~owner_fn:(fun _ -> owner) ~init (fun _ -> name) 1

let array t ?owner_fn ?(init = 0) name n =
  let first =
    block t ?owner_fn ~init (fun i -> Printf.sprintf "%s[%d]" name i) n
  in
  Array.init n (fun i -> first + i)

let matrix t ?owner_fn ?(init = 0) name rows cols =
  let owner_fn =
    Option.map (fun f k -> f (k / cols) (k mod cols)) owner_fn
  in
  let first =
    block t ?owner_fn ~init
      (fun k -> Printf.sprintf "%s[%d][%d]" name (k / cols) (k mod cols))
      (rows * cols)
  in
  Array.init rows (fun i -> Array.init cols (fun j -> first + (i * cols) + j))

(* The block holding [v]: the last one starting at or before it. *)
let find t v =
  if v < 0 || v >= t.size then
    invalid_arg (Printf.sprintf "Layout: variable %d out of range" v);
  let rec go lo hi =
    (* blocks.(lo).first <= v, and v < blocks.(hi).first unless hi is one
       past the last block *)
    if hi - lo <= 1 then Vec.get t.blocks lo
    else
      let mid = (lo + hi) / 2 in
      if (Vec.get t.blocks mid).first <= v then go mid hi else go lo mid
  in
  go 0 (Vec.length t.blocks)

let name t v =
  let b = find t v in
  b.name_of (v - b.first)

let init t v = (find t v).value

let owner t v =
  let b = find t v in
  b.owner_of (v - b.first)

let info_in b k = { name = b.name_of k; init = b.value; owner = b.owner_of k }

let info t v =
  let b = find t v in
  info_in b (v - b.first)

let initial_memory t =
  let mem = Array.make t.size 0 in
  Vec.iter
    (fun b -> if b.value <> 0 then Array.fill mem b.first b.count b.value)
    t.blocks;
  mem

let is_local t p v = match owner t v with Some q -> Pid.equal p q | None -> false
let is_remote t p v = not (is_local t p v)

let pp_var t fmt v = Format.fprintf fmt "%s" (name t v)

let iter t f =
  Vec.iter
    (fun b ->
      for k = 0 to b.count - 1 do
        f (b.first + k) (info_in b k)
      done)
    t.blocks
