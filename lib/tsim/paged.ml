(* A directory of pages of [page_size] cells. An unwritten page is the
   empty array, one shared atom; the last page holds only the cells below
   [size]. *)

let page_bits = 8
let page_size = 1 lsl page_bits

type 'a t = { size : int; default : 'a; pages : 'a array array }

let create ~size default =
  if size < 0 then invalid_arg "Paged.create: negative size";
  let npages = (size + page_size - 1) lsr page_bits in
  { size; default; pages = Array.make npages [||] }

let check t i = if i < 0 || i >= t.size then invalid_arg "index out of bounds"

let get t i =
  check t i;
  match t.pages.(i lsr page_bits) with
  | [||] -> t.default
  | page -> page.(i land (page_size - 1))

let set t i x =
  check t i;
  let p = i lsr page_bits in
  if Array.length t.pages.(p) = 0 then
    t.pages.(p) <-
      Array.make (min page_size (t.size - (p lsl page_bits))) t.default;
  t.pages.(p).(i land (page_size - 1)) <- x

(* [Array.copy [||]] is [[||]]: unwritten pages stay unallocated. *)
let copy t = { t with pages = Array.map Array.copy t.pages }

let equal a b =
  let same pa pb =
    match (pa, pb) with
    | [||], [||] -> a.default = b.default
    | [||], p -> Array.for_all (( = ) a.default) p
    | p, [||] -> Array.for_all (( = ) b.default) p
    | _ -> pa = pb
  in
  a.size = b.size && Array.for_all2 same a.pages b.pages
