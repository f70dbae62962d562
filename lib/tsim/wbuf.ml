(* Per-process TSO write buffer.

   Writes are issued into the buffer and become visible only when committed
   (oldest first). Following the paper's operational model, issuing a write
   to a variable that already has a pending write *replaces* the older entry
   in place, so the buffer holds at most one write per variable — this is
   what lets a process commit at most one write per variable during a single
   fence execution, a fact the write phase of the construction relies on. *)

open Ids

type entry = {
  var : Var.t;
  value : Value.t;
  aw : Pidset.t;
      (* awareness set of the writer at issue time (Definition 1, case 2) *)
}

type t = entry Vec.t

let dummy_entry = { var = -1; value = 0; aw = Pidset.empty }

let create () : t = Vec.create ~capacity:4 dummy_entry

let is_empty = Vec.is_empty
let size = Vec.length

(* Index of the pending write to [var], or -1. The scans are top-level
   recursions, so they allocate no closure (the explorer's hot path). *)
let rec index_of (t : t) var i =
  if i >= Vec.length t then -1
  else if Var.equal (Vec.get t i).var var then i
  else index_of t var (i + 1)

let mem (t : t) var = index_of t var 0 >= 0

(* Store-to-load forwarding: a read sees its own pending write. *)
let find (t : t) var =
  let i = index_of t var 0 in
  if i < 0 then None else Some (Vec.get t i).value

(* Journal-aware issue: reports the replaced entry (and its index) so the
   mutation journal can restore it on undo, or [None] when the write was
   appended (undo = drop the last entry). *)
let push' (t : t) entry =
  let i = index_of t entry.var 0 in
  if i < 0 then (Vec.push t entry; None)
  else begin
    let old = Vec.get t i in
    Vec.set t i entry;
    Some (i, old)
  end

let push (t : t) entry = ignore (push' t entry)

let peek (t : t) = if Vec.is_empty t then None else Some (Vec.get t 0)

(* Allocation-free variants for the fingerprint hot path. *)
let peek_var (t : t) = (Vec.get t 0).var
let get (t : t) i = Vec.get t i

let pop (t : t) =
  if Vec.is_empty t then invalid_arg "Wbuf.pop: empty buffer";
  Vec.remove t 0

(* Journal-aware PSO commit: also reports the index the entry occupied, so
   undo can re-insert it in order. *)
let pop_var' (t : t) var =
  let i = index_of t var 0 in
  if i < 0 then invalid_arg "Wbuf.pop_var: no pending write to that variable";
  (i, Vec.remove t i)

(* Remove the pending write to [var] out of order (PSO commits). *)
let pop_var (t : t) var = snd (pop_var' t var)

(* Undo primitives: raw positional restore of journaled mutations. *)
let set (t : t) i entry = Vec.set t i entry
let insert (t : t) i entry = Vec.insert t i entry
let drop_last (t : t) = ignore (Vec.pop t)
let entries (t : t) = Vec.to_array t

(* Crash support: discard every pending write (Config.Drop_buffer, or the
   suffix beyond a committed prefix under Atomic_prefix). *)
let clear (t : t) = Vec.clear t

let iter f (t : t) = Vec.iter f t
let vars (t : t) = Vec.fold (fun acc e -> e.var :: acc) [] t |> List.rev
let copy (t : t) : t = Vec.copy t
