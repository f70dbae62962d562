(* Flat mutation journal.

   PR5's undo journal was a [Vec.t] of one boxed variant per undo record:
   every journaled mutation allocated a record (and the per-step head
   snapshot allocated a 17-field one), which dominated the minor-heap
   traffic of journal-engine DFS. This container replaces it with a
   struct-of-arrays log:

   - the main log is an unboxed [int array]: operand words are pushed
     first, then one header word [tag lor (aux lsl 4)] per record, so
     rollback pops the header and then the operands in reverse push
     order without any decoding state;
   - pointer-sized operands that cannot live in an int (program
     continuations and buffer entries) go to small typed side stacks.
     Pushing an existing pointer allocates nothing, and each record pops
     exactly what it pushed, so side-stack lengths never need journaling
     themselves.

   The container is generic bookkeeping: record tags and their
   encode/decode live with the machine (machine.ml), which is the only
   writer. *)

type t = {
  mutable ints : int array;
  mutable len : int;
  conts : unit Prog.t Vec.t;
  entries : Wbuf.entry Vec.t;
  entry_arrays : Wbuf.entry array Vec.t;
}

let dummy_entry =
  { Wbuf.var = 0; Wbuf.value = 0; Wbuf.aw = Ids.Pidset.empty }

let create () =
  {
    (* start tiny: every Machine carries one of these, and most (clones,
       replay machines) never journal *)
    ints = Array.make 8 0;
    len = 0;
    conts = Vec.create Prog.unit;
    entries = Vec.create dummy_entry;
    entry_arrays = Vec.create [||];
  }

let length t = t.len

let clear t =
  t.len <- 0;
  (* long searches can leave a big backing array behind; release it the
     same way Vec's shrink policy does *)
  if Array.length t.ints > 65536 then t.ints <- Array.make 8 0;
  Vec.clear t.conts;
  Vec.clear t.entries;
  Vec.clear t.entry_arrays

let[@inline never] grow t need =
  let cap = Array.length t.ints in
  let cap' = max need (2 * cap) in
  let a = Array.make cap' 0 in
  Array.blit t.ints 0 a 0 t.len;
  t.ints <- a

(* [reserve t n] then [n] [push_unsafe]s lets a multi-word record pay the
   capacity check once (the per-step head record is 11 words). *)
let[@inline] reserve t n = if t.len + n > Array.length t.ints then grow t (t.len + n)

let[@inline] push_unsafe t x =
  Array.unsafe_set t.ints t.len x;
  t.len <- t.len + 1

let[@inline] push t x =
  reserve t 1;
  push_unsafe t x

let[@inline] pop t =
  let i = t.len - 1 in
  t.len <- i;
  t.ints.(i)

let push_cont t c = Vec.push t.conts c
let pop_cont t = Vec.pop t.conts
let push_entry t e = Vec.push t.entries e
let pop_entry t = Vec.pop t.entries
let push_entries t es = Vec.push t.entry_arrays es
let pop_entries t = Vec.pop t.entry_arrays
