(* Shared fingerprint store. See fpstore.mli for the layout and the
   protocol, and DESIGN.md §5f for the soundness argument; the short form
   of the invariant maintained here is:

     every claim runs under its shard's lock and HANDS OUT the bits it
     clears from the remaining word (fresh = remaining ∧ cover, then
     remaining ∧= ¬cover) — so for every state the move sets handed out
     partition the union of the move sets requested, each bit is granted
     exactly once, and the node count is race-free.

   The tables and the per-shard lines are Bigarrays of kind [int]:
   untagged native words, malloc'd outside the OCaml heap. A table is
   only touched under its shard's lock, so it is read and written with
   plain accesses; the lock words, the counters and bitstate's bit array
   go through the __atomic stubs in fpstore_stubs.c. *)

type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

external a_get : buf -> int -> int = "pa_fps_get" [@@noalloc]
external a_set : buf -> int -> int -> unit = "pa_fps_set" [@@noalloc]
external a_cas : buf -> int -> int -> int -> bool = "pa_fps_cas" [@@noalloc]

external a_fetch_or : buf -> int -> int -> int = "pa_fps_fetch_or"
  [@@noalloc]

external a_fetch_add : buf -> int -> int -> int = "pa_fps_fetch_add"
  [@@noalloc]

type kind =
  | K_exact of buf array
      (* one table per shard, 2 words per slot (fp, remaining); replaced
         by a table twice the size when the shard grows *)
  | K_bits of { data : buf; words : int; hashes : int }
      (* the bit array, 32 usable bits per word *)

type t = {
  kind : kind;
  lines : buf;
      (* one 8-word (64-byte) line per shard: the shard's lock and
         counters, so two shards never share a cache line *)
}

type visit = New | Covered | Partial of int

(* --- shards and their lines ------------------------------------------ *)

let shard_bits = 6
let n_shards = 1 lsl shard_bits

(* Slots per shard at creation, at least; a shard doubles once more than
   half its slots are taken. *)
let min_slots = 64

(* A shard's line: word 0 is its lock (exact mode), then the counters at
   these offsets. [o_slots] is the exact table's slot count, [o_ones]
   the bits bitstate set (its lines are counter stripes only). *)
let o_entries = 1
let o_slots = 2
let o_ones = 2

let line s = s * 8
let bump lines s off v = ignore (a_fetch_add lines (line s + off) v)

let total t off =
  let s = ref 0 in
  for i = 0 to n_shards - 1 do
    s := !s + a_get t.lines (line i + off)
  done;
  !s

(* Spin on the shard's lock word: contention is two workers hashing to
   the same one of 64 shards at the same moment, and the holder keeps
   it for one probe (or one growth). *)
let rec lock lines l =
  if not (a_cas lines l 0 1) then begin
    Domain.cpu_relax ();
    lock lines l
  end

let unlock lines l = a_set lines l 0

(* --- hashing ----------------------------------------------------------- *)

(* murmur3-style finalizer over the native int, result forced positive.
   Fingerprints are already Zobrist-uniform, but callers (tests, hooks)
   may pass structured values, and bitstate mode needs k independent
   remixes — one strong mixer serves both. The exact store takes the
   shard from the low [shard_bits] bits of the mix and the home slot
   from the bits above them. The multipliers are the canonical 64-bit
   fmix constants reduced to 63 bits (shifted right one hex digit) with
   the low bit forced to 1: an even multiplier would zero the low result
   bit of the first stage. *)
let mix x =
  let x = x lxor (x lsr 33) in
  let x = x * 0xFF51AFD7ED558CD in
  let x = x lxor (x lsr 29) in
  let x = x * 0xC4CEB9FE1A85EC5 in
  (x lxor (x lsr 32)) land max_int

(* The fingerprint word uses 0 as the empty sentinel, so a genuine
   fingerprint of 0 (and negatives, for a uniform key domain) is remapped
   to a fixed nonzero constant / its 63-bit magnitude. *)
let canonical fp =
  let fp = fp land max_int in
  if fp = 0 then 0x2B992DDFA232 else fp

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let make_buf len : buf =
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
  Bigarray.Array1.fill b 0;
  b

let create ~mode ~expected =
  let lines = make_buf (n_shards * 8) in
  match (mode : Tsim.Config.store_mode) with
  | Tsim.Config.Store_exact ->
      (* room for [expected] states at load 1/2, spread over the shards *)
      let per_shard = (max 0 expected + n_shards - 1) / n_shards in
      let slots = next_pow2 (2 * per_shard) min_slots in
      let tables =
        Array.init n_shards (fun s ->
            a_set lines (line s + o_slots) slots;
            make_buf (2 * slots))
      in
      { kind = K_exact tables; lines }
  | Tsim.Config.Store_bitstate { log2_bits; hashes } ->
      let words = max 32 (1 lsl (log2_bits - 5)) in
      { kind = K_bits { data = make_buf words; words; hashes }; lines }

(* --- bitstate ---------------------------------------------------------- *)

(* k fetch_or bits per state; a state whose bits were all already set is
   treated as seen (possibly falsely — that is the omission the caller
   reads from [omission_prob]). No masks: the first visitor's coverage
   claim is taken at face value, SPIN-supertrace style. No lock: each bit
   is its own atomic claim. The counters are striped over the lines by
   fingerprint bits. *)
let visit_bits t ~data ~words ~hashes fp =
  let newbits = ref 0 in
  for i = 0 to hashes - 1 do
    let h = mix (fp + (((i * 2) + 1) * 0x9E3779B97F4A7C1)) in
    let w = (h lsr 5) land (words - 1) in
    let b = 1 lsl (h land 31) in
    let old = a_fetch_or data w b in
    if old land b = 0 then incr newbits
  done;
  if !newbits = 0 then Covered
  else begin
    let s = (fp lsr 7) land (n_shards - 1) in
    bump t.lines s o_entries 1;
    bump t.lines s o_ones !newbits;
    New
  end

(* --- exact --------------------------------------------------------------- *)

(* Plain table accesses, declared at [buf]'s type so they compile to
   inline loads and stores. *)
external get : buf -> int -> int = "%caml_ba_unsafe_ref_1"
external set : buf -> int -> int -> unit = "%caml_ba_unsafe_set_1"

(* The slot holding [fp] in a table of [mask + 1] slots, or the empty
   slot where it belongs (linear probing from [i]; the load stays at or
   below 1/2, so the scan ends within a few slots). *)
let rec find tbl mask fp i =
  let k = get tbl (2 * i) in
  if k = fp || k = 0 then i else find tbl mask fp ((i + 1) land mask)

let home h mask = (h lsr shard_bits) land mask

(* Double shard [s]'s table, rehashing every stored pair. Runs under the
   shard's lock; the old table becomes garbage at once (no one else can
   be reading it), and the Bigarray's external-memory accounting lets the
   GC free it promptly. *)
let grow tables lines s =
  let old = tables.(s) in
  let old_slots = Bigarray.Array1.dim old / 2 in
  let slots = 2 * old_slots in
  let tbl = make_buf (2 * slots) in
  let mask = slots - 1 in
  for j = 0 to old_slots - 1 do
    let k = get old (2 * j) in
    if k <> 0 then begin
      let i = find tbl mask k (home (mix k) mask) in
      set tbl (2 * i) k;
      set tbl ((2 * i) + 1) (get old ((2 * j) + 1))
    end
  done;
  tables.(s) <- tbl;
  a_set lines (line s + o_slots) slots

let visit_exact t tables fp cover =
  let h = mix fp in
  let s = h land (n_shards - 1) in
  let l = line s in
  lock t.lines l;
  let tbl = Array.unsafe_get tables s in
  let mask = (Bigarray.Array1.dim tbl / 2) - 1 in
  let i = find tbl mask fp (home h mask) in
  let r = (2 * i) + 1 in
  if get tbl (2 * i) = 0 then begin
    set tbl (2 * i) fp;
    set tbl r (lnot cover);
    let n = a_fetch_add t.lines (l + o_entries) 1 + 1 in
    (* an exception here (Out_of_memory while growing) must release the
       lock, or every other worker spins on it forever; the store stays
       valid, one entry past its load factor *)
    (if 2 * n > mask + 1 then
       try grow tables t.lines s
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         unlock t.lines l;
         Printexc.raise_with_backtrace e bt);
    unlock t.lines l;
    New
  end
  else begin
    let rem = get tbl r in
    let fresh = rem land cover in
    if fresh <> 0 then set tbl r (rem lxor fresh);
    unlock t.lines l;
    if fresh = 0 then Covered else Partial fresh
  end

let visit t ~fp ~cover =
  let fp = canonical fp in
  match t.kind with
  | K_bits { data; words; hashes } -> visit_bits t ~data ~words ~hashes fp
  | K_exact tables -> visit_exact t tables fp cover

(* --- statistics -------------------------------------------------------- *)

let entries t = total t o_entries

let omission_prob t =
  match t.kind with
  | K_exact _ -> 0.0
  | K_bits { words; hashes; _ } ->
      let m = float_of_int (32 * words) in
      let ones = float_of_int (total t o_ones) in
      (ones /. m) ** float_of_int hashes

let masks t = match t.kind with K_exact _ -> true | K_bits _ -> false

let capacity t =
  match t.kind with
  | K_exact _ -> total t o_slots
  | K_bits { words; _ } -> 32 * words
