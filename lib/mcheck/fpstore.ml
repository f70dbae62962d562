(* Shared lock-free fingerprint store. See fpstore.mli for the protocol
   overview and DESIGN.md §5f for the soundness argument; the short form
   of the invariant maintained here is:

     every remaining-word transition HANDS OUT bits (fetch_and, to a
     visitor who then explores them) and never silently discards them —
     so for every state, the union of move sets handed out over time
     covers the union of move sets requested. Masks only ever shrink, so
     each bit is granted exactly once and the node count is race-free.

   The flat region is a Bigarray of kind [int]: untagged native words,
   malloc'd outside the OCaml heap (stable pointer, shareable across
   domains), accessed through the __atomic stubs in fpstore_stubs.c. *)

type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

external a_get : buf -> int -> int = "pa_fps_get" [@@noalloc]
external a_cas : buf -> int -> int -> int -> bool = "pa_fps_cas" [@@noalloc]

external a_fetch_and : buf -> int -> int -> int = "pa_fps_fetch_and"
  [@@noalloc]

external a_fetch_or : buf -> int -> int -> int = "pa_fps_fetch_or"
  [@@noalloc]

external a_fetch_add : buf -> int -> int -> int = "pa_fps_fetch_add"
  [@@noalloc]

type kind = K_exact | K_bits of { words : int; hashes : int }

type t = {
  kind : kind;
  data : buf;
      (* exact: 2 words per slot (fp, remaining); bitstate: the bit
         array, 32 usable bits per word *)
  stats : buf;  (* striped counters, one 8-cell cache line per stripe *)
  slots : int;  (* exact; 0 for bitstate *)
  n_shards : int;
  shard_size : int;  (* slots / n_shards, a power of two *)
  shard_bits : int;  (* log2 n_shards *)
  window : int;  (* linear-probe window within a shard *)
}

type visit = New | Covered | Partial of int

(* --- counters ---------------------------------------------------------- *)

(* 16 stripes, 8 words apart so each stripe owns a 64-byte line; the
   stripe is picked from fingerprint bits so concurrent visitors of
   unrelated states bump different lines. Offsets within a stripe: *)
let o_entries = 0
let o_drops = 1
let o_ones = 2  (* bitstate: bits newly set *)

let n_stripes = 16
let stripe fp = (fp lsr 7) land (n_stripes - 1)
let bump t fp off v = ignore (a_fetch_add t.stats ((stripe fp * 8) + off) v)

let total t off =
  let s = ref 0 in
  for i = 0 to n_stripes - 1 do
    s := !s + a_get t.stats ((i * 8) + off)
  done;
  !s

(* --- hashing ----------------------------------------------------------- *)

(* murmur3-style finalizer over the native int, result forced positive.
   Fingerprints are already Zobrist-uniform, but the store indexes with
   LOW bits while the shard uses HIGH bits, and bitstate mode needs k
   independent remixes — one strong mixer serves all three. The
   multipliers are the canonical 64-bit fmix constants reduced to 63
   bits (shifted right one hex digit) with the low bit forced to 1: an
   even multiplier would zero the low result bit of the first stage,
   and the slot index is taken from exactly those low bits. *)
let mix x =
  let x = x lxor (x lsr 33) in
  let x = x * 0xFF51AFD7ED558CD in
  let x = x lxor (x lsr 29) in
  let x = x * 0xC4CEB9FE1A85EC5 in
  (x lxor (x lsr 32)) land max_int

(* The fingerprint word uses 0 as the empty sentinel, so a genuine
   fingerprint of 0 (and negatives, for clean shard arithmetic) is
   remapped to a fixed nonzero constant / its 63-bit magnitude. *)
let canonical fp =
  let fp = fp land max_int in
  if fp = 0 then 0x2B992DDFA232 else fp

(* The remaining word's sign bit doubles as an "initialized" marker:
   covers are stripped to their 62 nonnegative bits on entry, so every
   claim leaves the sign bit set and an initialized-but-fully-claimed
   word is [min_int], never 0 again. That keeps the one-shot pristine →
   all-ones CAS initialization in [visit_slots] sound — a visitor
   stalled across the whole claim cycle cannot re-initialize the word
   and resurrect already-granted bits — which in turn makes each move
   bit granted EXACTLY once in exact mode (the [nodes] determinism the
   .mli promises for trivial masks: one expansion per state). *)
let strip cover = cover land max_int

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let make_buf len : buf =
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
  Bigarray.Array1.fill b 0;
  b

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

let create ~mode ~expected =
  match (mode : Tsim.Config.store_mode) with
  | Tsim.Config.Store_exact ->
      let want = expected + (2 * expected / 5) in
      let slots = next_pow2 (max 4096 (min want (1 lsl 23))) 1 in
      let n_shards = max 1 (min 64 (slots / 64)) in
      let shard_size = slots / n_shards in
      { kind = K_exact; data = make_buf (2 * slots);
        stats = make_buf (n_stripes * 8); slots; n_shards; shard_size;
        shard_bits = log2 n_shards; window = min shard_size 64 }
  | Tsim.Config.Store_bitstate { log2_bits; hashes } ->
      let words = max 32 (1 lsl (log2_bits - 5)) in
      { kind = K_bits { words; hashes }; data = make_buf words;
        stats = make_buf (n_stripes * 8); slots = 0; n_shards = 1;
        shard_size = 0; shard_bits = 0; window = 0 }

(* --- bitstate ---------------------------------------------------------- *)

(* k fetch_or bits per state; a state whose bits were all already set is
   treated as seen (possibly falsely — that is the omission the caller
   reads from [omission_prob]). No masks: the first visitor's coverage
   claim is taken at face value, SPIN-supertrace style. *)
let visit_bits t ~words ~hashes fp =
  let newbits = ref 0 in
  for i = 0 to hashes - 1 do
    let h = mix (fp + (((i * 2) + 1) * 0x9E3779B97F4A7C1)) in
    let w = (h lsr 5) land (words - 1) in
    let b = 1 lsl (h land 31) in
    let old = a_fetch_or t.data w b in
    if old land b = 0 then incr newbits
  done;
  if !newbits = 0 then Covered
  else begin
    bump t fp o_entries 1;
    bump t fp o_ones !newbits;
    New
  end

(* --- exact --------------------------------------------------------------- *)

let visit_slots t fp cover =
  let cover = strip cover in
  let shard = (fp lsr (62 - t.shard_bits)) land (t.n_shards - 1) in
  let base = shard * t.shard_size in
  let home = mix fp land (t.shard_size - 1) in
  let rec probe i =
    if i >= t.window then begin
      (* the probe window is full: leave the state unstored (counted)
         and let the caller explore its full cover *)
      bump t fp o_drops 1;
      Partial cover
    end
    else begin
      let s = base + ((home + i) land (t.shard_size - 1)) in
      let ci = 2 * s in
      let stored = a_get t.data ci in
      if stored = fp then begin
        (* the fetch_and atomically claims remaining ∩ cover for this
           visitor; slots are never recycled, so the claim is
           trustworthy as-is *)
        let old = a_fetch_and t.data (ci + 1) (lnot cover) in
        let fresh = old land cover in
        if fresh = 0 then Covered else Partial fresh
      end
      else if stored = 0 then begin
        (* Initialize the remaining word to all-ones exactly once (CAS
           from pristine 0 — see [strip]) BEFORE publishing the
           fingerprint: a racer that loses the fingerprint CAS and lands
           in the found path must never read zeros as "everything
           explored", and a blind store here instead of a CAS would let
           a stalled racer resurrect bits already granted. The winner
           then claims its cover through the same fetch_and everyone
           else uses, so racing same-fingerprint visitors partition the
           cover instead of double-exploring it. *)
        ignore (a_cas t.data (ci + 1) 0 (-1));
        if a_cas t.data ci 0 fp then begin
          bump t fp o_entries 1;
          let old = a_fetch_and t.data (ci + 1) (lnot cover) in
          let fresh = old land cover in
          if fresh = cover then New
          else if fresh = 0 then Covered  (* racers claimed it all *)
          else Partial fresh
        end
        else probe i  (* lost the claim: re-read this slot *)
      end
      else probe (i + 1)  (* another state's slot: move on *)
    end
  in
  probe 0

let visit t ~fp ~cover =
  let fp = canonical fp in
  match t.kind with
  | K_bits { words; hashes } -> visit_bits t ~words ~hashes fp
  | K_exact -> visit_slots t fp cover

(* --- statistics -------------------------------------------------------- *)

(* Occupancy only ever changes on an empty→claimed transition, so one
   counter serves both modes. *)
let entries t = total t o_entries

let drops t = total t o_drops

let omission_prob t =
  match t.kind with
  | K_exact -> 0.0
  | K_bits { words; hashes } ->
      let m = float_of_int (32 * words) in
      let ones = float_of_int (total t o_ones) in
      (ones /. m) ** float_of_int hashes

let masks t = match t.kind with K_exact -> true | K_bits _ -> false

let capacity t =
  match t.kind with
  | K_exact -> t.slots
  | K_bits { words; _ } -> 32 * words
