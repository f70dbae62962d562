(** Shared lock-free fingerprint store for parallel exploration.

    One store is shared by every exploration domain. It answers a single
    question on the hot path — "has this state been explored, and if only
    partially, which moves are still owed?" — with the same mask-aware
    semantics as the sequential seen table in {!Explore}, but safe (and
    cheap) under concurrent visitors.

    {2 Layout}

    The store is a flat [Bigarray] of untagged native ints, accessed
    through C stubs wrapping [__atomic] builtins (fpstore_stubs.c). In
    exact mode each slot is a pair of words:

    - the {b fingerprint word}: 0 = empty, otherwise the packed 63-bit
      Zobrist fingerprint (a real fingerprint of 0 is remapped to a fixed
      nonzero constant);
    - the {b remaining word}: the set of move codes {e not yet explored}
      from that state, initialized to all-ones.

    Slots are fingerprint-partitioned into shards (high fingerprint bits
    select the shard; probing is linear within the shard), which keeps a
    probe sequence inside one small cache region and spreads unrelated
    fingerprints across regions. Statistics counters are striped across
    cache lines for the same reason.

    {2 Protocol}

    A visitor arrives with its [cover] — the move set it is prepared to
    explore ([lnot sleep land full] under POR, all moves otherwise;
    covers are masked to their 63-bit nonnegative magnitude, the word's
    sign bit being reserved as an initialized marker):

    - {b empty slot}: CAS the remaining word from its pristine 0 to
      all-ones (a one-shot initialization — fully-claimed words keep the
      sign bit, so 0 never recurs and no racer can resurrect granted
      bits), then CAS the fingerprint word from 0. The winner owns the
      state and claims its cover through the same fetch_and as everyone
      else, so racing same-fingerprint visitors partition the cover
      ([New]/[Partial]/[Covered]) rather than double-explore it.
    - {b found}: [fetch_and remaining (lnot cover)] atomically claims the
      intersection. If the returned prior value shares no bits with
      [cover] the state is fully covered ([Covered]); otherwise the
      visitor owes exactly the [Partial] fresh bits it claimed.

    Masks only ever shrink and slots are never recycled, so every move
    bit is granted to exactly one visitor — which is what makes the
    explored node count independent of domain timing under trivial
    masks. See DESIGN.md §5f for the full argument.

    {2 Modes}

    - [Store_exact]: sized from the node budget; on (rare, counted)
      shard-window overflow a state is simply left unstored and explored.
    - [Store_bitstate]: SPIN-style supertrace — k hash bits per state in
      a fixed bit array; {!masks} is [false], a revisit always prunes,
      and the FIRST visit decides coverage forever, so the caller must
      explore the full move set when told [New] (ignore any sleep mask;
      {!Explore} does exactly that). Distinct states may alias;
      {!omission_prob} reports the fill-dependent false-positive
      estimate [(ones/m)^k]. *)

type t

(** Verdict for one visited state. [Partial fresh] means: re-explore
    exactly the moves in [fresh] (a subset of the visit's cover); the
    caller's child sleep mask is [lnot fresh land full]. *)
type visit = New | Covered | Partial of int

val create : mode:Tsim.Config.store_mode -> expected:int -> t
(** [create ~mode ~expected] allocates a store. [expected] (the node
    budget) sizes the exact mode: the slot count is the next power of two
    above 1.4 × [expected], clamped to [2^12, 2^23] slots (128 MiB).
    Beyond the cap the exact mode degrades gracefully but measurably —
    overflowing states are left unstored and re-explored on every visit
    (counted in {!drops}, surfaced in the verdict line) — which diverges
    from the uncapped sequential table the explorer uses at
    [domains = 1] with [Store_exact]; for spaces past ~8M states run at
    one domain, or use [Store_bitstate]. Bitstate mode takes its fixed
    size from the mode itself. *)

val visit : t -> fp:int -> cover:int -> visit
(** Visit a state. Safe to call from any number of domains
    concurrently. [cover] is the move set this visitor will explore when
    told [New] or granted a [Partial] superset; use [-1] (all moves)
    when sleep-set masking is off. *)

val entries : t -> int
(** Distinct states currently claimed (bitstate: states that set at
    least one new bit). Approximate only while visitors are concurrently
    inserting; exact once they have joined. *)

val drops : t -> int
(** States left unstored because an exact-mode shard's probe window
    filled up. Each visit of such a state re-explores it (answered
    [Partial] with the full cover). Always 0 in bitstate mode. *)

val omission_prob : t -> float
(** Bitstate mode: the probability that the {e next} distinct state
    aliases an already-set bit pattern and is wrongly pruned —
    [(ones/m)^k] at the current fill. 0.0 in exact mode (which never
    aliases beyond the 63-bit fingerprint itself). The
    estimate accounts for {e all} bitstate omissions only if callers
    honor the full-cover-on-[New] contract (see {!masks}). *)

val masks : t -> bool
(** Whether the store tracks a per-state remaining-moves mask ([true]
    for exact mode). When [false] (bitstate), [cover] is
    ignored, [Partial] is never returned, and a caller doing sleep-set
    POR must explore the {e full} move set on [New]: the single seen-bit
    cannot record that some moves were slept, so a first visit under a
    nonempty sleep mask would otherwise prune interleavings that no
    omission estimate accounts for. *)

val capacity : t -> int
(** Slots (exact) or usable bits (bitstate). *)
