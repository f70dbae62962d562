(** The explorer's seen-state store, shared by every exploration domain.

    One store serves a search at every domain count. It answers a single
    question on the hot path — "has this state been explored, and if only
    partially, which moves are still owed?" — safely under concurrent
    visitors.

    {2 Layout}

    The exact mode is 64 shards, picked by bits of a remix of the
    fingerprint. Each shard is an open-addressing (linear-probing) table
    of word pairs in its own off-heap [Bigarray] of untagged native ints:

    - the {b fingerprint word}: 0 = empty, otherwise the packed 63-bit
      Zobrist fingerprint (a real fingerprint of 0 is remapped to a fixed
      nonzero constant);
    - the {b remaining word}: the set of move codes {e not yet explored}
      from that state.

    Each shard owns one 64-byte line holding its lock word and its
    counters (entries, slots), so visitors of different shards never
    write the same cache line.

    {2 Protocol}

    A visitor arrives with its [cover] — the move set it is prepared to
    explore ([lnot sleep land full] under POR, all moves otherwise). It
    takes its shard's lock (a CAS on the lock word, spinning with
    [Domain.cpu_relax]), probes, and applies the sequential rule:

    - {b empty slot}: store the fingerprint with remaining = [lnot cover]
      and answer [New]: the visitor explores its whole cover;
    - {b found}: fresh = remaining ∧ cover, then remaining ∧= ¬cover.
      [Covered] when fresh is empty, otherwise [Partial fresh]: the
      visitor owes exactly those moves.

    The lock is released with an atomic store. Every claim is serialised
    by the lock, so the moves handed out for a state partition the union
    of the covers requested: each move bit is granted exactly once, which
    is what makes the explored node count independent of domain timing
    under trivial masks. See DESIGN.md §5f for the full argument.

    {2 Growth}

    A shard doubles its table, under its lock, once more than half its
    slots are taken. The old table is left to the GC; the Bigarray's
    external-memory accounting makes the GC free it promptly. There is
    no cap: memory follows the states stored, and since a search
    stores at most one entry per node it expands, its node budget bounds
    the store. An exception raised while growing (say [Out_of_memory])
    releases the lock before it propagates, and leaves the store valid.

    {2 Modes}

    - [Store_exact]: the sharded tables above.
    - [Store_bitstate]: SPIN-style supertrace — k hash bits per state in
      a fixed bit array, each set with an atomic [fetch_or] (no lock);
      {!masks} is [false], a revisit always prunes, and the FIRST visit
      decides coverage forever, so the caller must explore the full move
      set when told [New] (ignore any sleep mask; {!Explore} does exactly
      that). Distinct states may alias; {!omission_prob} reports the
      fill-dependent false-positive estimate [(ones/m)^k]. *)

type t

(** Verdict for one visited state. [Partial fresh] means: re-explore
    exactly the moves in [fresh] (a subset of the visit's cover); the
    caller's child sleep mask is [lnot fresh land full]. *)
type visit = New | Covered | Partial of int

val create : mode:Tsim.Config.store_mode -> expected:int -> t
(** [create ~mode ~expected] allocates a store. In exact mode [expected]
    is the room it starts with: each shard starts with enough slots to
    hold its share of [expected] states at load 1/2, and at least 64, so
    [~expected:0] gives 4,096 slots (64 KiB). The store grows past it as
    states arrive; the explorer passes 0. Bitstate mode takes its fixed
    size from the mode itself. *)

val visit : t -> fp:int -> cover:int -> visit
(** Visit a state. Safe to call from any number of domains
    concurrently. [cover] is the move set this visitor will explore when
    told [New] or granted a [Partial] subset; use [-1] (all moves) when
    sleep-set masking is off. *)

val entries : t -> int
(** Distinct states stored (bitstate: states that set at least one new
    bit). Approximate only while visitors are concurrently inserting;
    exact once they have joined. *)

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
(** Slots (exact: the sum over the shards' current tables) or usable
    bits (bitstate). Like {!entries}, approximate while visitors are
    concurrently growing the store. *)
