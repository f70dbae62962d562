(** Search profiles: where the nodes, nanoseconds, undo records and RMR
    events of an exploration went.

    A profile is a flat table of {e cells}. A cell is keyed by

    - the {b depth band} (power-of-two bucket of the node's depth),
    - the {b move class} (the kind of transition that produced the
      node — step / commit / crash / recover / abort, plus a synthetic
      root class),
    - the {b section} the moving process was in (NCS, entry, exit, ...),
    - the {b program location} of the moving process: a digest of its
      pending operation ([Machine.loc_key]).

    and accumulates four counters: nodes, elapsed ticks, undo records
    appended, and RMR events charged. Time is attributed by a
    free-running tick counter (RDTSC where available) read once per
    recorded node — the delta since the previous record on the same
    shard is charged to the new node's cell, so the whole wall time of
    a search lands somewhere and the per-node cost stays a single
    counter read plus one hash-table bump (no allocation).

    Ticks are calibrated against wall time over [start]/[stop] windows
    and converted to nanoseconds at export. The calibration is stored
    as a summable (ns, ticks) pair so that {!merge} stays associative
    and commutative — the parallel explorer gives each domain its own
    shard and merges after join, deterministically.

    Exports: canonical JSON ({!to_json} / {!of_json} round-trip), a
    folded-stack rendering compatible with flamegraph.pl /
    speedscope ({!folded}), and a structured diff that attributes a
    per-node regression between two profiles to the cell groups that
    moved ({!diff}). *)

type t

val create :
  ?every:int -> classes:string array -> sections:string array -> unit -> t
(** A fresh, empty profile. [classes] and [sections] name the small
    enum axes; {!record} takes indices into them. Both must have at
    most 8 entries (the packed cell key gives each axis 3 bits).

    [every] (default 1) is the sampling stride of the {!armed} gate:
    1 records every node ({e exact} attribution — per-cell node counts
    are exact, time windows are per-node), [k > 1] records one node in
    [k]. A strided profile is a statistical profile: node and RMR
    counts scale by the stride (so totals estimate the true totals to
    within one stride), while tick and undo totals remain {e exact} —
    the skipped nodes' elapsed time and undo records accumulate into
    the next armed record's window. Striding is what makes profiling
    cheap enough to leave on: a disarmed node costs one counter
    decrement. *)

val classes : t -> string array

val sections : t -> string array

val every : t -> int
(** The sampling stride this profile was created with. *)

val armed : t -> bool
(** The sampling gate. Call once per candidate node; it fires on the
    first call and then once every {!every} calls. Only an armed node
    should pay for attribution reads (location digest, RMR footprint)
    and {!record}. With [every = 1] it always fires. *)

val next_armed : t -> bool
(** True when the next {!armed} call will fire — for pre-state reads
    that must happen before the node's {!record} (the explorer reads
    move class and RMR footprint in the parent state). *)

val record :
  t ->
  depth:int ->
  cls:int ->
  section:int ->
  loc:int ->
  rmr:int ->
  undo:int ->
  unit
(** Charge one (armed) node to the cell
    [(band depth, cls, section, loc)]: nodes += {!every},
    ticks += time since the previous [record] on this shard,
    rmrs += [rmr]·{!every}, undo += [undo]. [loc] is truncated to its
    low 48 bits. The first record after [create]/[start] charges 0
    ticks. *)

val start : t -> unit
(** Open a calibration window: snapshot wall clock and ticks. Call
    right before the profiled search starts on this shard. *)

val stop : t -> unit
(** Close the calibration window and fold (wall ns, ticks elapsed)
    into the summable calibration pair. Idempotent until the next
    [start]. *)

val total_nodes : t -> int

val merge : t -> t -> t
(** Pointwise sum of cells and calibrations; pure. Associative and
    commutative, with the empty profile as identity (see the qcheck
    laws in the test suite). Raises [Invalid_argument] if the two
    profiles disagree on [classes]/[sections]. *)

val absorb : into:t -> t -> unit
(** In-place [merge]: add every cell and calibration of the second
    profile into [into]. What the parallel explorer uses to fold its
    per-domain shards in a fixed order after join. *)

val to_json : ?meta:(string * Json.t) list -> t -> Json.t
(** Canonical JSON: schema arrays, caller metadata, totals, and the
    cell list sorted by packed key — byte-stable for a given profile
    (ticks are converted to calibrated ns and rounded). *)

val of_json : Json.t -> (t, string) result
(** Parse a profile written by {!to_json}. The round-trip
    [of_json (to_json p)] preserves every cell (with ticks already in
    ns and a unit calibration). Cell members it does not know are
    ignored, so profiles that still carry the boolean ["pc"] member of
    earlier versions load unchanged. *)

val folded : ?weight:[ `Nodes | `Ns ] -> t -> string
(** Folded-stack export, one line per non-empty cell:
    ["depth:<band>;<section>;<class>;<loc> <count>\n"], sorted by
    frame string. [weight] selects the count column (default
    [`Nodes]; [`Ns] uses calibrated nanoseconds, rounded). Feed to
    flamegraph.pl or paste into speedscope. *)

val diff : t -> t -> Json.t * string
(** [diff a b] compares per-node cost and attributes the movement:
    groups cells by (section, class), computes each group's
    contribution in ns-per-node (group ns / total nodes) in both
    profiles, and sorts by the contribution delta. Returns a
    structured report and a one-line human verdict such as
    ["regressed +8.1% (411.2 -> 444.5 ns/node); top: entry/step +21.4 ns/node, crashed/crash +9.2"].
    Deterministic: ties break on group name. Raises
    [Invalid_argument] on schema mismatch or empty profiles. *)
