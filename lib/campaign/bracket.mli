(** Adaptive frontier bracketing over monotone predicates.

    Phase-transition questions — smallest [n] forcing [k] fences,
    largest exhaustively-checkable [n] under a node budget, smallest
    crash budget refuting a lock — are threshold searches over a
    monotone predicate: [p] is false up to some frontier and true from
    it on (or vice versa). A dense sweep answers them in O(range)
    explorer jobs; this module answers in O(log range) probes with the
    shape of the CloudNetworking exemplar (SNIPPETS.md 1–2): {b double}
    the distance from the known-false end until the predicate flips
    (bracketing the frontier in an interval), then {b three-division
    refinement} — split the interval at its two third-points and keep
    the third (or two-thirds) the flip is in — until the interval is a
    single step wide.

    {b Probe order.} The far end is never probed up front: doubling
    from [lo] stops at the first point where the predicate flips, or at
    [hi] when it never does. For [least] with threshold [t > lo] no
    probed point lies above [min hi (lo + 2^⌈log2 (t - lo)⌉)] ([greatest]
    likewise on its negated predicate), so no probe lies above the
    frontier — where the campaign's largest exhaustible [n] is sought,
    such a probe is a search that runs to the node cap. The price is
    paid by a range with no frontier: it costs the whole doubling
    sequence, where probing [hi] first settled it in two probes.

    {b Soundness.} The result equals the dense sweep's exactly when [p]
    is monotone over [[lo, hi]]. For a non-monotone [p] the search
    still terminates and returns {e some} point where [p] flips from
    false to true, but not necessarily the least one — campaign reports
    record which probes were actually evaluated so a claimed frontier
    can be audited. Probes are memoized per call (each point is
    evaluated at most once) and every evaluation lands in the campaign
    cache one layer up, so re-bracketing after a crash replays the
    probe sequence for free. *)

type stats = {
  mutable evals : int;
      (** distinct points the predicate was evaluated at *)
  mutable probed : (int * bool) list;
      (** (point, value) pairs in evaluation order, newest first *)
}

val new_stats : unit -> stats

val least :
  ?stats:stats -> lo:int -> hi:int -> (int -> bool) -> int option
(** Least [x] in [[lo, hi]] with [p x], assuming [p] monotone
    (false then true). [None] when [p] never holds on the range.
    @raise Invalid_argument if [lo > hi]. *)

val greatest :
  ?stats:stats -> lo:int -> hi:int -> (int -> bool) -> int option
(** Greatest [x] in [[lo, hi]] with [p x], assuming [p] monotone the
    other way (true then false). [None] when [p lo] is already
    false. *)
