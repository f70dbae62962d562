(** Online Knuth–Chen tree-size estimation for depth-first searches.

    A depth-first search of an unknown tree gives no progress signal:
    the node counter grows but nothing says what fraction of the tree it
    represents. Knuth's 1975 estimator fixes that with random
    root-to-leaf probes: walk down from the root choosing a uniformly
    random child at each node, and multiply the branching factors seen
    on the way. The product [b1*b2*...*bk] summed over the probe's
    nodes is an unbiased estimate of the number of tree nodes, because
    a node at depth [k] is reached with probability [1/(b1*...*bk)]
    and contributes exactly the inverse weight when it is.

    This module runs the estimator {e online, woven into the search}
    rather than as separate random walks: [probes] notional probes are
    seeded at the root, and probability mass flows down with them. When
    a child {e enters} while its parent still has [r] undistributed
    child slots, it takes the share [m/r] of the parent's remaining
    mass [m] and a balanced probe allotment with matching expectation
    [alive/r] (floor plus a Bernoulli remainder — far lower variance
    than per-probe coin flips). A slot retired with [leaf] — the child
    was dedup-pruned, delegated, or raised — consumes {e no} probes and
    {e no} mass: its implicit share stays with the parent and flows to
    later entered children, which keeps the probe flow concentrated on
    the surviving tree under heavy pruning. Since the search order is
    deterministic, each entered node's reach probability is a fixed
    quantity and [E[alive at v] = probes * mass(v)] exactly; a node
    entered with [a > 0] probes alive adds [a / mass(v)] to the running
    sum and the estimate [sum / probes] is unbiased for the number of
    entered nodes. The partition is decided with the module's own
    deterministic PRNG, so the search itself is never perturbed — same
    nodes, same order, with or without the estimator.

    The module also tracks {e exact} progress mass: when a node's
    expansion completes ([leave]), whatever mass it never handed to an
    entered child — its own share for childless nodes, plus every
    pruned slot's implicit share — retires as explored. The retired
    masses of a finished tree telescope to exactly 1. [progress] is
    therefore a true "fraction of the tree fully explored (in
    probability mass)" — it reaches 1.0 when the search exhausts, and
    [elapsed * (1 - progress) / progress] is a live ETA.

    Client contract (mirrors the DFS call tree):
    - [enter t ~children:k] when the search expands a node that will
      offer [k] child slots. Slots must then be consumed: each slot is
      either retired with [leaf t] (the child was pruned, delegated,
      raised, or was never materialised) or implicitly consumed by the
      next [enter] of the recursive child expansion.
    - [leave t] when the node's expansion completes (all slots
      consumed). Strict stack discipline: enters/leaves must nest like
      the DFS recursion.
    - [enter] at depth 0 starts a new probe root (all [probes] probes
      alive, weight 1); several roots may be run in sequence (the
      parallel explorer estimates each stolen work item as its own
      root and sums the estimates).

    Abandoning mid-tree (exception, budget) simply leaves [progress]
    partial and the estimate reflecting the probes spent so far —
    exactly what a partial verdict wants to report. *)

type cfg = { probes : int; seed : int }
(** [probes] notional probes per root (more probes, lower variance —
    the cost is O(1) per node while any probe is alive and zero after
    all die, so 32–256 is cheap); [seed] for the deterministic PRNG. *)

type t

val create : ?cfg:cfg -> unit -> t
(** [cfg] defaults to 64 probes, seed 0. *)

val enter : t -> children:int -> unit
(** Enter a node that declares [children] child slots. At depth 0 this
    starts a new probe root. Raises nothing; [children = 0] is a node
    whose expansion offers no slots (deadlock / all-asleep). *)

val leaf : t -> unit
(** Retire one child slot of the current node as a leaf (pruned child,
    delegated child, violation raised under it, sleep-abandoned chase).
    Consumes the slot only — its probe and mass share stays with the
    node (flowing to later entered children, or retiring as explored
    mass at [leave]). A no-op if the current node has no unconsumed
    slots. *)

val leave : t -> unit
(** Pop the current node: its expansion is complete. *)

val estimate : t -> float
(** Unbiased estimate of the number of {e entered} nodes of the
    explored tree(s), summed across roots. 0 until the first enter. *)

val progress : t -> float
(** Exact probability mass of fully-explored leaves, averaged over the
    roots started so far; reaches 1.0 (up to float rounding) when every
    root's tree has been exhausted. In [0, 1]. *)

val probes : t -> int
(** The per-root probe count this estimator was created with. *)
