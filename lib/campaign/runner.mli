(** Execution of a single campaign cell.

    Every cell runs at one domain — the campaign parallelizes across
    whole searches, one level above the explorer, so each cell's result
    is the deterministic sequential one and campaign reports are
    byte-stable regardless of [--jobs]. *)

exception Bad_cell of string
(** A cell that no CLI invocation could express: unknown lock, aborts
    requested on a non-abortable lock, multi-passage schedule on a
    one-time lock, store parameters out of range. *)

val resolve : Cell.t -> unit
(** Validate a cell without running it.
    @raise Bad_cell with a one-line diagnostic. Called for the whole
    plan up front so a campaign rejects bad input before spending any
    explorer budget. *)

val run :
  ?stop:bool Atomic.t ->
  ?max_millis:int ->
  ?spin_fuel:int ->
  budget_nodes:int ->
  Cell.t ->
  Cell.outcome
(** Run one cell to an outcome. [Verify] cells invoke the bounded
    explorer under [budget_nodes] with [spin_fuel] (default 6) bounding
    busy-wait iterations; [Adversary] cells run the Section 4
    construction to [min_act:1] ([budget_nodes] is recorded but not
    enforced — the construction terminates on its own). Both kinds stop
    at [max_millis] milliseconds (a verify cell's clock starts with its
    search, an adversary cell's before it builds H_0) or once [stop] is
    set, with verdict [Partial "millis"] or [Partial "interrupted"]; an
    adversary cell checks between construction rounds. Violation kinds
    are canonicalized to a sorted, deduplicated list of names so equal
    searches yield byte-equal outcomes.

    Callers running cells concurrently must pin
    [Tsim.Prog.default_spin_fuel] to the same [spin_fuel] for the whole
    batch (as {!Driver.run} does): each explore saves, sets and restores
    that global itself, and with differing values the first finisher
    would clobber its siblings' bound mid-search.
    @raise Bad_cell as {!resolve}. *)
