(** One cell of the campaign scenario grid, and its canonical identity.

    A cell names one complete verification (or adversary) job: lock ×
    machine model × ordering × process count × passage count × fault
    budgets × crash semantics × seen-store mode × reduction switch. The
    campaign layer schedules cells as whole searches, caches their
    outcomes persistently, and brackets phase transitions by probing
    synthetic cells along one axis.

    {2 Key stability}

    [key] is the persistent-cache identity, so it must be byte-stable
    across process restarts, compiler versions and architectures. It is
    therefore built {e only} from explicit field-by-field rendering in a
    fixed order — never from [Marshal] (closure digests differ between
    builds), never from [Hashtbl.hash] (unspecified across versions),
    and never from iterating a hash table (iteration order is seeded).
    The test suite pins golden keys and round-trips random cells through
    [of_key] to keep this contract honest. Budgets are deliberately not
    part of the key: a cell's identity is {e what} is being checked;
    how many nodes the search was allowed is recorded in the cached
    {!outcome} and consulted by the reuse rule ({!usable}). *)

open Tsim

(** [Verify]: bounded exhaustive exploration ({!Mcheck.Explore}).
    [Adversary]: the Section 4 lower-bound construction
    ({!Adversary.Construction}) — its outcome is the number of fences
    the adversary forced, the quantity the fence-transition bracketing
    sweeps. *)
type kind = Verify | Adversary

val kind_name : kind -> string

type t = {
  kind : kind;
  lock : string;  (** zoo family name ({!Locks.Zoo.find}) *)
  n : int;
  model : Config.mem_model;
  ordering : Config.ordering;
  passages : int;
  max_crashes : int;
  max_aborts : int;
  crash_semantics : Config.crash_semantics;
  store : Config.store_mode;
  por : bool;
}

val make :
  ?kind:kind ->
  ?model:Config.mem_model ->
  ?ordering:Config.ordering ->
  ?passages:int ->
  ?max_crashes:int ->
  ?max_aborts:int ->
  ?crash_semantics:Config.crash_semantics ->
  ?store:Config.store_mode ->
  ?por:bool ->
  lock:string ->
  n:int ->
  unit ->
  t
(** Defaults: [Verify], [Cc_wb], [Tso], one passage, no faults,
    [Drop_buffer], [Store_exact], reduction on. *)

val code_salt : string
(** Version salt of the campaign cache format {e and} of the explorer
    semantics the cached outcomes depend on. Bump it whenever a change
    could alter any cell's verdict, node count or fence count — every
    cache written under the old salt is then recomputed rather than
    silently trusted. *)

val key : t -> string
(** Canonical identity, e.g.
    ["verify lock=peterson n=2 model=cc-wb ord=tso pass=1 crashes=0 aborts=0 csem=drop store=exact por=on"].
    Fields in fixed order; pure string rendering (see the module
    comment). Distinct cells have distinct keys. *)

val search_key : t -> string
(** Identity of the search a cell runs: {!key} for adversary cells; for
    verify cells, {!key} with the model rendered as [*], e.g.
    ["verify lock=tas n=2 model=* ord=tso pass=1 crashes=0 aborts=0 csem=drop store=exact por=on"].
    The models are RMR cost models over the same executions
    ([Config.model] is read only by a machine's accounting record, and
    the explorer searches on lean machines, which have none), so verify
    cells that differ only in [model] have one search and one outcome.
    The adversary construction counts under the model's accounting, so
    adversary cells keep it. {!Driver.run} caches outcomes and groups
    grid cells by this key. *)

val of_key : string -> (t, string) result
(** Inverse of {!key} — the cache never needs it (keys are opaque
    there), but the round-trip keeps the rendering canonical and
    injective under test. *)

val compare : t -> t -> int
(** Total order by {!key} — the deterministic report order. *)

val equal : t -> t -> bool

val cost_hint : t -> float
(** Deterministic relative cost estimate used to schedule cheap cells
    first (state spaces grow with [n], passages and fault budgets, and
    shrink under the reduction). Heuristic only: ties and misorderings
    cost scheduling quality, never correctness. *)

(** {1 Outcomes} *)

(** What a completed cell reported. [Fences k]: an adversary cell whose
    construction forced [k] fences on some process. *)
type verdict =
  | Verified
  | Violation of string list  (** sorted, deduplicated kind names *)
  | Partial of string  (** {!Mcheck.Explore.partial_reason_name} *)
  | Fences of int

val verdict_to_string : verdict -> string

type outcome = {
  verdict : verdict;
  nodes : int;
      (** states expanded (adversary cells: total contention of the
          final execution) *)
  max_depth : int;  (** adversary cells: induction steps completed *)
  budget_nodes : int;  (** node budget the run was given *)
}

val definitive : outcome -> bool
(** The outcome cannot change under a larger budget: anything but
    [Partial]. *)

val usable : outcome -> budget_nodes:int -> bool
(** Cache-reuse rule: a cached outcome answers a request with budget
    [budget_nodes] iff it is definitive, or it was itself computed
    under at least that node budget (a partial search at budget [B]
    stays partial at any [B' <= B]). *)

val outcome_to_json : outcome -> Obs.Json.t
val outcome_of_json : Obs.Json.t -> (outcome, string) result

(** {1 Field codecs}

    The canonical enum renderings {!key} is built from, exposed so the
    grid-spec parser one layer up accepts exactly the spellings the
    cache keys use. *)

val model_of_code : string -> Config.mem_model option
val ordering_of_code : string -> Config.ordering option
val csem_of_code : string -> Config.crash_semantics option
val store_of_code : string -> Config.store_mode option
