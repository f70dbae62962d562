(** Persistent campaign result cache.

    One append-only NDJSON file: a header line carrying the format
    version and the {!Cell.code_salt}, then one line per completed cell
    [{"key": <key>, "outcome": {...}}], where the key is whatever the
    caller looks cells up by ({!Driver.run} uses the canonical cell key
    plus the spin fuel). Append-only is
    what makes a killed campaign resumable — every completed cell was
    flushed when it finished, so the next run picks up exactly where
    the previous one died.

    Loading is tolerant and never trusts silently: a missing file is an
    empty cache; a header that fails to parse or disagrees on
    version/salt invalidates {e every} entry (the file is rewritten
    fresh on the next append); an individual line that fails to parse —
    the torn tail of a killed write, hand-edited corruption — is
    counted and skipped, losing only that cell. Duplicate keys keep the
    last occurrence, which is how budget-escalated re-runs supersede
    their earlier partial outcomes without rewriting the file. *)

type stats = {
  loaded : int;  (** entries accepted *)
  skipped : int;  (** unparseable or malformed lines dropped *)
  invalid_header : bool;
      (** the header was missing, unparseable, or version/salt
          mismatched — every prior entry was discarded *)
}

type t

val in_memory : unit -> t
(** No backing file: a cache that lives for one campaign run (tests,
    benches). *)

val open_file : resume:bool -> string -> t * stats
(** File-backed cache. With [~resume:false] the file is truncated and a
    fresh header written — a cold run. With [~resume:true] existing
    entries are loaded per the tolerance rules above and subsequent
    adds append. A nonexistent file is created either way.
    @raise Sys_error if the path cannot be opened for writing. *)

val find : t -> string -> Cell.outcome option
(** Latest outcome recorded for a cell key. Apply {!Cell.usable} before
    trusting it for a given budget. *)

val add : t -> string -> Cell.outcome -> unit
(** Record (or supersede) an outcome; file-backed caches append the
    line and flush immediately, so a kill after [add] never loses the
    cell. *)

val entries : t -> int

val close : t -> unit
(** Flush and close the backing file, if any. Idempotent. *)
