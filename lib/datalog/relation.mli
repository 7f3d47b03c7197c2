(** Materialized relations: sets of interned tuples with lazy per-column
    hash indexes for join probing. *)

type tuple = int array

type t

val create : arity:int -> t

val arity : t -> int

val cardinality : t -> int

val mem : t -> tuple -> bool

val add : t -> tuple -> bool
(** [true] iff the tuple was new. Invalidates indexes incrementally. *)

val remove : t -> tuple -> bool
(** [true] iff the tuple was present. *)

val iter : (tuple -> unit) -> t -> unit
(** Iteration walks live hashtable state, so the relation must not be
    mutated while a walk is in progress (callers buffer derived updates
    and apply them afterwards — see {!Plan.exec_rule_deferred}). A
    best-effort version check raises [Invalid_argument] when a callback
    mutates the iterated relation, instead of silently skipping tuples
    when a resize relinks buckets mid-walk. The same contract applies to
    {!fold}, {!iter_matching} and {!fold_matching}. *)

val fold : ('acc -> tuple -> 'acc) -> 'acc -> t -> 'acc

val to_list : t -> tuple list

val copy : t -> t

val clear : t -> unit

val iter_matching : t -> col:int -> value:int -> (tuple -> unit) -> unit
(** Apply a function to every tuple whose [col]th component equals
    [value]; O(matches) via a lazily-built index kept consistent under
    [add]/[remove], with no per-probe allocation. The tuples handed out
    are the relation's own arrays: callers must not mutate them and must
    copy before retaining (as {!add} does). The callback must not mutate
    the probed relation (see {!iter}); raises [Invalid_argument] if it
    does. *)

val fold_matching : t -> col:int -> value:int -> ('acc -> tuple -> 'acc) -> 'acc -> 'acc
(** Fold variant of {!iter_matching}. *)

val prepare : ?cols:int list -> t -> unit
(** Eagerly finalize the per-column probe indexes ([cols], default all
    columns) before the relation is shared read-only across domains.
    Lazy builds are themselves safe to race — a probe that finds no
    index constructs one fully and publishes it atomically, so a
    sibling domain sees either nothing or a finished index — but eager
    preparation avoids sibling readers duplicating the build work.
    @raise Invalid_argument on an out-of-range column. *)

val find : t -> col:int -> value:int -> tuple list
(** Tuples whose [col]th component equals [value]. Compatibility wrapper
    over {!fold_matching}: allocates the result list; probe loops should
    use {!iter_matching}. *)

val choose_probe_col : t -> bound:(int -> bool) -> int option
(** Some column index on which a probe makes sense: the first column
    for which [bound] is true. *)

(** {2 Derivation counts}

    Per-tuple derivation counts for {!Incremental}'s counting
    maintenance engine, held in a side table next to the tuple store:
    the non-counting path ([add]/[remove]/[mem]/probes) never touches
    them, so DRed maintenance pays nothing for their existence. Counts
    are split per tuple into [exits] — derivations by {e exit} rules
    (no body atom in the head's own SCC, hence acyclic support) — and
    [recs], derivations by recursive rules; the counting engine's
    backward phase uses the split to skip exit-supported tuples.

    [level] and [low] form the {e well-founded support index}. [level]
    is the stratified-fixpoint round of the tuple's first well-founded
    derivation (Soufflé's [@iteration]): [0] for exit-supported
    tuples, [r >= 1] for tuples first leveled in recursive round [r],
    [max_int] for "unknown". Levels are immutable once assigned:
    lowering one retroactively changes how later derivation deaths
    classify against it, which can leave [low] overcounting. [low]
    counts the surviving recursive derivations whose supporter is
    known to sit at a strictly lower level — it may undercount
    (derivations with unknown supporters are never counted) but never
    overcounts, so [exits = 0 && low > 0] soundly exempts a
    deletion-suspect from the full backward re-proof.

    Staleness is detected by version stamp: {!counts_sync} records the
    relation version the counts were made consistent with, and any
    later mutation outside the counting engine (which bumps the
    version) makes {!counts_synced} return [None], forcing a rebuild
    instead of trusting stale counts. {!clear} drops the side table.

    Cells are partitioned into [shards] tables by {!shard_of_tuple} on
    key column 0 — the same pure hash {!Plan.run}'s [?shard] filter uses —
    so sharded counting rounds route cell traffic shard-locally;
    {!counts_iter} walks shards in index order 0..k-1, keeping
    iteration canonical regardless of insertion interleaving. *)

type count_cell = {
  mutable exits : int;
  mutable recs : int;
  mutable level : int;
  mutable low : int;
  mutable debt : int;
      (** backward-phase scratch: how many of [low]'s entries were
          condemned by the running backward call. Always zero between
          calls — the phase resets what it filed. In the cell rather
          than a side ledger so the O(1) well-foundedness check
          ([exits = 0 && low - debt > 0]) is pure field arithmetic. *)
}

type counts

val counts_create : ?shards:int -> unit -> counts
(** A free-standing count table (starts unsynced) with [shards]
    (default 1) cell partitions; used for scratch accumulation of
    signed count deltas. @raise Invalid_argument when [shards < 1]. *)

val counts_attach : ?shards:int -> t -> counts
(** Replace the relation's count table with a fresh empty one (not yet
    synced) and return it. *)

val counts_detach : t -> unit

val counts_synced : t -> counts option
(** The attached count table, but only if it was synced at the
    relation's current version; [None] when absent or stale. *)

val counts_sync : t -> unit
(** Stamp the attached count table as consistent with the relation's
    current contents. No-op when no table is attached. *)

val counts_shards : counts -> int
(** Number of cell partitions the table was created with. *)

val count_cell : counts -> tuple -> count_cell
(** Find or create the cell for a tuple (counts zero, [level = max_int],
    [low = 0]); the key is copied on insert, as in {!add}. *)

val count_find : counts -> tuple -> count_cell option

val count_total : count_cell -> int
(** [exits + recs]. *)

val count_drop : counts -> tuple -> unit

val counts_iter : (tuple -> count_cell -> unit) -> counts -> unit
(** Walks cell partitions in index order 0..k-1. *)

val counts_cardinality : counts -> int

(** {2 Sharding}

    Hash partitioning for intra-component parallel maintenance: tuples
    are assigned to one of [k] shards by an FNV-1a mix of a single key
    column, a pure function of the tuple — identical on every domain
    and every run. *)

val shard_of_value : shards:int -> int -> int
(** [shard_of_value ~shards v] is the shard of key element [v], in
    [0 .. shards-1] ([0] when [shards <= 1]). *)

val shard_of_tuple : col:int -> shards:int -> tuple -> int
(** Shard of a tuple by its [col]th element (clamped to column 0 when
    out of range; nullary tuples map to shard 0). *)

type relation = t

(** {2 Write-set sanitizer}

    Debug-mode runtime enforcement of the ownership discipline that
    {!Analyze.check_ownership} verifies statically: maintenance tags
    each relation with its owning task's string, tasks run inside
    {!Sanitize.with_writer} scopes, and every mutation
    ([add]/[remove]/[clear] — including no-op writes, since a task
    reaching for a foreign relation is a bug regardless of outcome)
    checks tag against the current scope. The scope lives in
    domain-local storage, so checks work unchanged when tasks run on
    worker domains. Untagged relations (the default) pay one field read
    per mutation. *)

module Sanitize : sig
  exception Violation of string
  (** Raised by a mutation of an owned relation from outside a matching
      writer scope; the message names the relation, its owner and the
      offending writer. *)

  val set_owner : relation -> name:string -> owner:string -> unit

  val clear_owner : relation -> unit

  val owner : relation -> string option

  val writer : unit -> string option
  (** The current domain's active writer tag, if any. *)

  val with_writer : string -> (unit -> 'a) -> 'a
  (** Run [f] with the current domain's writer tag set; restores the
      previous tag on exit (scopes nest). *)
end
