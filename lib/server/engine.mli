(** Epoch engine behind [dms serve]: admission queue, commit runs,
    immutable post-commit snapshots.

    {b Epoch lifecycle.} Epoch 0 is the initial materialization. Each
    commit drains the admission queue, runs one
    {!Incr_sched.update} maintenance pass over the live database, and
    {e publishes} epoch [N+1]: an immutable snapshot (frozen
    {!Datalog.Relation} copies) that all queries are served from. Only
    relations the commit actually changed are re-copied — unchanged
    predicates share the previous epoch's frozen view — but each
    changed relation is copied whole, so snapshot cost is proportional
    to the total size of the changed relations, not to the number of
    changed tuples.

    {b Snapshot discipline.} Queries never touch the live database,
    so a background commit may mutate it freely while readers on the
    current epoch see bit-identical results. The only shared mutable
    structure a query reads is the symbol table, whose interning is
    append-only and domain-safe.

    {b Admission batching.} [insert]/[remove] are validated at submit
    time (syntax, groundedness, extensional predicate, arity) and
    queued as canonical text. Within one batch the same fact appears
    on at most one side — a later submit of the same fact overwrites
    the earlier op (last wins), keeping the batch a well-formed
    {!Datalog.Incremental.apply} input. A commit requested while a
    background commit is in flight is {e coalesced}: its ops keep
    queueing and one run serves them all when the inflight epoch
    publishes — the paper's amortization knob, live.

    Threading model: one client thread calls everything here; the only
    concurrency is the single background commit domain. *)

type t

type commit_stats = {
  epoch : int;  (** the epoch this commit published *)
  ops : int;  (** admitted operations (additions + deletions) *)
  additions : int;
  deletions : int;
  changed : int;
      (** total net tuple change over all predicates (added + removed
          of the maintenance report) *)
  run_s : float;  (** the maintenance run itself *)
  latency_s : float;
      (** commit request to snapshot publication; for a coalesced
          commit the clock starts at the earliest unserved request *)
}

val create :
  ?maint:Datalog.Incremental.maint ->
  ?domains:int ->
  ?shards:int ->
  ?obs:Obs.Trace.t ->
  Incr_sched.datalog_session ->
  t
(** Wrap a materialized session (see {!Incr_sched.materialize}) and
    publish epoch 0. [maint] (default Dred) / [domains] / [shards]
    configure every commit's maintenance pass. [obs] (default
    disabled) must carry [domains + shards - 1] rings (see
    {!Incr_sched.update}); the engine adds server spans —
    [srv-admit] / [srv-commit] / [srv-epoch] — on ring 0, emitted only
    while no background commit is running, preserving the
    single-writer ring contract. *)

val epoch : t -> int
(** The published epoch queries are served from. *)

val pending_ops : t -> int
(** Admitted operations waiting for the next commit. *)

val inflight : t -> bool
(** Is a background commit running right now? *)

val commits : t -> int
(** Total commits published. *)

val snapshot_facts : t -> int
(** Total tuples in the published snapshot. *)

val maint : t -> Datalog.Incremental.maint

val domains : t -> int

val shards : t -> int

val submit : t -> [ `Insert | `Remove ] -> string -> (unit, string) result
(** Validate and queue one operation. Errors (reported, never raised):
    atom syntax, non-ground atom, intensional (derived) predicate,
    arity mismatch against the published snapshot. A predicate the
    snapshot has never seen is admitted — it becomes a fresh base
    relation at commit. *)

val commit : t -> commit_stats list
(** Synchronous commit: wait out any inflight/coalesced background
    work, then drain the queue and run the batch in the calling
    thread. Returns all commits published by this call, oldest first —
    the last element is the batch this call ran (an empty queue still
    publishes an epoch). *)

val commit_async : t -> [ `Started of int | `Coalesced ]
(** Request a background commit. [`Started e]: no commit was inflight,
    the queue was drained and a domain is now maintaining toward epoch
    [e]. [`Coalesced]: a commit is already running; this request (and
    any ops queued meanwhile) will be served by one follow-up commit
    started automatically when the inflight one publishes. *)

val drain : t -> commit_stats list
(** Non-blocking harvest: publish any background commit that has
    finished (auto-starting a coalesced follow-up), and return the
    commits completed since the last [drain]/[await]/[commit], oldest
    first. *)

val await : t -> commit_stats list
(** Block until no commit is inflight or coalesced, then report like
    {!drain}. *)

val query : t -> string -> (Datalog.Ast.atom list * int, string) result
(** Match a pattern atom against the published snapshot; returns the
    sorted facts and the epoch they belong to. Variables match
    anything; [_] is anonymous (repeats do not constrain); a repeated
    named variable forces equality; a bare predicate name matches
    every fact. Errors: pattern syntax, unknown predicate, arity
    mismatch, aggregate terms. Safe while a commit is inflight — the
    snapshot is immutable. *)

val db : t -> Datalog.Database.t
(** The live database — for parity checks against a reference run.
    Callers must {!await} first: the background commit mutates it. *)

val export : t -> string -> unit
(** Write the engine's trace (commit maintenance spans plus the server
    spans) as Chrome trace_event JSON, task spans labeled by component
    predicates of the latest commit. Call only when an [obs] trace was
    supplied, after {!await}. *)
