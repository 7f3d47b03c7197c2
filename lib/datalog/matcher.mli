(** Database views and the interpretive rule matcher.

    A {!view} abstracts "which database state a literal is matched
    against" — the live database, the pre-update state as a delta
    overlay, or a maintenance round's restricted state — so DRed's
    overdeletion phase can read the old state while insertion reads the
    new one. Every evaluation path reads through views; the join itself
    runs on {!Plan}'s compiled plans.

    {!eval_rule} is the interpretive matcher: an environment-passing
    join kept only as the reference oracle compiled plans are
    differentially tested against ({!Plan}'s [Interpreted] engine and
    {!Eval.run_naive}). *)

type view = {
  mem : string -> Relation.tuple -> bool;
  iter_matching : string -> col:int -> value:int -> (Relation.tuple -> unit) -> unit;
      (** index probe: every tuple whose [col]th component is [value],
          handed out without per-probe allocation *)
  iter : string -> (Relation.tuple -> unit) -> unit;
}

val view_of_db : Database.t -> view
(** Live view: reads through to the database as it changes. *)

val eval_rule :
  symbols:Symbol.t ->
  view:view ->
  ?delta:int * Relation.t ->
  work:int ref ->
  on_derived:(Relation.tuple -> unit) ->
  Ast.rule ->
  unit
(** Enumerate all derivations of [rule]'s head. With [delta = (i, d)],
    body literal [i] (which must be positive) ranges over [d] instead of
    the view — the semi-naive restriction. Literals run in textual
    order. Negated literals and comparisons are evaluated under the
    view once their variables are bound (range restriction guarantees
    they are); a positive atom already ground is one [mem] lookup.
    [work] counts tuples examined, the per-task cost proxy used by
    {!To_trace}.
    [on_derived] may see duplicate tuples; callers dedupe via
    [Relation.add]'s return value. *)

val register : Database.t -> Ast.program -> unit
(** Create every predicate mentioned by the program (fixing arities).
    @raise Invalid_argument on an arity clash. *)
