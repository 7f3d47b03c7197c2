(** Static program analysis: effect sets, ownership verification, and
    the maintenance-strategy advisor.

    The paper's scheduling argument rests on knowing, before execution,
    which relations each maintenance task reads and writes. This module
    computes that knowledge from the artifacts the runtime actually
    executes: per-rule {e effect sets} extracted from compiled
    {!Plan} instruction sequences (with an AST fallback where no plan
    can exist — aggregate rules, the interpretive engine), rolled up per
    condensation component. Three consumers:

    - {!check_ownership} turns the component-ownership rule of
      {!Incremental.apply_parallel} — a task writes only its own
      component's relations and reads only upstream ones — from a
      trusted convention into a verified property;
    - the {e advisor} ({!comp_info.verdict}) drives [--maint auto],
      choosing Counting or DRed per stratum from static features
      (recursion class, negation, aggregates, exit-rule fraction,
      shardability);
    - [dms analyze] renders the whole analysis as a report
      ({!pp_report}, {!json_report}). *)

type strategy = Dred | Counting

type recursion = Nonrecursive | Linear | Nonlinear
(** [Linear]: every recursive rule of the component has exactly one
    positive body atom inside the component. [Nonlinear]: some rule
    rejoins the component more than once (e.g. [p(X,Z) :- p(X,Y), p(Y,Z)]). *)

type rule_info = {
  rule_index : int;  (** position in the program; facts are skipped *)
  head : string;
  reads : string list;  (** sorted, distinct; see {!Plan.reads} *)
  plan_derived : bool;
      (** reads came from compiled instruction steps; [false] means the
          AST fallback ({!Plan.body_reads}) was used *)
  in_comp_pos : int;
      (** positive body atoms (with multiplicity) whose predicate lies
          in the head's component — 0 for exit rules *)
}

type comp_info = {
  comp : int;  (** condensation component id *)
  stratum : int;
  members : string list;  (** sorted predicate names *)
  extensional : bool;  (** facts only: nothing to maintain *)
  rule_count : int;  (** non-fact rules headed in this component *)
  exit_rules : int;  (** rules with no in-component body atom *)
  recursion : recursion;
  has_negation : bool;
  has_aggregate : bool;
  reads : string list;  (** union of member-rule read sets, sorted *)
  external_reads : string list;  (** [reads] minus [members] *)
  writes : string list;  (** head predicates of member rules *)
  deltas : string list;
      (** predicates whose (added, removed) delta pair the component's
          maintenance touches: every positive body predicate (read side)
          and every member head (write side) *)
  shardable : bool;
      (** every member has arity >= 1, so the column-0 hash partitioning
          of {!Relation.shard_of_tuple} applies *)
  level_index : bool;
      (** the counting engine's well-founded support index (per-tuple
          first-derivation [level] plus strictly-lower-witness [low]
          count) applies: intensional, linear recursion, no negation or
          aggregates, compiled plans — derivations flow through each
          recursive rule's single in-component atom, so the index can
          attribute them to a witness *)
  verdict : strategy;
  reason : string;  (** one-line justification of [verdict] *)
}

type t = {
  anal : Stratify.t;
  engine : Plan.engine;
  rules : rule_info array;  (** non-fact rules, program order *)
  comps : comp_info array;  (** indexed by component id *)
}

val run : ?engine:Plan.engine -> anal:Stratify.t -> Ast.program -> t
(** Analyze [program] against an existing stratification. [engine]
    (default {!Plan.default_engine}) determines whether effect sets are
    extracted from compiled plans and whether the advisor may pick
    Counting (the counting engine requires compiled plans, so under
    [Interpreted] every verdict is [Dred]). Never raises on rules a
    plan cannot be built for — those fall back to AST-derived reads. *)

val program : ?engine:Plan.engine -> Ast.program -> t
(** [run] composed with {!Stratify.analyze}.
    @raise Stratify.Unstratifiable as {!Stratify.analyze} does. *)

val comp_of_pred : t -> string -> int option

val check_ownership :
  Stratify.t -> comp:int -> writes:string list -> reads:string list ->
  (unit, string) result
(** The parallel-maintenance ownership rule: a task for [comp] may write
    only predicates of [comp] itself and read only predicates of [comp]
    or of components upstream of it in the condensation (its
    dependencies, transitively). [Error] carries a message naming the
    offending predicate and components. *)

val verify : t -> (unit, string) result
(** {!check_ownership} applied to every component's own effect sets — a
    static self-check that the extracted effects respect the ownership
    discipline before any task is spawned. *)

val strategy_name : strategy -> string
(** ["dred"] / ["counting"]. *)

val recursion_name : recursion -> string
(** ["nonrecursive"] / ["linear"] / ["nonlinear"]. *)

val pp_report : Format.formatter -> t -> unit
(** Human-readable report: predicates, strata, per-component effect
    sets, recursion class, shardability, advisor verdicts, and the
    ownership verification result. *)

val json_report : t -> string
(** The same report as a strict JSON object (parseable by [Obs.Json]). *)
