type pred_change = { pred : string; added : int; removed : int }

type comp_activity = {
  comp : int;
  work : int;
  output_changed : bool;
  input_changed : bool;
}

type report = {
  changes : pred_change list;
  activity : comp_activity list;
  analysis : Stratify.t;
}

(* Net per-predicate deltas relative to the pre-update snapshot. A
   tuple sits in at most one of the two tables; re-adding a removed
   tuple cancels instead of double-booking. *)
type deltas = {
  added : (string, Relation.t) Hashtbl.t;
  removed : (string, Relation.t) Hashtbl.t;
}

let delta_rel tbl pred ~arity =
  match Hashtbl.find_opt tbl pred with
  | Some r -> r
  | None ->
    let r = Relation.create ~arity in
    Hashtbl.add tbl pred r;
    r

let nonempty tbl pred =
  match Hashtbl.find_opt tbl pred with
  | Some r -> Relation.cardinality r > 0
  | None -> false

let record_add (d : deltas) pred ~arity tup =
  let removed = delta_rel d.removed pred ~arity in
  if not (Relation.remove removed tup) then
    ignore (Relation.add (delta_rel d.added pred ~arity) tup)

let record_remove (d : deltas) pred ~arity tup =
  let added = delta_rel d.added pred ~arity in
  if not (Relation.remove added tup) then
    ignore (Relation.add (delta_rel d.removed pred ~arity) tup)

(* Replace the [i]th body literal (a negated atom) by its positive
   counterpart so that the semi-naive delta can range over it: a
   derivation enabled/disabled by a change to a negated input is found
   by unifying that literal against exactly the changed tuples. *)
let flip_negation (rule : Ast.rule) i =
  let body =
    List.mapi
      (fun j lit ->
        if j = i then
          match lit with
          | Ast.Neg a -> Ast.Pos a
          | Ast.Pos _ | Ast.Cmp _ -> invalid_arg "flip_negation: literal not negated"
        else lit)
      rule.Ast.body
  in
  { rule with Ast.body }

let check_edb (anal : Stratify.t) (a : Ast.atom) =
  if not (Ast.atom_is_ground a) then
    invalid_arg (Printf.sprintf "Incremental: update atom %s is not ground" a.Ast.pred);
  match Hashtbl.find_opt anal.Stratify.index_of a.Ast.pred with
  | Some i when not anal.Stratify.edb.(i) ->
    invalid_arg
      (Printf.sprintf "Incremental: %s is intensional; update base facts only"
         a.Ast.pred)
  | Some _ | None -> ()

(* Maintenance algorithm selector: classic delete/rederive (DRed), the
   counting engine — per-tuple derivation counts with Backward/Forward
   search for recursive components — or [Auto], which asks the static
   advisor ({!Analyze}) to pick per component. Whatever the selector,
   maintenance runs with one *resolved* strategy per condensation
   component; [Dred]/[Counting] resolve uniformly, [Auto] per the
   advisor. *)
type maint = Dred | Counting | Auto

let default_warn msg = Printf.eprintf "warning: %s\n%!" msg

let resolve_strategies ~engine anal program maint =
  let n = anal.Stratify.condensation.Dag.Scc.count in
  match maint with
  | Dred -> Array.make n Analyze.Dred
  | Counting -> Array.make n Analyze.Counting
  | Auto ->
    let az = Analyze.run ~engine ~anal program in
    Array.init n (fun c -> az.Analyze.comps.(c).Analyze.verdict)

(* ---- the update context -----------------------------------------

   Everything component maintenance shares. After the serial prologue
   ([make_ctx], base updates, [prepare_deltas], [prepare_comp] /
   [precompile_comp]) the context's *structure* is frozen: the delta
   and relation hashtables gain no further entries, the views and plan
   stores are read-only. From then on [process_comp c] writes only the
   relations and delta relations of component [c]'s own predicates —
   every body predicate is upstream or same-component by construction
   of the dependency graph — which is the ownership rule that makes
   running components in parallel safe (see {!apply_parallel}). *)
type ctx = {
  db : Database.t;
  program : Ast.program;
  anal : Stratify.t;
  engine : Plan.engine;
  strategy : Analyze.strategy array;  (* resolved per component *)
  sanitize : bool;
  on_warn : string -> unit;
  symbols : Symbol.t;
  card : string -> int;
  make_exec : Ast.rule -> Plan.exec;
  d : deltas;
  old_view : Matcher.view;
  new_view : Matcher.view;
}

let make_ctx ?(sanitize = false) ?(on_warn = default_warn) ~engine ~maint db program =
  Aggregate.validate program;
  let anal = Stratify.analyze program in
  let strategy = resolve_strategies ~engine anal program maint in
  Matcher.register db program;
  let symbols = Database.symbols db in
  let card pred =
    match Database.find db pred with Some r -> Relation.cardinality r | None -> 0
  in
  let make_exec r = Plan.executor ~engine ~symbols ~card r in
  let new_view = Matcher.view_of_db db in
  let d = { added = Hashtbl.create 16; removed = Hashtbl.create 16 } in
  (* The pre-update state as a delta overlay over the live database:
     old = (new \ added) ∪ removed. The net-delta invariant maintained
     by [record_add]/[record_remove] (a tuple sits in at most one table,
     cancellation on re-add) makes this identity hold at every point
     during processing, so no O(database) snapshot copy is needed. *)
  let old_view =
    let added p = Hashtbl.find_opt d.added p in
    let removed p = Hashtbl.find_opt d.removed p in
    let non_empty = function
      | Some r when Relation.cardinality r > 0 -> Some r
      | Some _ | None -> None
    in
    {
      Matcher.mem =
        (fun p tup ->
          let in_removed =
            match removed p with Some r -> Relation.mem r tup | None -> false
          in
          in_removed
          ||
          let in_added =
            match added p with Some r -> Relation.mem r tup | None -> false
          in
          (not in_added)
          && (match Database.find db p with
             | Some r -> Relation.mem r tup
             | None -> false));
      iter_matching =
        (fun p ~col ~value f ->
          (match Database.find db p with
          | Some r -> (
            match non_empty (added p) with
            | Some a ->
              Relation.iter_matching r ~col ~value (fun t ->
                  if not (Relation.mem a t) then f t)
            | None -> Relation.iter_matching r ~col ~value f)
          | None -> ());
          match non_empty (removed p) with
          | Some r -> Relation.iter_matching r ~col ~value f
          | None -> ());
      iter =
        (fun p f ->
          (match Database.find db p with
          | Some r -> (
            match non_empty (added p) with
            | Some a -> Relation.iter (fun t -> if not (Relation.mem a t) then f t) r
            | None -> Relation.iter f r)
          | None -> ());
          match removed p with Some r -> Relation.iter f r | None -> ());
    }
  in
  { db; program; anal; engine; strategy; sanitize; on_warn; symbols; card;
    make_exec; d; old_view; new_view }

let apply_base_updates ctx ~additions ~deletions =
  List.iter
    (fun (a : Ast.atom) ->
      let tup = Database.intern_atom ctx.db a in
      let rel = Database.relation ctx.db a.Ast.pred ~arity:(Array.length tup) in
      if Relation.remove rel tup then
        record_remove ctx.d a.Ast.pred ~arity:(Array.length tup) tup)
    deletions;
  List.iter
    (fun (a : Ast.atom) ->
      let tup = Database.intern_atom ctx.db a in
      let rel = Database.relation ctx.db a.Ast.pred ~arity:(Array.length tup) in
      if Relation.add rel tup then
        record_add ctx.d a.Ast.pred ~arity:(Array.length tup) tup)
    additions

(* Pre-create the delta relation pair of every analyzed predicate, so
   the delta hashtables never grow a new entry during component
   processing — structural mutation of a shared hashtable is the one
   thing [record_add]/[record_remove] would otherwise do outside their
   component's write set. ([Matcher.register] has already created every
   predicate's relation, fixing the arities.) *)
let prepare_deltas ctx =
  Array.iter
    (fun name ->
      match Database.find ctx.db name with
      | None -> ()
      | Some rel ->
        let arity = Relation.arity rel in
        ignore (delta_rel ctx.d.added name ~arity);
        ignore (delta_rel ctx.d.removed name ~arity))
    ctx.anal.Stratify.predicates

(* ---- per-component preparation ----------------------------------

   Everything a component's maintenance needs, resolved up front: its
   rules with one shared executor each (so every (rule, delta position)
   plan is compiled at most once per update), plus the flipped-positive
   variant of each negated literal — shared by phases A and C, where
   the original code rebuilt it per trigger. *)

type prepared_rule = {
  rule : Ast.rule;
  ex : Plan.exec;
  flipped : (int * Plan.exec) list;  (* keyed by negated body position *)
}

(* [Rules] holds one independently compiled plan set per shard task
   (length 1 when unsharded): plans carry non-reentrant scratch state,
   so the per-shard enumerations of a sharded phase round must never
   share one. Shard [s]'s list is touched only by the thread running
   shard [s] (the crew pins shards to domains). *)
type comp_body =
  | Extensional
  | Aggregate_rule of Ast.rule
  | Rules of prepared_rule list array

type prepared_comp = {
  comp : int;
  members : int array;
  comp_preds : (string, unit) Hashtbl.t;
  tag : string;  (* sanitizer owner/writer tag: names the component *)
  body : comp_body;
}

let prepare_comp ?(shards = 1) ctx comp =
  let anal = ctx.anal in
  let members = anal.Stratify.condensation.Dag.Scc.members.(comp) in
  let comp_preds = Hashtbl.create 4 in
  Array.iter
    (fun p -> Hashtbl.replace comp_preds anal.Stratify.predicates.(p) ())
    members;
  let tag =
    Printf.sprintf "component %d [%s]" comp
      (String.concat " "
         (List.map
            (fun p -> anal.Stratify.predicates.(p))
            (Array.to_list members)))
  in
  let rules =
    List.filter
      (fun (r : Ast.rule) -> r.Ast.body <> [])
      (Stratify.rules_for_comp anal ctx.program comp)
  in
  let body =
    match rules with
    | [] -> Extensional
    | [ r ] when Ast.rule_is_aggregate r -> Aggregate_rule r
    | rules ->
      let prepare_set () =
        List.map
          (fun (r : Ast.rule) ->
            let flipped =
              List.mapi (fun i lit -> (i, lit)) r.Ast.body
              |> List.filter_map (fun (i, lit) ->
                     match lit with
                     | Ast.Neg _ -> Some (i, ctx.make_exec (flip_negation r i))
                     | Ast.Pos _ | Ast.Cmp _ -> None)
            in
            { rule = r; ex = ctx.make_exec r; flipped })
          rules
      in
      Rules (Array.init (max 1 shards) (fun _ -> prepare_set ()))
  in
  { comp; members; comp_preds; tag; body }

(* Compile every plan a component's phases could reach: the base plan
   (phase B), a delta plan per positive body position (phases A/C and
   the in-component cascades), and a delta plan per flipped negation —
   for every shard's plan set. Compilation interns constants into the
   shared symbol table and consults relation cardinalities, so the
   parallel driver runs this serially, before any worker domain
   exists. *)
let precompile_comp pc =
  match pc.body with
  | Extensional | Aggregate_rule _ -> ()
  | Rules prs_by_shard ->
    Array.iter
      (fun prs ->
        List.iter
          (fun pr ->
            Plan.prepare pr.ex;
            List.iteri
              (fun i lit ->
                match lit with
                | Ast.Pos _ -> Plan.prepare ~delta:i pr.ex
                | Ast.Neg _ | Ast.Cmp _ -> ())
              pr.rule.Ast.body;
            List.iter (fun (i, fex) -> Plan.prepare ~delta:i fex) pr.flipped)
          prs)
      prs_by_shard

let flipped_for pr i =
  match List.assoc_opt i pr.flipped with
  | Some fex -> fex
  | None -> invalid_arg "Incremental: missing flipped plan"

(* ---- counting maintenance helpers ------------------------------- *)

(* [base] with the [plus] tuples restored and the [minus] tuples
   hidden, per predicate — the same overlay shape as the global old
   view, but over one cascade round's delta: a death round enumerates
   with [plus] = this round's deaths (the pre-round state), a birth
   round with [minus] = this round's births. Invariants: [plus] is
   disjoint from [base] (its tuples were just removed) and [minus] is
   contained in [base] (just added / still present), so membership is
   plus-hit, else minus-miss, else base. *)
let overlay_view ~plus ~minus (base : Matcher.view) =
  let find tbl p =
    match Hashtbl.find_opt tbl p with
    | Some r when Relation.cardinality r > 0 -> Some r
    | Some _ | None -> None
  in
  {
    Matcher.mem =
      (fun p tup ->
        (match find plus p with Some r -> Relation.mem r tup | None -> false)
        || ((match find minus p with
            | Some r -> not (Relation.mem r tup)
            | None -> true)
           && base.Matcher.mem p tup));
    iter_matching =
      (fun p ~col ~value f ->
        (match find minus p with
        | Some m ->
          base.Matcher.iter_matching p ~col ~value (fun t ->
              if not (Relation.mem m t) then f t)
        | None -> base.Matcher.iter_matching p ~col ~value f);
        match find plus p with
        | Some r -> Relation.iter_matching r ~col ~value f
        | None -> ());
    iter =
      (fun p f ->
        (match find minus p with
        | Some m -> base.Matcher.iter p (fun t -> if not (Relation.mem m t) then f t)
        | None -> base.Matcher.iter p f);
        match find plus p with Some r -> Relation.iter f r | None -> ());
  }

(* The single in-component positive body atom of a linear recursive
   rule, as (original position, predicate); [None] for exit rules and
   for non-linear recursion. Only derivations through a linear rule
   carry a usable supporter witness: with two in-component atoms the
   well-founded level of a derivation is the max over both, which a
   single witness cannot name — such derivations stay out of [low]
   (an undercount, the safe direction). *)
let linear_pos comp_preds (r : Ast.rule) =
  let found = ref [] in
  List.iteri
    (fun i lit ->
      match lit with
      | Ast.Pos a when Hashtbl.mem comp_preds a.Ast.pred ->
        found := (i, a.Ast.pred) :: !found
      | Ast.Pos _ | Ast.Neg _ | Ast.Cmp _ -> ())
    r.Ast.body;
  match !found with [ (i, p) ] -> Some (i, p) | _ -> None

(* (Re)build a [Rules] component's derivation-count side tables — and
   the well-founded support index — against [view], level-stratified:

   - exit pass: each exit rule's base plan enumerates its derivations
     in one full join; heads get [exits] and level 0 (an exit
     derivation is acyclic support by construction);
   - recursive fixpoint: recursive-rule derivations are enumerated
     semi-naively over the *leveled* subset of the component — round
     [r]'s delta is the set of tuples first leveled in round [r - 1],
     telescoped through {!Plan.run}'s [late_view] so each derivation
     is counted exactly once — giving exact [recs] and, as a
     byproduct, iteration levels: a tuple first derivable in round [r]
     gets level [r]. [low] counts the derivations of linear rules
     whose witness supporter has a *cell* level strictly below the
     head's level; pinned supporters (no cell) and non-linear rules
     contribute nothing, so [low] may undercount but never overcounts;
   - stall: when the deltas dry up with component tuples still
     unleveled, their support runs through base facts listed for
     derived predicates (which no rule re-derives). All still-unleveled
     present tuples are pinned at level 0 — without cells, so the
     settle path keeps treating such base facts defensively — and join
     the next delta, so their consumers' derivations are still
     enumerated exactly once and the fixpoint resumes.

   Attaches fresh tables ([shards] cell partitions each) and returns
   them keyed by head predicate; the caller stamps them synced once
   store and counts agree. *)
let recount_comp ctx (pc : prepared_comp) prs ~shards ~view ~work =
  let is_rec (r : Ast.rule) =
    List.exists
      (function
        | Ast.Pos a -> Hashtbl.mem pc.comp_preds a.Ast.pred
        | Ast.Neg _ | Ast.Cmp _ -> false)
      r.Ast.body
  in
  let counts_of : (string, Relation.counts) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun pr ->
      let pred = pr.rule.Ast.head.Ast.pred in
      if not (Hashtbl.mem counts_of pred) then begin
        let rel =
          Database.relation ctx.db pred ~arity:(List.length pr.rule.Ast.head.Ast.args)
        in
        Hashtbl.add counts_of pred (Relation.counts_attach ~shards rel)
      end)
    prs;
  List.iter
    (fun pr ->
      if not (is_rec pr.rule) then begin
        let c = Hashtbl.find counts_of pr.rule.Ast.head.Ast.pred in
        Plan.exec_rule ~view ~work
          ~on_derived:(fun tup ->
            let cell = Relation.count_cell c tup in
            cell.Relation.exits <- cell.Relation.exits + 1;
            cell.Relation.level <- 0)
          pr.ex
      end)
    prs;
  let rec_prs = List.filter (fun pr -> is_rec pr.rule) prs in
  if rec_prs <> [] then begin
    let arity_of pred =
      match Database.find ctx.db pred with
      | Some rel -> Relation.arity rel
      | None -> invalid_arg "Incremental.recount: unregistered predicate"
    in
    let fresh_rel tbl pred =
      match Hashtbl.find_opt tbl pred with
      | Some r -> r
      | None ->
        let r = Relation.create ~arity:(arity_of pred) in
        Hashtbl.add tbl pred r;
        r
    in
    let leveled : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
    let pinned : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
    let is_pinned pred tup =
      match Hashtbl.find_opt pinned pred with
      | Some r -> Relation.mem r tup
      | None -> false
    in
    let in_comp p = Hashtbl.mem pc.comp_preds p in
    let leveled_view =
      {
        Matcher.mem =
          (fun p tup ->
            if in_comp p then
              match Hashtbl.find_opt leveled p with
              | Some r -> Relation.mem r tup
              | None -> false
            else view.Matcher.mem p tup);
        iter_matching =
          (fun p ~col ~value f ->
            if in_comp p then (
              match Hashtbl.find_opt leveled p with
              | Some r -> Relation.iter_matching r ~col ~value f
              | None -> ())
            else view.Matcher.iter_matching p ~col ~value f);
        iter =
          (fun p f ->
            if in_comp p then (
              match Hashtbl.find_opt leveled p with
              | Some r -> Relation.iter f r
              | None -> ())
            else view.Matcher.iter p f);
      }
    in
    let no_overlay : (string, Relation.t) Hashtbl.t = Hashtbl.create 1 in
    let live tbl =
      Hashtbl.fold (fun _ r acc -> acc || Relation.cardinality r > 0) tbl false
    in
    let sup_cell_level pred tup =
      match Hashtbl.find_opt counts_of pred with
      | Some c -> (
        match Relation.count_find c tup with
        | Some cell -> cell.Relation.level
        | None -> max_int)
      | None -> max_int
    in
    (* round 1's delta: the exit-leveled tuples *)
    let round = ref (Hashtbl.create 4 : (string, Relation.t) Hashtbl.t) in
    Hashtbl.iter
      (fun pred c ->
        Relation.counts_iter
          (fun tup cell ->
            if cell.Relation.level = 0 then begin
              ignore (Relation.add (fresh_rel leveled pred) tup);
              ignore (Relation.add (fresh_rel !round pred) tup)
            end)
          c)
      counts_of;
    let r = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      if live !round then begin
        incr r;
        let cur = !round in
        let next = Hashtbl.create 4 in
        let late = overlay_view ~plus:no_overlay ~minus:cur leveled_view in
        List.iter
          (fun pr ->
            let hpred = pr.rule.Ast.head.Ast.pred in
            let c = Hashtbl.find counts_of hpred in
            let lin = linear_pos pc.comp_preds pr.rule in
            let supr = ref max_int in
            let witness =
              match lin with
              | Some (w, p) -> Some (w, fun tup -> supr := sup_cell_level p tup)
              | None -> None
            in
            List.iteri
              (fun i lit ->
                match lit with
                | Ast.Pos a when in_comp a.Ast.pred -> (
                  match Hashtbl.find_opt cur a.Ast.pred with
                  | Some delta when Relation.cardinality delta > 0 ->
                    Plan.exec_rule ?witness ~view:leveled_view ~late_view:late
                      ~delta:(i, delta) ~work
                      ~on_derived:(fun h ->
                        let cell = Relation.count_cell c h in
                        cell.Relation.recs <- cell.Relation.recs + 1;
                        let s = if lin = None then max_int else !supr in
                        if cell.Relation.level < max_int then begin
                          if s < cell.Relation.level then
                            cell.Relation.low <- cell.Relation.low + 1
                        end
                        else if not (is_pinned hpred h) then begin
                          (* first derivable this round: will get level
                             [r]; staged so it joins the leveled set
                             only at round end *)
                          if s < !r then cell.Relation.low <- cell.Relation.low + 1;
                          ignore (Relation.add (fresh_rel next hpred) h)
                        end)
                      pr.ex
                  | Some _ | None -> ())
                | Ast.Pos _ | Ast.Neg _ | Ast.Cmp _ -> ())
              pr.rule.Ast.body)
          rec_prs;
        (* staged fresh levels are assigned only now: the round's views
           must not see mid-round additions *)
        Hashtbl.iter
          (fun pred srel ->
            let c = Hashtbl.find counts_of pred in
            Relation.iter
              (fun tup ->
                (match Relation.count_find c tup with
                | Some cell ->
                  if cell.Relation.level = max_int then cell.Relation.level <- !r
                | None -> ());
                ignore (Relation.add (fresh_rel leveled pred) tup))
              srel)
          next;
        round := next
      end
      else begin
        (* stalled: pin still-unleveled present tuples at level 0 *)
        let fresh = Hashtbl.create 4 in
        let any = ref false in
        Hashtbl.iter
          (fun pred () ->
            view.Matcher.iter pred (fun tup ->
                let already =
                  match Hashtbl.find_opt leveled pred with
                  | Some lr -> Relation.mem lr tup
                  | None -> false
                in
                if not already then begin
                  ignore (Relation.add (fresh_rel pinned pred) tup);
                  ignore (Relation.add (fresh_rel leveled pred) tup);
                  ignore (Relation.add (fresh_rel fresh pred) tup);
                  any := true
                end))
          pc.comp_preds;
        if !any then round := fresh else continue_ := false
      end
    done
  end;
  counts_of

(* ---- per-component maintenance (DRed phases A/B/C, counting) ---- *)

(* Shared intra-component fan-out machinery, one per update: the crew
   ([Shard_crew.run] serializes concurrent component tasks internally
   so two executor workers can both reach a sharded phase round), the
   shard count, and one dedicated obs ring per non-coordinator shard.
   Crew worker [j] always runs shard [j] and at most one fan-out is in
   flight, so the rings keep their single-writer contract; shard 0
   runs on the coordinating thread and shares its ring. *)
type shard_ctx = {
  crew : Parallel.Shard_crew.t;
  nshards : int;
  shard_rings : Obs.Ring.t array;  (* length [nshards]; slot 0 unused *)
}

(* A round fans out over [k] shards only with at least [shard_gate * k]
   driving tuples; below that the crew round-trip costs more than it
   buys. *)
let shard_gate = 4

let process_comp_unsanitized ?(ring = Obs.Ring.null) ?shard_ctx ctx (pc : prepared_comp) =
  let anal = ctx.anal in
  let d = ctx.d in
  let comp = pc.comp in
  (* DRed phase spans (delete / rederive / insert), one per phase per
     component, tagged with the component id; a single mutable start
     stamp suffices because phases never nest *)
  let traced = Obs.Ring.enabled ring in
  let phase0 = ref 0 in
  let phase_begin () = if traced then phase0 := Obs.Ring.now_ns ring in
  let phase_end kind = if traced then Obs.Ring.emit ring ~kind ~a:comp ~b:!phase0 in
  let comp_preds = pc.comp_preds in
  let head_arity (r : Ast.rule) = List.length r.Ast.head.Ast.args in
  let head_rel (r : Ast.rule) =
    Database.relation ctx.db r.Ast.head.Ast.pred ~arity:(head_arity r)
  in
  let members_changed () =
    Array.exists
      (fun p ->
        nonempty d.added anal.Stratify.predicates.(p)
        || nonempty d.removed anal.Stratify.predicates.(p))
      pc.members
  in
  let input_changed_of rules =
    List.exists
      (fun (r : Ast.rule) ->
        List.exists
          (function
            | Ast.Pos a | Ast.Neg a ->
              (not (Hashtbl.mem comp_preds a.Ast.pred))
              && (nonempty d.added a.Ast.pred || nonempty d.removed a.Ast.pred)
            | Ast.Cmp _ -> false)
          r.Ast.body)
      rules
  in
  match pc.body with
  | Extensional ->
    (* extensional component: its delta is the base update itself *)
    { comp; work = 0; output_changed = members_changed (); input_changed = false }
  | Aggregate_rule r ->
    (* aggregates are functional: recompute when dirty, diff exactly *)
    let input_changed = input_changed_of [ r ] in
    let work = ref 0 in
    if input_changed then begin
      phase_begin ();
      let pred = r.Ast.head.Ast.pred in
      let arity = head_arity r in
      let rel = Database.relation ctx.db pred ~arity in
      let fresh = Relation.create ~arity in
      List.iter
        (fun tup -> ignore (Relation.add fresh tup))
        (Aggregate.evaluate ~engine:ctx.engine ~symbols:ctx.symbols ~view:ctx.new_view
           ~card:ctx.card ~work r);
      let stale =
        Relation.fold
          (fun acc tup -> if Relation.mem fresh tup then acc else tup :: acc)
          [] rel
      in
      List.iter
        (fun tup ->
          ignore (Relation.remove rel tup);
          record_remove d pred ~arity tup)
        stale;
      Relation.iter
        (fun tup -> if Relation.add rel tup then record_add d pred ~arity tup)
        fresh;
      (* functional recompute-and-diff is closest to rederivation *)
      phase_end Obs.Event.dred_rederive
    end;
    { comp; work = !work; output_changed = members_changed (); input_changed }
  | Rules prs_by_shard ->
    let prs = prs_by_shard.(0) in
    let input_changed = input_changed_of (List.map (fun pr -> pr.rule) prs) in
    let work = ref 0 in
    let sharded =
      match shard_ctx with
      | Some sc when sc.nshards > 1 && Array.length prs_by_shard = sc.nshards -> Some sc
      | Some _ | None -> None
    in
    let card_of = function Some r -> Relation.cardinality r | None -> 0 in
    let literal_sum f =
      List.fold_left
        (fun acc pr -> List.fold_left (fun acc lit -> acc + f lit) acc pr.rule.Ast.body)
        0 prs
    in
    let round_size round =
      Hashtbl.fold (fun _ r acc -> acc + Relation.cardinality r) round 0
    in
    (* One maintenance round — DRed's and counting's alike. Unsharded
       (no crew, or fewer than [shard_gate * k] driving tuples) the
       round enumerates once over [prs] into [direct]. Sharded, shard
       job [s] enumerates through its own plan set with Plan's
       [?shard:(s, k)] filter on the round's delta, into a private
       sink (only shared state is read; job [s] writes only sink [s]);
       the coordinator then runs each sink's merge in shard order
       0..k-1 behind the crew barrier, so the insertion order of every
       relation and delta is a pure function of the derivations —
       deterministic run to run. *)
    let fanout_round ~size ~direct ~private_sink enumerate =
      match sharded with
      | Some sc when size >= shard_gate * sc.nshards ->
        let k = sc.nshards in
        let sinks = Array.init k (fun _ -> private_sink ()) in
        let works = Array.make k 0 in
        let job s =
          let ring_s = if s = 0 then ring else sc.shard_rings.(s) in
          let t0 = if Obs.Ring.enabled ring_s then Obs.Ring.now_ns ring_s else 0 in
          let w = ref 0 in
          enumerate ~sprs:prs_by_shard.(s) ~shard:(Some (s, k)) ~work:w (fst sinks.(s));
          works.(s) <- !w;
          if Obs.Ring.enabled ring_s then
            Obs.Ring.emit ring_s ~kind:Obs.Event.shard ~a:s ~b:t0
        in
        Parallel.Shard_crew.run sc.crew job;
        Array.iter (fun w -> work := !work + w) works;
        Array.iter (fun (_, merge) -> merge ()) sinks
      | Some _ | None -> enumerate ~sprs:prs ~shard:None ~work direct
    in
    (* ---- Phase B: rederivation over the new state ----
       Serial either way: after overdeletion the phase is empty for
       insert-only batches, and its fixpoint mutates [overdeleted]
       mid-enumeration. *)
    let rederive overdeleted =
      phase_begin ();
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun pr ->
            let r = pr.rule in
            match Hashtbl.find_opt overdeleted r.Ast.head.Ast.pred with
            | Some o when Relation.cardinality o > 0 ->
              Plan.exec_rule_deferred ~view:ctx.new_view ~work
                ~keep:(Relation.mem o)
                ~on_derived:(fun tup ->
                  if Relation.mem o tup then begin
                    let pred = r.Ast.head.Ast.pred in
                    let rel = Database.relation ctx.db pred ~arity:(head_arity r) in
                    if Relation.add rel tup then begin
                      record_add d pred ~arity:(head_arity r) tup;
                      ignore (Relation.remove o tup);
                      changed := true
                    end
                  end)
                pr.ex
            | Some _ | None -> ())
          prs
      done;
      phase_end Obs.Event.dred_rederive
    in
    (* ---- Phases A and C: one DRed phase, run twice ----
       Round 0 enumerates every rule against the external delta
       [trigger] names for each body literal (a negated literal
       through its flipped-positive plan); the in-component cascade
       then re-enumerates against the tuples the previous round staged
       until a round stages nothing. [stage] applies one derivation to
       its head relation and says whether the store changed; [keep] is
       the read-only pre-filter that drops derivations [stage] would
       ignore. Every exec is {!Plan.exec_rule_deferred}: staging
       mutates state the enumeration reads — the head relation probed
       by recursive rules, and the net-delta overlay [old_view]
       iterates — so derivations apply only after each walk.

       Unsharded, each rule's derivations are staged as its walk ends,
       so later rules of the same round already see them (through
       [trigger] too: overdeleted component tuples land in
       [d.removed]). Sharded, staging waits for the merge; derivations
       the unsharded walk found through tuples staged mid-round
       reappear as next-round delta hits, so the fixpoint is the same
       and only the work counts differ. *)
    let dred_phase ~view ~trigger ~keep ~stage =
      let next = ref (Hashtbl.create 4 : (string, Relation.t) Hashtbl.t) in
      let stage_next (r : Ast.rule) tup =
        let pred = r.Ast.head.Ast.pred and arity = head_arity r in
        if stage (Database.relation ctx.db pred ~arity) pred ~arity tup then
          ignore (Relation.add (delta_rel !next pred ~arity) tup)
      in
      let buffered () =
        let acc = ref [] in
        ( (fun r tup -> acc := (r, tup) :: !acc),
          fun () -> List.iter (fun (r, tup) -> stage_next r tup) (List.rev !acc) )
      in
      let round ~size delta_of =
        fanout_round ~size ~direct:stage_next ~private_sink:buffered
          (fun ~sprs ~shard ~work emit ->
            List.iter
              (fun pr ->
                List.iteri
                  (fun i lit ->
                    match delta_of lit with
                    | Some delta when Relation.cardinality delta > 0 ->
                      let ex =
                        match lit with
                        | Ast.Neg _ -> flipped_for pr i
                        | Ast.Pos _ | Ast.Cmp _ -> pr.ex
                      in
                      Plan.exec_rule_deferred ~view ~delta:(i, delta) ?shard ~work
                        ~keep:(keep (head_rel pr.rule))
                        ~on_derived:(emit pr.rule) ex
                    | Some _ | None -> ())
                  pr.rule.Ast.body)
              sprs)
      in
      round ~size:(literal_sum (fun lit -> card_of (trigger lit))) trigger;
      while Hashtbl.length !next > 0 do
        let prev = !next in
        next := Hashtbl.create 4;
        round ~size:(round_size prev) (function
          | Ast.Pos a when Hashtbl.mem comp_preds a.Ast.pred ->
            Hashtbl.find_opt prev a.Ast.pred
          | Ast.Pos _ | Ast.Neg _ | Ast.Cmp _ -> None)
      done
    in
    let run_phases_dred () =
      phase_begin ();
      let overdeleted : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
      dred_phase ~view:ctx.old_view
        ~trigger:(function
          | Ast.Pos a -> Hashtbl.find_opt d.removed a.Ast.pred
          | Ast.Neg a -> Hashtbl.find_opt d.added a.Ast.pred
          | Ast.Cmp _ -> None)
        ~keep:Relation.mem
        ~stage:(fun rel pred ~arity tup ->
          Relation.remove rel tup
          && begin
            record_remove d pred ~arity tup;
            ignore (Relation.add (delta_rel overdeleted pred ~arity) tup);
            true
          end);
      phase_end Obs.Event.dred_delete;
      rederive overdeleted;
      phase_begin ();
      dred_phase ~view:ctx.new_view
        ~trigger:(function
          | Ast.Pos a when not (Hashtbl.mem comp_preds a.Ast.pred) ->
            Hashtbl.find_opt d.added a.Ast.pred
          | Ast.Neg a -> Hashtbl.find_opt d.removed a.Ast.pred
          | Ast.Pos _ | Ast.Cmp _ -> None)
        ~keep:(fun rel tup -> not (Relation.mem rel tup))
        ~stage:(fun rel pred ~arity tup ->
          Relation.add rel tup
          && begin
            record_add d pred ~arity tup;
            true
          end);
      phase_end Obs.Event.dred_insert
    in
    (* ---- counting maintenance (derivation counts + B/F search) ----

       The deletion-side replacement for DRed's overdelete/rederive:
       per-tuple derivation counts (split exit/recursive) live in
       {!Relation}'s side table and are maintained by signed delta
       propagation — a tuple dies exactly when its count reaches zero,
       so nothing is over-deleted and rederivation shrinks to a
       backward check of the few decremented-but-surviving tuples
       without exit support. Every enumeration uses the telescoped
       split-view form: the delta literal at body position i joins
       positions j < i against the already-updated state and positions
       j > i against the not-yet-updated state ({!Plan.run}'s
       [late_view]), which makes the signed counts exact for arbitrary
       batches, self-joins included. Work inside the component is
       serialized as: external deltas (round 0), then death cascade
       rounds, then backward removals (looping with further cascades),
       then birth rounds — and each round's enumerations read exactly
       the store state that order implies: deaths/births already
       applied count as "early" state, the round's own delta restored/
       hidden via {!overlay_view} is the "late" state.

       The well-founded support index rides in the same cells: [level]
       is the recount fixpoint round of a tuple's first well-founded
       derivation (immutable once assigned — lowering it would
       misclassify later derivation deaths) and [low] counts surviving
       linear-rule derivations whose witness supporter sits at a
       strictly lower level. The backward search pops its suspects in
       ascending level order and condemns each failed probe by filing
       a debt against every consumer derivation the index counted
       through it; a suspect with [exits = 0] but [low] minus its debt
       positive is then proven without any body re-evaluation — every
       supporter a surviving [low] entry can name sits at a strictly
       lower level, so it was resolved (and, if condemned, debited)
       before the suspect popped, and the chain bottoms out in level-0
       exit support. If a relied-on supporter is removed on a later
       outer round, that removal's cascade decrements [low] and
       re-suspects the dependent — the same repair that covers proofs
       through tuples the round later removes.
       Attribution is witness-based: every enumeration of a linear
       recursive rule extracts the tuple its single in-component atom
       matched ({!Plan.run}'s [witness]) and classifies the derivation
       against the head's level, looking supporter levels of tuples
       killed earlier in the run up in a morgue. Non-linear
       derivations never enter [low]: it may undercount (costing a
       probe), never overcount (which would be unsound).

       Propagation rounds — round 0, death cascades, birth rounds — go
       through [fanout_round], the helper DRed's phase rounds use: on
       the crew, shard job [s] enumerates only its hash slice of the
       round's delta through its own plan set, accumulating signed
       count deltas and suspect touches in private buffers
       ([count_round]'s sink); the coordinator merges the buffers into the
       global scratch in shard order 0..k-1 behind the crew barrier
       (counts add; newborn levels take the minimum, [low] keeps the
       contributions attaining it) and settles serially, so store,
       counts and index end up exactly as the serial walk's. The
       backward search stays serial: its worklist is the small suspect
       cone, already cut down by the O(1) level check. *)
    let run_phases_counting () =
      let rec_rule (r : Ast.rule) =
        List.exists
          (function
            | Ast.Pos a -> Hashtbl.mem comp_preds a.Ast.pred
            | Ast.Neg _ | Ast.Cmp _ -> false)
          r.Ast.body
      in
      let recursive = List.exists (fun pr -> rec_rule pr.rule) prs in
      let heads : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
      List.iter
        (fun pr ->
          let pred = pr.rule.Ast.head.Ast.pred in
          if not (Hashtbl.mem heads pred) then Hashtbl.add heads pred (head_rel pr.rule))
        prs;
      (* counts: trust them only if stamped at the relations' current
         versions; any other mutation path (DRed, Eval, direct edits)
         bumped the version, so rebuild against the pre-update state.
         Comp relations are untouched at this point and upstream deltas
         cancel out under the old view, so the rebuild is exact. *)
      let stale =
        Hashtbl.fold
          (fun _ rel acc -> acc || Relation.counts_synced rel = None)
          heads false
      in
      let nshards = match sharded with Some sc -> sc.nshards | None -> 1 in
      let counts_of =
        if stale then recount_comp ctx pc prs ~shards:nshards ~view:ctx.old_view ~work
        else begin
          let tbl = Hashtbl.create 4 in
          Hashtbl.iter
            (fun pred rel ->
              match Relation.counts_synced rel with
              | Some c -> Hashtbl.add tbl pred c
              | None -> assert false)
            heads;
          tbl
        end
      in
      let no_overlay : (string, Relation.t) Hashtbl.t = Hashtbl.create 0 in
      let tbl_live tbl =
        Hashtbl.fold (fun _ r acc -> acc || Relation.cardinality r > 0) tbl false
      in
      (* morgue: levels of tuples this run killed, so later death
         attribution can still classify derivations through them. One
         run is enough scope — across batches every surviving
         derivation's body tuples are alive, their levels in live
         cells. (Reuses [Relation.counts] as a tuple-keyed map.) *)
      let morgue : (string, Relation.counts) Hashtbl.t = Hashtbl.create 4 in
      let morgue_put pred tup level =
        if level < max_int then begin
          let m =
            match Hashtbl.find_opt morgue pred with
            | Some m -> m
            | None ->
              let m = Relation.counts_create () in
              Hashtbl.add morgue pred m;
              m
          in
          (Relation.count_cell m tup).Relation.level <- level
        end
      in
      let canon_cell pred tup =
        match Hashtbl.find_opt counts_of pred with
        | Some c -> Relation.count_find c tup
        | None -> None
      in
      (* a supporter's level: its live cell's, else the morgue's, else
         unknown. Base facts listed for derived predicates carry no
         cell and so always read [max_int] — everywhere, so births and
         deaths through them classify identically (neither touches
         [low]). *)
      let sup_level pred tup =
        match canon_cell pred tup with
        | Some cell -> cell.Relation.level
        | None -> (
          match Hashtbl.find_opt morgue pred with
          | Some m -> (
            match Relation.count_find m tup with
            | Some cell -> cell.Relation.level
            | None -> max_int)
          | None -> max_int)
      in
      (* scratch signed count deltas of the round being enumerated;
         [dec_touched] accumulates every tuple that lost a derivation —
         the backward phase's suspect pool (recursive comps only; a
         tuple with surviving exit support never needs the check).
         [sct]/[dec] parameterize the targets so shard jobs can fill
         private buffers; the serial path passes the globals. *)
      let sc : (string, Relation.counts) Hashtbl.t = Hashtbl.create 4 in
      let dec_touched : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
      let bump ~sct ~dec pred exit sign sup tup =
        let c =
          match Hashtbl.find_opt sct pred with
          | Some c -> c
          | None ->
            let c = Relation.counts_create () in
            Hashtbl.add sct pred c;
            c
        in
        let cell = Relation.count_cell c tup in
        if exit then cell.Relation.exits <- cell.Relation.exits + sign
        else cell.Relation.recs <- cell.Relation.recs + sign;
        (* index attribution. The canonical store is frozen while a
           round enumerates, so the encoding branches on whether the
           tuple already has a canonical cell: existing cells
           accumulate a signed [low] delta (scratch [level] stays
           [max_int]; the merge treats equal levels additively), while
           an uncelled tuple is a newborn candidate — scratch [level]
           takes the least candidate level seen this round (0 for an
           exit derivation, supporter + 1 for a leveled linear one)
           and [low] counts the recursive derivations attaining it. *)
        (match canon_cell pred tup with
        | Some ccell ->
          if (not exit) && sup < ccell.Relation.level then
            cell.Relation.low <- cell.Relation.low + sign
        | None ->
          if sign > 0 then
            if exit then begin
              if cell.Relation.level > 0 then begin
                cell.Relation.level <- 0;
                cell.Relation.low <- 0
              end
            end
            else if sup < max_int then begin
              let cand = sup + 1 in
              if cand < cell.Relation.level then begin
                cell.Relation.level <- cand;
                cell.Relation.low <- 1
              end
              else if cand = cell.Relation.level then
                cell.Relation.low <- cell.Relation.low + 1
            end);
        if sign < 0 && recursive then
          ignore (Relation.add (delta_rel dec pred ~arity:(Array.length tup)) tup)
      in
      let pending_births = ref (Hashtbl.create 4 : (string, Relation.t) Hashtbl.t) in
      let take_births () =
        let b = !pending_births in
        pending_births := Hashtbl.create 4;
        b
      in
      (* Apply a round's net signed deltas to the counts. Deaths (a
         present tuple's total reaching zero) are applied to the store
         immediately and returned for the next cascade round; births
         (positive support for an absent tuple) are only queued — they
         are applied after all deletion-side work, so the backward
         search never sees half-inserted state. Decrements aimed at a
         tuple with no cell are support through something this batch
         already killed: discarded, like the increments such a tuple's
         own count would have carried. *)
      let settle () =
        let deaths : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
        (* merge the scratch [low] delta into a live cell; [low] stays
           within [0, recs] — the clamps only absorb attribution the
           index deliberately undercounts (e.g. a decrement whose birth
           predated the index), never inflate it *)
        let merge_low (cell : Relation.count_cell) dlow =
          let low = cell.Relation.low + dlow in
          let low = if low < 0 then 0 else low in
          cell.Relation.low <-
            (if low > cell.Relation.recs then cell.Relation.recs else low)
        in
        let fresh_cell c tup (dcell : Relation.count_cell) dex drec =
          let cell = Relation.count_cell c tup in
          cell.Relation.exits <- dex;
          cell.Relation.recs <- drec;
          cell.Relation.level <- dcell.Relation.level;
          let l = if dcell.Relation.low < 0 then 0 else dcell.Relation.low in
          cell.Relation.low <- (if l > drec then drec else l)
        in
        Hashtbl.iter
          (fun pred (round_counts : Relation.counts) ->
            let rel = Hashtbl.find heads pred in
            let c = Hashtbl.find counts_of pred in
            let arity = Relation.arity rel in
            Relation.counts_iter
              (fun tup dcell ->
                let dex = dcell.Relation.exits and drec = dcell.Relation.recs in
                if dex <> 0 || drec <> 0 || dcell.Relation.low <> 0 then
                  if Relation.mem rel tup then (
                    match Relation.count_find c tup with
                    | Some cell ->
                      cell.Relation.exits <- cell.Relation.exits + dex;
                      cell.Relation.recs <- cell.Relation.recs + drec;
                      merge_low cell dcell.Relation.low;
                      if Relation.count_total cell <= 0 then begin
                        morgue_put pred tup cell.Relation.level;
                        Relation.count_drop c tup;
                        ignore (Relation.remove rel tup);
                        record_remove d pred ~arity tup;
                        ignore (Relation.add (delta_rel deaths pred ~arity) tup)
                      end
                    | None ->
                      (* present but never counted: a base fact listed
                         for this derived predicate. New derivations
                         attach a cell (with the newborn level the
                         scratch collected); stray decrements are bogus
                         and keep the fact pinned. *)
                      if dex + drec > 0 then fresh_cell c tup dcell dex drec)
                  else
                    match Relation.count_find c tup with
                    | Some cell ->
                      cell.Relation.exits <- cell.Relation.exits + dex;
                      cell.Relation.recs <- cell.Relation.recs + drec;
                      merge_low cell dcell.Relation.low;
                      if Relation.count_total cell <= 0 then begin
                        morgue_put pred tup cell.Relation.level;
                        Relation.count_drop c tup
                      end
                      else
                        ignore (Relation.add (delta_rel !pending_births pred ~arity) tup)
                    | None ->
                      if dex + drec > 0 then begin
                        fresh_cell c tup dcell dex drec;
                        ignore (Relation.add (delta_rel !pending_births pred ~arity) tup)
                      end)
              round_counts)
          sc;
        Hashtbl.reset sc;
        deaths
      in
      (* deterministic per-shard buffer merges, in shard order. For a
         tuple both shards touched the encodings agree (the canonical
         store is frozen while a round enumerates): existing-cell
         entries all carry scratch level [max_int] so their signed
         [low] deltas add; newborn candidates keep the least level and
         sum the [low] contributions attaining it. *)
      let merge_scratch dst_tbl src_tbl =
        Hashtbl.iter
          (fun pred (src : Relation.counts) ->
            let dstc =
              match Hashtbl.find_opt dst_tbl pred with
              | Some c -> c
              | None ->
                let c = Relation.counts_create () in
                Hashtbl.add dst_tbl pred c;
                c
            in
            Relation.counts_iter
              (fun tup scell ->
                let dcell = Relation.count_cell dstc tup in
                dcell.Relation.exits <- dcell.Relation.exits + scell.Relation.exits;
                dcell.Relation.recs <- dcell.Relation.recs + scell.Relation.recs;
                if scell.Relation.level < dcell.Relation.level then begin
                  dcell.Relation.level <- scell.Relation.level;
                  dcell.Relation.low <- scell.Relation.low
                end
                else if scell.Relation.level = dcell.Relation.level then
                  dcell.Relation.low <- dcell.Relation.low + scell.Relation.low)
              src)
          src_tbl
      in
      let merge_dec dst src =
        Hashtbl.iter
          (fun pred r ->
            Relation.iter
              (fun tup ->
                ignore (Relation.add (delta_rel dst pred ~arity:(Array.length tup)) tup))
              r)
          src
      in
      (* a propagation round's sink: scratch counts plus decrement
         touches — the globals when unsharded, fresh per-shard tables
         merged in shard order otherwise *)
      let count_round ~size enumerate =
        fanout_round ~size ~direct:(sc, dec_touched)
          ~private_sink:(fun () ->
            let ((s_sc, s_dec) as sink) = (Hashtbl.create 4, Hashtbl.create 4) in
            (sink, fun () -> merge_scratch sc s_sc; merge_dec dec_touched s_dec))
          enumerate
      in
      (* one in-component cascade round: the delta (this round's deaths
         or births, already applied to the store) drives every rule at
         its in-component positions; [pre] is the pre-round state for
         the late positions. For a linear rule the delta position is
         its only in-component atom, so the witness is the delta tuple
         itself; its level is read at emission time. Only scratch
         counts are written, so the non-deferred executor is safe. *)
      let enumerate_in_comp ~sign ~round ~pre ~sprs ~shard ~work (sct, dec) =
        List.iter
          (fun pr ->
            let r = pr.rule in
            let hpred = r.Ast.head.Ast.pred in
            let lin = linear_pos comp_preds r in
            let supr = ref max_int in
            let witness =
              match lin with
              | Some (w, p) -> Some (w, fun tup -> supr := sup_level p tup)
              | None -> None
            in
            List.iteri
              (fun i lit ->
                match lit with
                | Ast.Pos a when Hashtbl.mem comp_preds a.Ast.pred -> (
                  match Hashtbl.find_opt round a.Ast.pred with
                  | Some delta when Relation.cardinality delta > 0 ->
                    (* in-comp delta position ⇒ recursive rule *)
                    Plan.exec_rule ?witness ?shard ~view:ctx.new_view ~late_view:pre
                      ~delta:(i, delta) ~work
                      ~on_derived:(fun h ->
                        bump ~sct ~dec hpred false sign
                          (if lin = None then max_int else !supr)
                          h)
                      pr.ex
                  | Some _ | None -> ())
                | Ast.Pos _ | Ast.Neg _ | Ast.Cmp _ -> ())
              r.Ast.body)
          sprs
      in
      let cascade_deaths deaths0 =
        phase_begin ();
        let pending = ref deaths0 in
        while tbl_live !pending do
          let round = !pending in
          let pre = overlay_view ~plus:round ~minus:no_overlay ctx.new_view in
          count_round ~size:(round_size round) (enumerate_in_comp ~sign:(-1) ~round ~pre);
          pending := settle ()
        done;
        phase_end Obs.Event.cnt_forward
      in
      (* Backward phase: of the tuples that lost a derivation and
         survived without exit support, decide which still have a
         well-founded derivation. Worklist search: a suspect is hidden,
         then checked goal-directedly — its constants substituted into
         each recursive rule's body, looking for one satisfying match
         in the visible state (exit-supported survivors, upstream
         relations, peers not under suspicion). Exit rules can't prove
         a suspect: exits = 0 means no exit derivation exists, and
         hiding suspects (all same-component) doesn't change exit-rule
         bodies. The suspect pool is every present exits = 0 tuple in
         the component — a superset of any unfounded set, so an
         unfounded cycle cannot prove its members off each other via a
         not-yet-suspected peer: every such peer is itself suspect and
         hidden until resolved. Tuples with exit support are
         well-founded and never enter, which keeps the pool small
         next to DRed's overdeletion on densely supported relations.

         Within the pool the well-founded support index replaces most
         probes with an O(1) check. Suspects resolve in ascending
         cell-level order. A probe failure condemns the suspect and
         debits every consumer derivation the index counted through
         it (the linear-rule matches where it is the strictly-lower-
         level witness) in a side ledger — the condemned tuple's level
         certificate is stale, so consumers must not rely on it. A
         suspect whose [low] minus its debt is positive is proven
         without evaluation: each surviving [low] entry names a
         supporter at a strictly lower level, every strictly-lower
         suspect was already resolved (debts filed) by the drain
         order, so that supporter is either outside the pool or
         proven, and induction on levels grounds the chain in exit
         support. The debt can overshoot when [low] undercounted —
         that costs a probe, never soundness.

         Peers whose probe failed only because a later-proven suspect
         was hidden at the time re-prove in a post-drain retry sweep
         that repeats until a pass removes nothing. What survives
         unproven is supported only through the failed set itself —
         an unfounded cycle — and is removed, its counts discarded.
         Because every proof rests only on visible tuples (resolved-
         proven or exit-supported, neither of which the removal can
         kill), one backward round per batch suffices — see the drain
         site for the cascade argument. *)
      let head_env (r : Ast.rule) tup =
        let env = ref [] and ok = ref true in
        List.iteri
          (fun i t ->
            if !ok then
              match t with
              | Ast.Var v -> (
                match List.assoc_opt v !env with
                | Some x -> if x <> tup.(i) then ok := false
                | None -> env := (v, tup.(i)) :: !env)
              | Ast.Const c ->
                if Symbol.const_of ctx.symbols tup.(i) <> c then ok := false
              | Ast.Agg _ -> ok := false)
          r.Ast.head.Ast.args;
        if !ok then Some !env else None
      in
      let rec_prs = List.filter (fun pr -> rec_rule pr.rule) prs in
      (* goal-directed body order, fixed once per component: positives
         ascending by live cardinality so the probe hits the small
         relation first (edge before path, in transitive-closure
         terms); negations and comparisons last — range restriction
         binds their variables once every positive has run. The head
         bindings seed the matcher's environment as interned codes, so
         bound atoms resolve by index probe or O(1) membership. *)
      let probe_prs =
        let sorted pr =
          let pos, rest =
            List.partition (function Ast.Pos _ -> true | _ -> false) pr.rule.Ast.body
          in
          let key = function
            | Ast.Pos a -> ctx.card a.Ast.pred
            | Ast.Neg _ | Ast.Cmp _ -> max_int
          in
          List.stable_sort (fun x y -> compare (key x) (key y)) pos @ rest
        in
        List.map (fun pr -> (pr, sorted pr)) rec_prs
      in
      let exception Proved in
      let provable ~hide pred tup =
        List.exists
          (fun (pr, body) ->
            pr.rule.Ast.head.Ast.pred = pred
            &&
            match head_env pr.rule tup with
            | None -> false
            | Some env -> (
              try
                Matcher.eval_body ~symbols:ctx.symbols ~view:hide ~env ~work
                  ~on_env:(fun _ -> raise Proved)
                  body;
                false
              with Proved -> true))
          probe_prs
      in
      let o1_hits = ref 0 and full_probes = ref 0 in
      (* linear recursive rules with their in-component atom position:
         the only derivations the level index counts, hence the only
         ones a condemnation needs to debit *)
      let lin_prs =
        List.filter_map
          (fun pr ->
            if rec_rule pr.rule then
              match linear_pos comp_preds pr.rule with
              | Some (i, p) -> Some (pr, i, p)
              | None -> None
            else None)
          prs
      in
      let backward_prove () =
        let cell_of pred tup = Relation.count_find (Hashtbl.find counts_of pred) tup in
        (* trigger: some present tuple lost a derivation this round and
           is left without exit support — only then can anything have
           become unfounded. The scan is O(touched). *)
        let triggered = ref false in
        Hashtbl.iter
          (fun pred srel ->
            if not !triggered then
              let rel = Hashtbl.find heads pred in
              Relation.iter
                (fun tup ->
                  if (not !triggered) && Relation.mem rel tup then
                    match cell_of pred tup with
                    | Some cell when cell.Relation.exits = 0 -> triggered := true
                    | Some _ | None -> ())
                srel)
          dec_touched;
        Hashtbl.reset dec_touched;
        if not !triggered then None
        else begin
          (* suspect pool: every present tuple without exit support in
             the component — a superset of whatever is actually
             unfounded, so no consumer closure is needed to catch
             cycles that vouch for themselves through a not-yet-
             suspected peer. Enumerating consumers of each suspect
             (a join per cone member) used to dominate the phase;
             pool admission here is one cell inspection per tuple.

             Only probe-needing suspects materialize in the worklist:
             a tuple the index vouches for ([low - debt > 0]) is
             proven by its cell alone and never allocates an entry —
             the bulk of the pool, so the scan is field tests over
             the count table and nothing else. Initially that admits
             exactly the [low = 0] suspects; when a condemnation's
             debits exhaust a consumer's [low], the consumer joins
             its level bucket dynamically (always strictly above the
             drain frontier, so ascending order is preserved —
             [pending_levels] keeps the not-yet-drained level set
             sorted). Each entry carries its cell to spare re-hashing
             at resolution. *)
          let module Levels = Set.Make (Int) in
          let buckets :
              (int, (string * Relation.tuple * Relation.count_cell) list ref) Hashtbl.t
              =
            Hashtbl.create 64
          in
          let pending_levels = ref Levels.empty in
          let suspects = ref 0 and probe_admitted = ref 0 in
          let admit pred tup cell =
            incr probe_admitted;
            let lvl = cell.Relation.level in
            (match Hashtbl.find_opt buckets lvl with
            | Some l -> l := (pred, tup, cell) :: !l
            | None -> Hashtbl.replace buckets lvl (ref [ (pred, tup, cell) ]));
            pending_levels := Levels.add lvl !pending_levels
          in
          (* the present-check guards against queued births (in counts,
             not yet in the store); with none pending, counts ⊆ store
             — [settle] drops the cell of anything it removes — and
             the per-tuple membership hash is skipped wholesale *)
          let check_mem = tbl_live !pending_births in
          Hashtbl.iter
            (fun pred c ->
              let rel = Hashtbl.find heads pred in
              Relation.counts_iter
                (fun tup cell ->
                  if cell.Relation.exits = 0 && ((not check_mem) || Relation.mem rel tup)
                  then begin
                    incr suspects;
                    if cell.Relation.low = 0 then admit pred tup cell
                  end)
                c)
            counts_of;
          (* debts are filed straight into the consumer's cell ([debt]
             field): [low - debt] is the count of index entries still
             safe to rely on, read as field arithmetic — no side-ledger
             hashing on the O(1) path. [debited] remembers every
             touched cell so the debts are unwound before returning;
             cells persist across batches and must come back clean. *)
          let debited : Relation.count_cell list ref = ref [] in
          let condemned : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
          let condemn pred tup lvl =
            (* first failure only: debit every consumer derivation the
               level index counted through this tuple (linear rules
               where it is the strictly-lower-level witness). A level
               of max_int never entered any [low], so there is nothing
               to debit. *)
            if
              lvl < max_int
              && Relation.add (delta_rel condemned pred ~arity:(Array.length tup)) tup
            then begin
              let singleton = Relation.create ~arity:(Array.length tup) in
              ignore (Relation.add singleton tup);
              List.iter
                (fun (pr, i, p) ->
                  if p = pred then
                    let hpred = pr.rule.Ast.head.Ast.pred in
                    Plan.exec_rule ~view:ctx.new_view ~delta:(i, singleton) ~work
                      ~on_derived:(fun h ->
                        match cell_of hpred h with
                        | Some hc
                          when lvl < hc.Relation.level && hc.Relation.exits = 0 ->
                          if hc.Relation.debt = 0 then debited := hc :: !debited;
                          hc.Relation.debt <- hc.Relation.debt + 1;
                          (* the debit that exhausts [low] turns an
                             index-vouched consumer into a probe case:
                             it joins its level bucket now (its level is
                             strictly above the frontier). Pending
                             births carry cells but are absent from the
                             store and must stay out of the pool. *)
                          if
                            hc.Relation.debt = hc.Relation.low
                            && ((not check_mem)
                               || Relation.mem (Hashtbl.find heads hpred) h)
                          then admit hpred (Array.copy h) hc
                        | Some _ | None -> ())
                      pr.ex)
                lin_prs
            end
          in
          (* frontier visibility. The pool is never materialized as a
             hidden-tuple relation: a suspect's fate is read straight
             off its cell against the drain frontier, so the O(1) path
             writes nothing at all. With [frontier] at level L:
               - exits > 0, or no cell: visible (never a suspect);
               - level > L: hidden (unresolved — the ascending drain
                 has not reached it);
               - level < L: resolved — hidden iff its probe failed;
               - level = L: its O(1) fate is already stable. Debts
                 against a level-L tuple arise only from condemnations
                 at strictly lower levels, all complete before L
                 drains, so [low] minus debt > 0 here means the tuple
                 *will be* O(1)-proven — visible now, even mid-bucket.
                 Otherwise it is visible only once its probe succeeds
                 ([probe_proven], which retry successes also join —
                 level-max_int tuples have no other route to
                 visibility after the drain parks the frontier there. *)
          let failed : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
          let probe_proven : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
          let frontier = ref min_int in
          let in_tbl tbl pred tup =
            match Hashtbl.find_opt tbl pred with
            | Some r -> Relation.mem r tup
            | None -> false
          in
          (* probes ask about one predicate many times in a row; a
             physical-equality memo spares the string hash per
             candidate the index bucket hands out *)
          let memo_pred = ref "" and memo_counts = ref None in
          let counts_for pred =
            if pred == !memo_pred then !memo_counts
            else begin
              memo_pred := pred;
              memo_counts := Hashtbl.find_opt counts_of pred;
              !memo_counts
            end
          in
          let hidden pred tup =
            match counts_for pred with
            | None -> false
            | Some c -> (
              match Relation.count_find c tup with
              | None -> false
              | Some cell ->
                cell.Relation.exits = 0
                &&
                let lvl = cell.Relation.level in
                if lvl > !frontier then true
                else if lvl < !frontier then in_tbl failed pred tup
                else
                  not
                    (cell.Relation.low - cell.Relation.debt > 0
                    || in_tbl probe_proven pred tup))
          in
          let hide =
            let base = ctx.new_view in
            {
              Matcher.mem =
                (fun p tup -> base.Matcher.mem p tup && not (hidden p tup));
              iter_matching =
                (fun p ~col ~value f ->
                  base.Matcher.iter_matching p ~col ~value (fun t ->
                      if not (hidden p t) then f t));
              iter =
                (fun p f ->
                  base.Matcher.iter p (fun t -> if not (hidden p t) then f t));
            }
          in
          (* drain ascending. Every bucket entry needs its probe — the
             index-vouched majority never entered. A bucket is stable
             while draining: condemnations at level L debit only
             strictly-higher consumers, so dynamic admissions land in
             later buckets (possibly at levels unseen at admission,
             which is why the level set is consulted afresh each
             step). Suspects never admitted are O(1) proofs — counted
             by subtraction, having cost no work at all. *)
          let rec drain () =
            match Levels.min_elt_opt !pending_levels with
            | None -> ()
            | Some lvl ->
              pending_levels := Levels.remove lvl !pending_levels;
              frontier := lvl;
              List.iter
                (fun (pred, tup, cell) ->
                  incr full_probes;
                  if provable ~hide pred tup then
                    ignore
                      (Relation.add
                         (delta_rel probe_proven pred ~arity:(Array.length tup))
                         tup)
                  else begin
                    ignore
                      (Relation.add
                         (delta_rel failed pred ~arity:(Array.length tup))
                         tup);
                    condemn pred tup cell.Relation.level
                  end)
                !(Hashtbl.find buckets lvl);
              drain ()
          in
          drain ();
          o1_hits := !o1_hits + !suspects - !probe_admitted;
          frontier := max_int;
          (* retry sweep: a suspect that failed its probe only because
             a later-proven peer was hidden at the time re-proves here.
             Passes repeat until one removes nothing; what then remains
             is supported only through the failed set itself. The O(1)
             check cannot fire anew — [low] is fixed and debts only
             grow — so these are full probes, counted as such. *)
          let retry = ref true in
          while !retry do
            retry := false;
            let pending = ref [] in
            Hashtbl.iter
              (fun pred u ->
                Relation.iter
                  (fun tup ->
                    let lvl =
                      match cell_of pred tup with
                      | Some c -> c.Relation.level
                      | None -> max_int
                    in
                    pending := (lvl, pred, tup) :: !pending)
                  u)
              failed;
            List.iter
              (fun (_, pred, tup) ->
                let u = Hashtbl.find failed pred in
                if Relation.mem u tup then begin
                  incr full_probes;
                  if provable ~hide pred tup then begin
                    ignore (Relation.remove u tup);
                    ignore
                      (Relation.add
                         (delta_rel probe_proven pred ~arity:(Array.length tup))
                         tup);
                    retry := true
                  end
                end)
              (List.sort compare !pending)
          done;
          let deaths : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
          let any = ref false in
          Hashtbl.iter
            (fun pred u ->
              if Relation.cardinality u > 0 then begin
                any := true;
                let rel = Hashtbl.find heads pred in
                let c = Hashtbl.find counts_of pred in
                let arity = Relation.arity rel in
                Relation.iter
                  (fun tup ->
                    (match Relation.count_find c tup with
                    | Some cell -> morgue_put pred tup cell.Relation.level
                    | None -> ());
                    Relation.count_drop c tup;
                    ignore (Relation.remove rel tup);
                    record_remove d pred ~arity tup;
                    ignore (Relation.add (delta_rel deaths pred ~arity) tup))
                  u
              end)
            failed;
          (* unwind the debts — cells outlive this call *)
          List.iter (fun (c : Relation.count_cell) -> c.Relation.debt <- 0) !debited;
          if !any then Some deaths else None
        end
      in
      let apply_births pending =
        let applied : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
        Hashtbl.iter
          (fun pred r ->
            if Relation.cardinality r > 0 then begin
              let rel = Hashtbl.find heads pred in
              let c = Hashtbl.find counts_of pred in
              let arity = Relation.arity rel in
              Relation.iter
                (fun tup ->
                  (* re-check: support queued earlier may have been
                     cancelled by later decrements *)
                  match Relation.count_find c tup with
                  | Some cell when Relation.count_total cell > 0 ->
                    if Relation.add rel tup then begin
                      record_add d pred ~arity tup;
                      ignore (Relation.add (delta_rel applied pred ~arity) tup)
                    end
                  | Some _ | None -> ())
                r
            end)
          pending;
        applied
      in
      let rec birth_rounds round =
        if tbl_live round then begin
          let pre = overlay_view ~plus:no_overlay ~minus:round ctx.new_view in
          count_round ~size:(round_size round) (enumerate_in_comp ~sign:1 ~round ~pre);
          (* increments only: settle can queue further births but can
             produce no deaths *)
          ignore (settle ());
          birth_rounds (apply_births (take_births ()))
        end
      in
      begin
        (* round 0: propagate the external update's signed deltas.
           Added tuples of a positive literal derive with sign +1 and
           removed with -1; for a negated literal the signs flip and
           the flipped-positive plan ranges over the change. Late
           positions read the old view — comp relations are untouched
           during the round, so old and new agree on them, exactly the
           "externals first" serialization. *)
        phase_begin ();
        let size0 =
          literal_sum (function
            | Ast.Pos a when Hashtbl.mem comp_preds a.Ast.pred -> 0
            | Ast.Pos a | Ast.Neg a ->
              card_of (Hashtbl.find_opt d.added a.Ast.pred)
              + card_of (Hashtbl.find_opt d.removed a.Ast.pred)
            | Ast.Cmp _ -> 0)
        in
        let enumerate_round0 ~sprs ~shard ~work (sct, dec) =
          List.iter
            (fun pr ->
              let r = pr.rule in
              let hpred = r.Ast.head.Ast.pred in
              let exit = not (rec_rule r) in
              (* a recursive rule's in-comp atom is an ordinary Match
                 step here (the delta is external), which is what the
                 witness mechanism is for; flipped plans keep body
                 positions, so the same witness serves them *)
              let lin = linear_pos comp_preds r in
              let supr = ref max_int in
              let witness =
                match lin with
                | Some (w, p) -> Some (w, fun tup -> supr := sup_level p tup)
                | None -> None
              in
              let emit sign h =
                bump ~sct ~dec hpred exit sign
                  (if lin = None then max_int else !supr)
                  h
              in
              List.iteri
                (fun i lit ->
                  match lit with
                  | Ast.Pos a when not (Hashtbl.mem comp_preds a.Ast.pred) ->
                    if nonempty d.added a.Ast.pred then
                      Plan.exec_rule ?witness ?shard ~view:ctx.new_view
                        ~late_view:ctx.old_view
                        ~delta:(i, Hashtbl.find d.added a.Ast.pred)
                        ~work ~on_derived:(emit 1) pr.ex;
                    if nonempty d.removed a.Ast.pred then
                      Plan.exec_rule ?witness ?shard ~view:ctx.new_view
                        ~late_view:ctx.old_view
                        ~delta:(i, Hashtbl.find d.removed a.Ast.pred)
                        ~work
                        ~on_derived:(emit (-1))
                        pr.ex
                  | Ast.Neg a ->
                    if nonempty d.added a.Ast.pred || nonempty d.removed a.Ast.pred
                    then begin
                      let fex = flipped_for pr i in
                      if nonempty d.added a.Ast.pred then
                        Plan.exec_rule ?witness ?shard ~view:ctx.new_view
                          ~late_view:ctx.old_view
                          ~delta:(i, Hashtbl.find d.added a.Ast.pred)
                          ~work
                          ~on_derived:(emit (-1))
                          fex;
                      if nonempty d.removed a.Ast.pred then
                        Plan.exec_rule ?witness ?shard ~view:ctx.new_view
                          ~late_view:ctx.old_view
                          ~delta:(i, Hashtbl.find d.removed a.Ast.pred)
                          ~work ~on_derived:(emit 1) fex
                    end
                  | Ast.Pos _ | Ast.Cmp _ -> ())
                r.Ast.body)
            sprs
        in
        count_round ~size:size0 enumerate_round0;
        let deaths0 = settle () in
        phase_end Obs.Event.cnt_propagate;
        cascade_deaths deaths0;
        if recursive then begin
          phase_begin ();
          let more = backward_prove () in
          phase_end Obs.Event.cnt_backward;
          (match more with
          | None -> ()
          | Some deaths ->
            (* One round suffices. Every surviving suspect's proof was
               checked against visible tuples only — resolved-proven
               peers and exit-supported tuples — and none of those die
               here: the cascade strips exactly the derivations running
               through the removed unfounded set, so each survivor
               keeps its witnessing derivation and a positive count,
               and exit counts are untouched (exit-rule bodies hold no
               component predicates). Nothing new becomes unfounded,
               so the re-verification trigger the cascade accumulates
               is vacuous — drop it. *)
            cascade_deaths deaths;
            Hashtbl.reset dec_touched);
          if traced then begin
            Obs.Ring.emit ring ~kind:Obs.Event.cnt_o1_hit ~a:!o1_hits ~b:comp;
            Obs.Ring.emit ring ~kind:Obs.Event.cnt_full_probe ~a:!full_probes ~b:comp
          end
        end;
        phase_begin ();
        birth_rounds (apply_births (take_births ()));
        phase_end Obs.Event.cnt_forward;
        Hashtbl.iter (fun _ rel -> Relation.counts_sync rel) heads
      end
    in
    (match ctx.strategy.(comp) with
    (* nothing upstream changed ⇒ no deltas can reach this component;
       skipping also avoids rebuilding stale counts nobody needs yet *)
    | Analyze.Counting -> if input_changed then run_phases_counting ()
    | Analyze.Dred -> run_phases_dred ());
    { comp; work = !work; output_changed = members_changed (); input_changed }

(* Every mutation a component's maintenance performs — store writes,
   delta recording, cascade staging — happens on the thread running
   this call (shard crew jobs only fill private buffers; merges run
   here), so one writer scope around the whole body is exactly the
   ownership granularity the sanitizer checks. *)
let process_comp ?ring ?shard_ctx ctx (pc : prepared_comp) =
  if ctx.sanitize then
    Relation.Sanitize.with_writer pc.tag (fun () ->
        process_comp_unsanitized ?ring ?shard_ctx ctx pc)
  else process_comp_unsanitized ?ring ?shard_ctx ctx pc

(* ---- report assembly -------------------------------------------- *)

let assemble_report ctx slots =
  (* components the parallel run never reached are provably untouched
     (no upstream delta, see [apply_parallel]); report them exactly as
     the serial walk would: zero work, nothing changed *)
  let activity =
    Stratify.scc_order ctx.anal
    |> Array.to_list
    |> List.map (fun c ->
           match slots.(c) with
           | Some a -> a
           | None ->
             { comp = c; work = 0; output_changed = false; input_changed = false })
  in
  let changes =
    let tbl = Hashtbl.create 16 in
    Hashtbl.iter
      (fun pred r ->
        if Relation.cardinality r > 0 then
          Hashtbl.replace tbl pred (Relation.cardinality r, 0))
      ctx.d.added;
    Hashtbl.iter
      (fun pred r ->
        if Relation.cardinality r > 0 then begin
          let a = match Hashtbl.find_opt tbl pred with Some (a, _) -> a | None -> 0 in
          Hashtbl.replace tbl pred (a, Relation.cardinality r)
        end)
      ctx.d.removed;
    Hashtbl.fold (fun pred (added, removed) acc -> { pred; added; removed } :: acc) tbl []
    |> List.sort (fun a b -> String.compare a.pred b.pred)
  in
  { changes; activity; analysis = ctx.anal }

(* Tag every relation of every component — the store and its delta
   pair — with the owning component's writer tag, so that any mutation
   from outside that component's [process_comp] scope raises
   {!Relation.Sanitize.Violation}. Tags go on *after* the base updates
   (which legitimately run untagged, on the caller's thread) and come
   off in [with_sanitize]'s finally, leaving the database as reusable
   as the sanitizer found it. *)
let sanitize_tag_all ctx prepared =
  Array.iter
    (fun pc ->
      Array.iter
        (fun p ->
          let name = ctx.anal.Stratify.predicates.(p) in
          (match Database.find ctx.db name with
          | Some rel -> Relation.Sanitize.set_owner rel ~name ~owner:pc.tag
          | None -> ());
          (match Hashtbl.find_opt ctx.d.added name with
          | Some r -> Relation.Sanitize.set_owner r ~name:("+" ^ name) ~owner:pc.tag
          | None -> ());
          match Hashtbl.find_opt ctx.d.removed name with
          | Some r -> Relation.Sanitize.set_owner r ~name:("-" ^ name) ~owner:pc.tag
          | None -> ())
        pc.members)
    prepared

let sanitize_untag_all ctx =
  Array.iter
    (fun name ->
      (match Database.find ctx.db name with
      | Some rel -> Relation.Sanitize.clear_owner rel
      | None -> ());
      (match Hashtbl.find_opt ctx.d.added name with
      | Some r -> Relation.Sanitize.clear_owner r
      | None -> ());
      match Hashtbl.find_opt ctx.d.removed name with
      | Some r -> Relation.Sanitize.clear_owner r
      | None -> ())
    ctx.anal.Stratify.predicates

let with_sanitize ctx prepared f =
  if not ctx.sanitize then f ()
  else begin
    sanitize_tag_all ctx prepared;
    Fun.protect ~finally:(fun () -> sanitize_untag_all ctx) f
  end

let setup ?(shards = 1) ?sanitize ?on_warn ~engine ~maint db program ~additions
    ~deletions =
  let ctx = make_ctx ?sanitize ?on_warn ~engine ~maint db program in
  List.iter (check_edb ctx.anal) additions;
  List.iter (check_edb ctx.anal) deletions;
  apply_base_updates ctx ~additions ~deletions;
  prepare_deltas ctx;
  let n = Dag.Graph.node_count ctx.anal.Stratify.condensation.Dag.Scc.dag in
  (ctx, Array.init n (prepare_comp ~shards ctx))

(* the serial component walk, shared by [apply] and [apply_parallel]'s
   small-update fallback; records DRed phase spans on ring 0 *)
let run_serial_walk ~obs ?shard_ctx ctx prepared =
  let slots = Array.make (Array.length prepared) None in
  let ring = Obs.Trace.ring obs 0 in
  Array.iter
    (fun c -> slots.(c) <- Some (process_comp ~ring ?shard_ctx ctx prepared.(c)))
    (Stratify.scc_order ctx.anal);
  assemble_report ctx slots

let check_maint_engine ~who maint engine =
  match (maint, engine) with
  | Counting, Plan.Interpreted ->
    invalid_arg
      (who
     ^ ": counting maintenance requires the compiled engine (the interpretive \
        oracle has no split-view mode)")
  (* Auto resolves to DRed everywhere under the interpretive engine *)
  | (Counting | Dred | Auto), _ -> ()

let apply ?(engine = Plan.default_engine) ?(maint = Dred) ?sanitize ?on_warn
    ?(obs = Obs.Trace.disabled) db program ~additions ~deletions =
  check_maint_engine ~who:"Incremental.apply" maint engine;
  let ctx, prepared = setup ?sanitize ?on_warn ~engine ~maint db program ~additions ~deletions in
  with_sanitize ctx prepared (fun () -> run_serial_walk ~obs ctx prepared)

(* Build and stamp the counting side tables of every derived component
   against the database's current (materialized) contents — one full-
   join pass per rule. Callers run this once after {!Eval}
   materialization so the first [apply ~maint:Counting] update doesn't
   pay the rebuild inside the measured batch; skipping it is still
   correct, merely slower once. *)
let prime ?(engine = Plan.default_engine) db program =
  check_maint_engine ~who:"Incremental.prime" Counting engine;
  let ctx = make_ctx ~engine ~maint:Counting db program in
  let work = ref 0 in
  Array.iter
    (fun c ->
      let pc = prepare_comp ctx c in
      match pc.body with
      | Extensional | Aggregate_rule _ -> ()
      | Rules prs_by_shard ->
        ignore (recount_comp ctx pc prs_by_shard.(0) ~shards:1 ~view:ctx.new_view ~work);
        Array.iter
          (fun p ->
            match Database.find ctx.db ctx.anal.Stratify.predicates.(p) with
            | Some rel -> Relation.counts_sync rel
            | None -> ())
          pc.members)
    (Stratify.scc_order ctx.anal);
  !work

(* ---- parallel maintenance over the multicore executor -----------

   One executor task per condensation component, running the exact
   serial [process_comp] body. Safety rests on two facts:

   - {e ownership}: a component task writes only its own predicates'
     relations and delta relations (every head predicate of its rules
     is a member); everything it reads — body predicates, through the
     views — is upstream or same-component in the dependency DAG.

   - {e quiescence by precedence}: the executor starts a task only
     after every *activated* ancestor completed. The trace below marks
     every edge changed (which inputs actually changed is only
     discovered as upstream tasks run, so the activation wavefront is
     conservative), hence a task's released state implies each of its
     ancestor chains from the initial set is fully completed: had any
     chain a first-incomplete node, that node would be activated and
     incomplete, and the scheduler would still be holding this task.
     Ancestors outside the wavefront never run and never touch their
     relations. Either way every upstream read observes settled state,
     with happens-before established by the scheduler's lock
     ({!Sched.Protected}) on the release path.

   The serial prologue above freezes all shared structure (plans
   compiled, delta tables pre-created, relations registered); the one
   remaining cross-component write — aggregate tasks interning fresh
   constants — is what {!Symbol}'s internal mutex is for.

   With [shards > 1] each component task additionally fans its phase
   rounds out over a {!Parallel.Shard_crew} (see [process_comp]); the
   crew is created once per update and shared — its entry mutex
   serializes fan-outs from concurrently running component tasks.

   When the conservative activation wavefront holds fewer than
   [serial_threshold] tasks, the executor's domain spawn-and-join
   costs more than the update itself (measured on the wide-48tc bench:
   0.87x at 2 domains for a 96-task trace on a small host); such
   updates run the plain serial walk instead — still sharded when
   [shards > 1]. *)

let serial_task_threshold = 8

(* Static ownership verification: the safety argument of the parallel
   driver — each component task writes only its own predicates, reads
   only upstream ones — checked against the effect sets of the plans
   that will actually run, instead of trusted by construction. Read
   sets come from {!Plan.exec_reads} over the precompiled plan stores
   (base, per-delta, flipped-negation variants), write sets from the
   rule heads; {!Analyze.check_ownership} decides against the
   condensation. Aggregate components have no plans; their single rule
   is checked from its body. *)
let verify_ownership ctx prepared =
  let union_reads acc reads =
    List.fold_left (fun acc p -> if List.mem p acc then acc else p :: acc) acc reads
  in
  Array.fold_left
    (fun acc (pc : prepared_comp) ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
        match pc.body with
        | Extensional -> Ok ()
        | Aggregate_rule r ->
          Analyze.check_ownership ctx.anal ~comp:pc.comp
            ~writes:[ r.Ast.head.Ast.pred ] ~reads:(Plan.body_reads r)
        | Rules prs_by_shard ->
          let writes, reads =
            Array.fold_left
              (fun acc prs ->
                List.fold_left
                  (fun (ws, rs) pr ->
                    let rs = union_reads rs (Plan.exec_reads pr.ex) in
                    let rs =
                      List.fold_left
                        (fun rs (_, fex) -> union_reads rs (Plan.exec_reads fex))
                        rs pr.flipped
                    in
                    let h = pr.rule.Ast.head.Ast.pred in
                    ((if List.mem h ws then ws else h :: ws), rs))
                  acc prs)
              ([], []) prs_by_shard
          in
          Analyze.check_ownership ctx.anal ~comp:pc.comp ~writes ~reads))
    (Ok ()) prepared

let apply_parallel ?(engine = Plan.default_engine) ?(maint = Dred) ?(domains = 4)
    ?(shards = 1) ?(serial_threshold = serial_task_threshold) ?sched ?sanitize
    ?on_warn ?(obs = Obs.Trace.disabled) db program ~additions ~deletions =
  if shards < 1 then invalid_arg "Incremental.apply_parallel: shards < 1";
  check_maint_engine ~who:"Incremental.apply_parallel" maint engine;
  if domains <= 1 && shards <= 1 then
    apply ~engine ~maint ?sanitize ?on_warn ~obs db program ~additions ~deletions
  else begin
    (match engine with
    | Plan.Compiled -> ()
    | Plan.Interpreted ->
      invalid_arg
        "Incremental.apply_parallel: the interpretive oracle is not domain-safe; \
         use the compiled engine");
    let sched = match sched with Some s -> s | None -> Sched.Level_based.factory in
    let ctx, prepared =
      setup ~shards ?sanitize ?on_warn ~engine ~maint db program ~additions ~deletions
    in
    Array.iter precompile_comp prepared;
    with_sanitize ctx prepared @@ fun () ->
    match verify_ownership ctx prepared with
    | Error msg ->
      (* a plan set reaching outside its declared ownership would make
         parallel dispatch unsound: refuse it and run serially, which
         needs no ownership at all *)
      ctx.on_warn
        ("apply_parallel: static ownership verification failed — " ^ msg
       ^ "; refusing parallel dispatch, running the serial walk");
      run_serial_walk ~obs ctx prepared
    | Ok () ->
    let cond = ctx.anal.Stratify.condensation in
    let g = cond.Dag.Scc.dag in
    let n = Dag.Graph.node_count g in
    (* initial tasks: extensional components whose base facts changed *)
    let initial =
      Array.to_list (Array.init n Fun.id)
      |> List.filter (fun c ->
             let members = cond.Dag.Scc.members.(c) in
             Array.for_all (fun p -> ctx.anal.Stratify.edb.(p)) members
             && Array.exists
                  (fun p ->
                    let name = ctx.anal.Stratify.predicates.(p) in
                    nonempty ctx.d.added name || nonempty ctx.d.removed name)
                  members)
      |> Array.of_list
    in
    if Array.length initial = 0 then assemble_report ctx (Array.make n None)
    else begin
      let kind = Array.make n Workload.Trace.Task in
      let shape = Array.make n (Workload.Trace.Seq 1.0) in
      let edge_changed = Array.make (Dag.Graph.edge_count g) true in
      let trace =
        Workload.Trace.create ~name:"dred-parallel" ~graph:g ~kind ~shape ~initial
          ~edge_changed
      in
      (* active tasks under the conservative all-edges-changed
         wavefront — an upper bound on how many component tasks the
         executor could run for this update *)
      let active =
        let s = Workload.Trace.stats trace in
        s.Workload.Trace.initial_tasks + s.Workload.Trace.active_jobs
      in
      let with_shard_ctx f =
        if shards <= 1 then f None
        else begin
          let crew = Parallel.Shard_crew.create ~shards in
          Fun.protect
            ~finally:(fun () -> Parallel.Shard_crew.shutdown crew)
            (fun () ->
              let shard_rings =
                (* crew worker [j] (= shard j, j >= 1) owns the ring
                   after the executor workers' *)
                Array.init shards (fun s ->
                    if s = 0 then Obs.Ring.null
                    else Obs.Trace.ring obs (max 1 domains + s - 1))
              in
              f (Some { crew; nshards = shards; shard_rings }))
        end
      in
      with_shard_ctx (fun shard_ctx ->
          if domains <= 1 || active < serial_threshold then
            run_serial_walk ~obs ?shard_ctx ctx prepared
          else begin
            let slots = Array.make n None in
            let run_task ~wid c =
              slots.(c) <-
                Some
                  (process_comp ~ring:(Obs.Trace.ring obs wid) ?shard_ctx ctx
                     prepared.(c))
            in
            ignore
              (Parallel.Executor.run ~domains ~work_unit:0.0 ~run_task ~obs ~sched
                 trace);
            assemble_report ctx slots
          end)
    end
  end
