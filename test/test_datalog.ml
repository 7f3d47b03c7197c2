(* Datalog engine tests: lexing, parsing, stratification, semi-naive
   evaluation against the naive reference, DRed incremental maintenance
   against from-scratch recomputation (the load-bearing property), and
   the extraction of scheduling traces from updates. *)

let test case name f = Alcotest.test_case name case f

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let parse = Datalog.Parser.parse

let atom = Datalog.Parser.parse_atom

let cardinal db pred =
  match Datalog.Database.find db pred with
  | None -> 0
  | Some r -> Datalog.Relation.cardinality r

(* ---------- Lexer ---------- *)

let lexer_tokens () =
  let toks = Datalog.Lexer.tokenize "p(X, \"a b\") :- q(X), X != 3. % c" in
  let kinds = List.map (fun t -> t.Datalog.Lexer.token) toks in
  check_bool "shape" true
    (kinds
    = [
        Datalog.Lexer.IDENT "p"; LPAREN; VAR "X"; COMMA; STRING "a b"; RPAREN;
        TURNSTILE; IDENT "q"; LPAREN; VAR "X"; RPAREN; COMMA; VAR "X";
        OP Datalog.Ast.Neq; INT 3; PERIOD; EOF;
      ])

let lexer_comments_and_escapes () =
  let toks = Datalog.Lexer.tokenize "// line\n% other\np(\"q\\\"r\\n\")." in
  check_bool "escape handling" true
    (List.exists
       (fun t -> t.Datalog.Lexer.token = Datalog.Lexer.STRING "q\"r\n")
       toks)

let lexer_negative_int () =
  let toks = Datalog.Lexer.tokenize "p(-42)." in
  check_bool "negative int" true
    (List.exists (fun t -> t.Datalog.Lexer.token = Datalog.Lexer.INT (-42)) toks)

let lexer_errors () =
  let bad src =
    match Datalog.Lexer.tokenize src with
    | exception Datalog.Lexer.Error { line; _ } -> check_bool "line >= 1" true (line >= 1)
    | _ -> Alcotest.failf "expected lexer error on %S" src
  in
  bad "p(\"unterminated";
  bad "p :- q, @";
  bad "p : q."

(* ---------- Parser ---------- *)

let parser_fact_and_rule () =
  let prog = parse "e(\"a\", 1).\np(X, Y) :- e(X, Y).\n" in
  check_int "two clauses" 2 (List.length prog);
  check_bool "first is a fact" true (Datalog.Ast.rule_is_fact (List.hd prog))

let parser_negation_and_cmp () =
  let prog = parse "p(X) :- q(X), !r(X), X >= 2." in
  match (List.hd prog).Datalog.Ast.body with
  | [ Datalog.Ast.Pos _; Datalog.Ast.Neg _; Datalog.Ast.Cmp (Datalog.Ast.Ge, _, _) ] -> ()
  | _ -> Alcotest.fail "unexpected body shape"

let parser_zero_arity () =
  let prog = parse "flag.\np(X) :- q(X), flag." in
  check_bool "zero arity fact" true
    ((List.hd prog).Datalog.Ast.head.Datalog.Ast.args = [])

let parser_range_restriction () =
  let bad src =
    match parse src with
    | exception Datalog.Parser.Error _ -> ()
    | _ -> Alcotest.failf "expected rejection: %s" src
  in
  bad "p(X) :- q(Y).";
  bad "p(X) :- !q(X).";
  bad "p(X) :- q(X), Y > 2.";
  bad "p(X)." (* non-ground fact *)

let parser_errors_have_positions () =
  match parse "p(X) :- q(X)" (* missing period *) with
  | exception Datalog.Parser.Error { line; col; _ } ->
    check_bool "position" true (line >= 1 && col >= 1)
  | _ -> Alcotest.fail "expected parse error"

let parser_atom_roundtrip () =
  let a = atom "edge(\"x\", 7)" in
  check_bool "pred" true (a.Datalog.Ast.pred = "edge");
  check_int "arity" 2 (List.length a.Datalog.Ast.args)

let ast_printing_parses_back () =
  let prog =
    parse "e(\"a\",\"b\"). p(X,Z) :- e(X,Y), e(Y,Z), X != Z. q(X) :- e(X,Y), !p(X,Y)."
  in
  let printed = Format.asprintf "%a" Datalog.Ast.pp_program prog in
  let reparsed = parse printed in
  check_bool "round trip" true (prog = reparsed)

(* ---------- Symbols, relations, database ---------- *)

let symbol_interning () =
  let s = Datalog.Symbol.create () in
  let a = Datalog.Symbol.intern s (Datalog.Ast.Sym "x") in
  let b = Datalog.Symbol.intern s (Datalog.Ast.Sym "x") in
  let c = Datalog.Symbol.intern s (Datalog.Ast.Int 5) in
  check_int "stable" a b;
  check_bool "distinct" true (a <> c);
  check_bool "roundtrip" true (Datalog.Symbol.const_of s c = Datalog.Ast.Int 5);
  check_bool "numeric order" true (Datalog.Symbol.compare_codes s c a < 0)

let relation_ops () =
  let r = Datalog.Relation.create ~arity:2 in
  check_bool "add" true (Datalog.Relation.add r [| 1; 2 |]);
  check_bool "dup" false (Datalog.Relation.add r [| 1; 2 |]);
  check_bool "mem" true (Datalog.Relation.mem r [| 1; 2 |]);
  ignore (Datalog.Relation.add r [| 1; 3 |]);
  ignore (Datalog.Relation.add r [| 2; 3 |]);
  check_int "find col 0" 2 (List.length (Datalog.Relation.find r ~col:0 ~value:1));
  check_int "find col 1" 2 (List.length (Datalog.Relation.find r ~col:1 ~value:3));
  check_bool "remove" true (Datalog.Relation.remove r [| 1; 3 |]);
  check_int "index updated" 1 (List.length (Datalog.Relation.find r ~col:0 ~value:1));
  check_bool "remove absent" false (Datalog.Relation.remove r [| 9; 9 |])

(* The tuple hashtbl switched to an FNV-1a hash over the int elements
   with monomorphic equality; add/mem/remove semantics must be exactly
   those of a reference set, including for negative components (the
   hash must stay non-negative) and high-collision key ranges. *)
let relation_hash_semantics () =
  let module Ref = Set.Make (struct
    type t = int list

    let compare = compare
  end) in
  let r = Datalog.Relation.create ~arity:3 in
  let reference = ref Ref.empty in
  let rng = Random.State.make [| 0x5eed |] in
  for _ = 1 to 3000 do
    let tup = Array.init 3 (fun _ -> Random.State.int rng 7 - 3) in
    let key = Array.to_list tup in
    match Random.State.int rng 3 with
    | 0 ->
      check_bool "add agrees" (not (Ref.mem key !reference)) (Datalog.Relation.add r tup);
      reference := Ref.add key !reference
    | 1 ->
      check_bool "remove agrees" (Ref.mem key !reference) (Datalog.Relation.remove r tup);
      reference := Ref.remove key !reference
    | _ -> check_bool "mem agrees" (Ref.mem key !reference) (Datalog.Relation.mem r tup)
  done;
  check_int "final cardinality" (Ref.cardinal !reference) (Datalog.Relation.cardinality r)

let relation_qcheck =
  QCheck.Test.make ~name:"relation: behaves like a set with index" ~count:300
    QCheck.(list (pair bool (pair (int_bound 5) (int_bound 5))))
    (fun ops ->
      let r = Datalog.Relation.create ~arity:2 in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (is_add, (a, b)) ->
          let tup = [| a; b |] in
          if is_add then begin
            let fresh = not (Hashtbl.mem model (a, b)) in
            Hashtbl.replace model (a, b) ();
            Datalog.Relation.add r tup = fresh
          end
          else begin
            let present = Hashtbl.mem model (a, b) in
            Hashtbl.remove model (a, b);
            Datalog.Relation.remove r tup = present
          end
          &&
          (* index agrees with the model on a probe *)
          let expect =
            Hashtbl.fold (fun (x, y) () acc -> if x = a then (x, y) :: acc else acc) model []
          in
          List.length (Datalog.Relation.find r ~col:0 ~value:a) = List.length expect)
        ops)

let database_arity_clash () =
  let db = Datalog.Database.create () in
  ignore (Datalog.Database.relation db "p" ~arity:2);
  Alcotest.check_raises "clash"
    (Invalid_argument "Database: predicate p used with arity 3, declared 2") (fun () ->
      ignore (Datalog.Database.relation db "p" ~arity:3))

let database_facts () =
  let db = Datalog.Database.create () in
  check_bool "add" true (Datalog.Database.add_fact db (atom "e(\"a\",\"b\")"));
  check_bool "dup" false (Datalog.Database.add_fact db (atom "e(\"a\",\"b\")"));
  check_bool "mem" true (Datalog.Database.mem_fact db (atom "e(\"a\",\"b\")"));
  check_bool "remove" true (Datalog.Database.remove_fact db (atom "e(\"a\",\"b\")"));
  check_int "empty" 0 (Datalog.Database.total_tuples db)

(* ---------- Stratification ---------- *)

let strat_simple () =
  let prog = parse "p(X) :- e(X, Y). q(X) :- p(X), !r(X). r(X) :- e(X, X)." in
  let t = Datalog.Stratify.analyze prog in
  check_bool "e is edb" true t.Datalog.Stratify.edb.(Hashtbl.find t.Datalog.Stratify.index_of "e");
  check_bool "p not edb" false
    t.Datalog.Stratify.edb.(Hashtbl.find t.Datalog.Stratify.index_of "p");
  check_bool "q above r" true
    (Datalog.Stratify.stratum t "q" > Datalog.Stratify.stratum t "r")

let strat_recursive_same_stratum () =
  let prog = parse "p(X,Y) :- e(X,Y). p(X,Z) :- p(X,Y), e(Y,Z)." in
  let t = Datalog.Stratify.analyze prog in
  check_int "one stratum" 1 t.Datalog.Stratify.stratum_count

let strat_unstratifiable () =
  let prog = parse "p(X) :- e(X), !q(X). q(X) :- e(X), !p(X)." in
  match Datalog.Stratify.analyze prog with
  | exception Datalog.Stratify.Unstratifiable _ -> ()
  | _ -> Alcotest.fail "expected Unstratifiable"

let strat_negative_self () =
  let prog = parse "p(X) :- e(X), !p(X)." in
  match Datalog.Stratify.analyze prog with
  | exception Datalog.Stratify.Unstratifiable p -> check_bool "names p" true (p = "p")
  | _ -> Alcotest.fail "expected Unstratifiable"

let strat_scc_order_topological () =
  let prog =
    parse
      "a(X) :- e(X). b(X) :- a(X). c(X) :- b(X), a(X). d(X) :- c(X), !b(X)."
  in
  let t = Datalog.Stratify.analyze prog in
  let order = Datalog.Stratify.scc_order t in
  let pos = Array.make t.Datalog.Stratify.condensation.Dag.Scc.count 0 in
  Array.iteri (fun i c -> pos.(c) <- i) order;
  Dag.Graph.iter_edges t.Datalog.Stratify.condensation.Dag.Scc.dag
    (fun ~src ~dst ~eid:_ ->
      check_bool "topological" true (pos.(src) < pos.(dst)))

(* ---------- Evaluation ---------- *)

let tc_program edges =
  let facts =
    List.map (fun (a, b) -> Printf.sprintf "edge(\"n%d\", \"n%d\")." a b) edges
    |> String.concat "\n"
  in
  facts ^ "\npath(X,Y) :- edge(X,Y).\npath(X,Z) :- path(X,Y), edge(Y,Z).\n"

let eval_tc_known () =
  let db = Datalog.Database.create () in
  let _anal, _stats = Datalog.Eval.run db (parse (tc_program [ (0, 1); (1, 2); (2, 3) ])) in
  (* path = all ordered reachable pairs: (0,1)(0,2)(0,3)(1,2)(1,3)(2,3) *)
  check_int "path count" 6 (cardinal db "path")

let eval_cycle_terminates () =
  let db = Datalog.Database.create () in
  let _ = Datalog.Eval.run db (parse (tc_program [ (0, 1); (1, 2); (2, 0) ])) in
  check_int "3x3 pairs" 9 (cardinal db "path")

let eval_negation () =
  let db = Datalog.Database.create () in
  let src =
    tc_program [ (0, 1); (1, 2) ]
    ^ "node(X) :- edge(X, Y).\nnode(Y) :- edge(X, Y).\n\
       unreached(X, Y) :- node(X), node(Y), !path(X, Y), X != Y.\n"
  in
  let _ = Datalog.Eval.run db (parse src) in
  (* pairs: 6 ordered distinct pairs, path holds for (0,1)(0,2)(1,2) -> 3 left *)
  check_int "unreached" 3 (cardinal db "unreached")

let eval_comparisons () =
  let db = Datalog.Database.create () in
  let src = "v(1). v(2). v(3). big(X) :- v(X), X >= 2. pairlt(X,Y) :- v(X), v(Y), X < Y." in
  let _ = Datalog.Eval.run db (parse src) in
  check_int "big" 2 (cardinal db "big");
  check_int "pairs" 3 (cardinal db "pairlt")

let eval_same_generation () =
  let db = Datalog.Database.create () in
  let src =
    "parent(\"r\",\"a\"). parent(\"r\",\"b\"). parent(\"a\",\"c\"). parent(\"b\",\"d\").\n\
     sg(X,Y) :- parent(P,X), parent(P,Y), X != Y.\n\
     sg(X,Y) :- parent(PX,X), sg(PX,PY), parent(PY,Y).\n"
  in
  let _ = Datalog.Eval.run db (parse src) in
  (* a~b (siblings), c~d (cousins): ordered pairs -> 4 *)
  check_int "same generation" 4 (cardinal db "sg")

let random_edges rng n m =
  List.init m (fun _ -> (Prelude.Rng.int rng n, Prelude.Rng.int rng n))
  |> List.filter (fun (a, b) -> a <> b)
  |> List.sort_uniq compare

let eval_seminaive_equals_naive =
  QCheck.Test.make ~name:"eval: semi-naive equals naive on random TC+negation" ~count:60
    QCheck.(pair (2 -- 7) (0 -- 25))
    (fun (n, m) ->
      let rng = Prelude.Rng.create ((n * 100) + m) in
      let edges = random_edges rng n m in
      let src =
        tc_program edges
        ^ "node(X) :- edge(X,Y).\nnode(Y) :- edge(X,Y).\n\
           far(X,Y) :- node(X), node(Y), !path(X,Y), X != Y.\n"
      in
      let prog = parse src in
      let a = Datalog.Database.create () in
      let _ = Datalog.Eval.run a prog in
      let b = Datalog.Database.create () in
      Datalog.Eval.run_naive b prog;
      Datalog.Eval.databases_agree a b = Ok ())

(* ---------- Incremental maintenance (DRed) ---------- *)

(* The load-bearing property: incremental update == from-scratch
   evaluation of the updated fact base, across random updates on
   programs with recursion and stratified negation. *)

let check_incremental program_rules base_facts additions deletions =
  let fact_atoms = List.map atom base_facts in
  let adds = List.map atom additions in
  let dels = List.map atom deletions in
  let rules = parse program_rules in
  (* incremental path *)
  let db = Datalog.Database.create () in
  List.iter (fun a -> ignore (Datalog.Database.add_fact db a)) fact_atoms;
  let _ = Datalog.Eval.run db rules in
  let _report = Datalog.Incremental.apply db rules ~additions:adds ~deletions:dels in
  (* from-scratch path *)
  let scratch = Datalog.Database.create () in
  List.iter (fun a -> ignore (Datalog.Database.add_fact scratch a)) fact_atoms;
  List.iter (fun a -> ignore (Datalog.Database.remove_fact scratch a)) dels;
  List.iter (fun a -> ignore (Datalog.Database.add_fact scratch a)) adds;
  let _ = Datalog.Eval.run scratch rules in
  Datalog.Eval.databases_agree db scratch

let incr_tc_insert () =
  check_bool "ok" true
    (check_incremental
       "path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z)."
       [ "edge(\"a\",\"b\")"; "edge(\"b\",\"c\")" ]
       [ "edge(\"c\",\"d\")" ] []
    = Ok ())

let incr_tc_delete () =
  check_bool "ok" true
    (check_incremental
       "path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z)."
       [ "edge(\"a\",\"b\")"; "edge(\"b\",\"c\")"; "edge(\"a\",\"c\")" ]
       []
       [ "edge(\"b\",\"c\")" ]
    = Ok ())

let incr_rederivation () =
  (* deleting one support must keep facts with alternative derivations *)
  check_bool "ok" true
    (check_incremental
       "path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z)."
       [
         "edge(\"a\",\"b\")"; "edge(\"b\",\"d\")"; "edge(\"a\",\"c\")";
         "edge(\"c\",\"d\")"; "edge(\"d\",\"e\")";
       ]
       []
       [ "edge(\"b\",\"d\")" ]
    = Ok ())

let incr_negation_addition_removes () =
  (* adding a fact under negation must delete derived tuples *)
  check_bool "ok" true
    (check_incremental
       "ok(X) :- cand(X), !banned(X)."
       [ "cand(\"x\")"; "cand(\"y\")"; "banned(\"y\")" ]
       [ "banned(\"x\")" ] []
    = Ok ())

let incr_negation_deletion_adds () =
  check_bool "ok" true
    (check_incremental
       "ok(X) :- cand(X), !banned(X)."
       [ "cand(\"x\")"; "banned(\"x\")" ]
       []
       [ "banned(\"x\")" ]
    = Ok ())

let incr_rejects_intensional () =
  let rules = parse "p(X) :- e(X)." in
  let db = Datalog.Database.create () in
  ignore (Datalog.Database.add_fact db (atom "e(\"a\")"));
  let _ = Datalog.Eval.run db rules in
  match
    Datalog.Incremental.apply db rules ~additions:[ atom "p(\"b\")" ] ~deletions:[]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of intensional update"

let incremental_equals_scratch_qcheck =
  QCheck.Test.make
    ~name:"DRed: incremental equals from-scratch on random graphs and updates"
    ~count:60
    QCheck.(triple (2 -- 6) (0 -- 18) (0 -- 6))
    (fun (n, m, delta) ->
      let rng = Prelude.Rng.create ((n * 7919) + (m * 131) + delta) in
      let edges = random_edges rng n m in
      let base =
        List.map (fun (a, b) -> Printf.sprintf "edge(\"n%d\",\"n%d\")" a b) edges
      in
      let mk () =
        Printf.sprintf "edge(\"n%d\",\"n%d\")" (Prelude.Rng.int rng n)
          (Prelude.Rng.int rng n)
      in
      let adds =
        List.init (Prelude.Rng.int rng (delta + 1)) (fun _ -> mk ())
        |> List.filter (fun s -> not (List.mem s base))
        |> List.sort_uniq compare
      in
      (* avoid self loops in additions *)
      let adds =
        List.filter
          (fun s -> Scanf.sscanf s "edge(\"n%d\",\"n%d\")" (fun a b -> a <> b))
          adds
      in
      let dels =
        List.filteri (fun i _ -> i mod 2 = delta mod 2) base |> List.filteri (fun i _ -> i < delta)
      in
      let rules =
        "path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z).\n\
         node(X) :- edge(X,Y). node(Y) :- edge(X,Y).\n\
         far(X,Y) :- node(X), node(Y), !path(X,Y), X != Y.\n\
         sg(X,Y) :- edge(P,X), edge(P,Y), X != Y.\n\
         sg(X,Y) :- edge(PX,X), sg(PX,PY), edge(PY,Y).\n"
      in
      check_incremental rules base adds dels = Ok ())

let incremental_report_changes () =
  let rules = parse "path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z)." in
  let db = Datalog.Database.create () in
  ignore (Datalog.Database.add_fact db (atom "edge(\"a\",\"b\")"));
  let _ = Datalog.Eval.run db rules in
  let report =
    Datalog.Incremental.apply db rules
      ~additions:[ atom "edge(\"b\",\"c\")" ]
      ~deletions:[]
  in
  let changed p =
    List.exists
      (fun (c : Datalog.Incremental.pred_change) -> c.Datalog.Incremental.pred = p)
      report.Datalog.Incremental.changes
  in
  check_bool "edge changed" true (changed "edge");
  check_bool "path changed" true (changed "path");
  let path_change =
    List.find
      (fun (c : Datalog.Incremental.pred_change) -> c.Datalog.Incremental.pred = "path")
      report.Datalog.Incremental.changes
  in
  (* b->c and a->c appear *)
  check_int "path additions" 2 path_change.Datalog.Incremental.added;
  check_int "path removals" 0 path_change.Datalog.Incremental.removed

let incremental_noop_update () =
  let rules = parse "path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z)." in
  let db = Datalog.Database.create () in
  ignore (Datalog.Database.add_fact db (atom "edge(\"a\",\"b\")"));
  let _ = Datalog.Eval.run db rules in
  let report = Datalog.Incremental.apply db rules ~additions:[] ~deletions:[] in
  check_int "no changes" 0 (List.length report.Datalog.Incremental.changes);
  List.iter
    (fun (a : Datalog.Incremental.comp_activity) ->
      check_bool "nothing flagged" true (not a.Datalog.Incremental.output_changed))
    report.Datalog.Incremental.activity

(* ---------- random-program fuzzing ---------- *)

(* Generate random stratified programs: derived predicates p1..pk, each
   defined by 1-2 rules whose bodies draw positively from the EDB and
   any predicate, and negatively only from strictly lower-indexed
   predicates (stratification by construction, recursion allowed through
   same-index self-reference). All unary/binary over a small domain.
   Bodies may end in a comparison between the two bound variables; with
   [aggregates] the program also folds the EDB and the top predicate
   through fresh aggregate heads (cnt/min/max only — the domain is
   symbols, and sum over symbols is rejected by design). *)
let random_program ?(aggregates = false) rng ~preds =
  let buf = Buffer.create 512 in
  let atom_of ~arity name vars =
    if arity = 1 then Printf.sprintf "%s(%s)" name (List.nth vars 0)
    else Printf.sprintf "%s(%s,%s)" name (List.nth vars 0) (List.nth vars 1)
  in
  let arity = Array.init (preds + 1) (fun _ -> 1 + Prelude.Rng.int rng 2) in
  (* index 0 is the edb predicate "e" with arity 2 *)
  arity.(0) <- 2;
  let pname i = if i = 0 then "e" else Printf.sprintf "p%d" i in
  for i = 1 to preds do
    let nrules = 1 + Prelude.Rng.int rng 2 in
    for _ = 1 to nrules do
      (* head variables *)
      let head_vars = if arity.(i) = 1 then [ "X" ] else [ "X"; "Y" ] in
      (* first body literal: positive, binds X and Y *)
      let first =
        if Prelude.Rng.bool rng || i = 1 then "e(X,Y)"
        else begin
          let j = 1 + Prelude.Rng.int rng i (* <= i: recursion allowed *) in
          if arity.(j) = 2 then atom_of ~arity:2 (pname j) [ "X"; "Y" ]
          else Printf.sprintf "%s(X), e(X,Y)" (pname j)
        end
      in
      let extras = ref [] in
      (* maybe a positive join *)
      if Prelude.Rng.bool rng then begin
        let j = Prelude.Rng.int rng (i + 1) in
        let a =
          if arity.(j) = 2 then atom_of ~arity:2 (pname j) [ "Y"; "Z" ] else
            atom_of ~arity:1 (pname j) [ "Y" ]
        in
        extras := a :: !extras
      end;
      (* maybe a negation on a strictly lower stratum *)
      if i > 1 && Prelude.Rng.bool rng then begin
        let j = 1 + Prelude.Rng.int rng (i - 1) in
        let a =
          if arity.(j) = 2 then atom_of ~arity:2 (pname j) [ "X"; "Y" ]
          else atom_of ~arity:1 (pname j) [ "X" ]
        in
        extras := ("!" ^ a) :: !extras
      end;
      (* maybe a comparison between the two always-bound variables *)
      if Prelude.Rng.bool rng then
        extras :=
          !extras @ [ (if Prelude.Rng.bool rng then "X != Y" else "X < Y") ];
      let head = atom_of ~arity:(arity.(i)) (pname i) head_vars in
      Buffer.add_string buf
        (Printf.sprintf "%s :- %s%s.\n" head first
           (String.concat "" (List.map (fun a -> ", " ^ a) !extras)))
    done
  done;
  if aggregates then begin
    Buffer.add_string buf "agg_deg(X, cnt(Y)) :- e(X,Y).\n";
    let top = pname preds in
    if arity.(preds) = 2 then
      Buffer.add_string buf
        (Printf.sprintf
           "agg_top(X, cnt(Y), max(Y)) :- %s(X,Y).\nagg_all(cnt(X)) :- %s(X,Y).\n"
           top top)
    else
      Buffer.add_string buf
        (Printf.sprintf "agg_all(cnt(X), min(X)) :- %s(X).\n" top)
  end;
  Buffer.contents buf

let fuzz_seminaive_vs_naive =
  QCheck.Test.make ~name:"fuzz: random programs, semi-naive equals naive" ~count:60
    QCheck.(triple (1 -- 4) (0 -- 20) (0 -- 1000))
    (fun (preds, nfacts, seed) ->
      let rng = Prelude.Rng.create ((seed * 31) + (preds * 7) + nfacts) in
      let prog = random_program rng ~preds in
      let facts =
        List.init nfacts (fun _ ->
            Printf.sprintf "e(\"n%d\",\"n%d\").\n" (Prelude.Rng.int rng 5)
              (Prelude.Rng.int rng 5))
        |> String.concat ""
      in
      let src = facts ^ prog in
      let a = Datalog.Database.create () in
      let _ = Datalog.Eval.run a (parse src) in
      let b = Datalog.Database.create () in
      Datalog.Eval.run_naive b (parse src);
      Datalog.Eval.databases_agree a b = Ok ())

let fuzz_incremental_vs_scratch =
  QCheck.Test.make ~name:"fuzz: random programs, incremental equals from-scratch"
    ~count:60
    QCheck.(triple (1 -- 4) (2 -- 18) (0 -- 1000))
    (fun (preds, nfacts, seed) ->
      let rng = Prelude.Rng.create ((seed * 131) + (preds * 17) + nfacts) in
      let prog = random_program rng ~preds in
      let mk () =
        Printf.sprintf "e(\"n%d\",\"n%d\")" (Prelude.Rng.int rng 5)
          (Prelude.Rng.int rng 5)
      in
      let base = List.init nfacts (fun _ -> mk ()) |> List.sort_uniq compare in
      let adds =
        List.init 2 (fun _ -> mk ())
        |> List.sort_uniq compare
        |> List.filter (fun f -> not (List.mem f base))
      in
      let dels = List.filteri (fun i _ -> i < 2) base in
      check_incremental prog base adds dels = Ok ())

(* ---------- compiled plans vs the interpretive oracle ---------- *)

let relation_iter_matching () =
  let r = Datalog.Relation.create ~arity:2 in
  List.iter (fun t -> ignore (Datalog.Relation.add r t)) [ [| 1; 2 |]; [| 1; 3 |]; [| 2; 3 |] ];
  let collect col value =
    let acc = ref [] in
    Datalog.Relation.iter_matching r ~col ~value (fun t -> acc := Array.to_list t :: !acc);
    List.sort compare !acc
  in
  check_bool "col 0 bucket" true (collect 0 1 = [ [ 1; 2 ]; [ 1; 3 ] ]);
  check_bool "col 1 bucket" true (collect 1 3 = [ [ 1; 3 ]; [ 2; 3 ] ]);
  check_bool "empty bucket" true (collect 0 9 = []);
  check_int "fold counts the bucket" 2
    (Datalog.Relation.fold_matching r ~col:0 ~value:1 (fun acc _ -> acc + 1) 0);
  (* find stays a faithful wrapper over the fold *)
  check_int "find agrees" 2 (List.length (Datalog.Relation.find r ~col:0 ~value:1));
  ignore (Datalog.Relation.remove r [| 1; 3 |]);
  check_bool "index updated" true (collect 0 1 = [ [ 1; 2 ] ]);
  check_bool "other bucket updated" true (collect 1 3 = [ [ 2; 3 ] ])

(* Relation iteration walks live hashtable buckets; a callback that
   mutates the iterated relation must be caught by the version tripwire
   rather than silently skipping tuples after a bucket resize. *)
let relation_mutation_tripwire () =
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  let fill () =
    let r = Datalog.Relation.create ~arity:2 in
    for i = 1 to 64 do
      ignore (Datalog.Relation.add r [| 1; i |])
    done;
    r
  in
  let r = fill () in
  let n = ref 65 in
  check_bool "iter rejects add" true
    (raises (fun () ->
         Datalog.Relation.iter
           (fun _ ->
             incr n;
             ignore (Datalog.Relation.add r [| 1; !n |]))
           r));
  let r = fill () in
  let n = ref 65 in
  check_bool "iter_matching rejects add" true
    (raises (fun () ->
         Datalog.Relation.iter_matching r ~col:0 ~value:1 (fun _ ->
             incr n;
             ignore (Datalog.Relation.add r [| 1; !n |]))));
  let r = fill () in
  check_bool "iter_matching rejects remove" true
    (raises (fun () ->
         Datalog.Relation.iter_matching r ~col:0 ~value:1 (fun t ->
             ignore (Datalog.Relation.remove r (Array.copy t)))));
  (* mutating a different relation is fine *)
  let r = fill () in
  let other = Datalog.Relation.create ~arity:2 in
  Datalog.Relation.iter_matching r ~col:0 ~value:1 (fun t ->
      ignore (Datalog.Relation.add other t));
  check_int "cross-relation writes allowed" 64 (Datalog.Relation.cardinality other)

(* A plan's flat environment and head buffer are scratch state: running
   the same plan from inside its own on_derived must raise, not corrupt
   bindings. *)
let plan_reentrant_run_rejected () =
  let db = Datalog.Database.create () in
  List.iter
    (fun s -> ignore (Datalog.Database.add_fact db (atom s)))
    [ "e(\"a\",\"b\")"; "e(\"b\",\"c\")" ];
  let rule = List.hd (parse "h(X,Y) :- e(X,Y).") in
  let symbols = Datalog.Database.symbols db in
  let card = cardinal db in
  let plan = Datalog.Plan.compile ~symbols ~card rule in
  let view = Datalog.Matcher.view_of_db db in
  let work = ref 0 in
  let inner_raised = ref false in
  let outer = ref 0 in
  Datalog.Plan.run ~view ~work
    ~on_derived:(fun _ ->
      incr outer;
      match Datalog.Plan.run ~view ~work ~on_derived:(fun _ -> ()) plan with
      | exception Invalid_argument _ -> inner_raised := true
      | () -> ())
    plan;
  check_bool "reentrant run raises" true !inner_raised;
  check_int "outer run completes" 2 !outer;
  (* the running flag is reset by the guard: the plan stays usable *)
  let again = ref 0 in
  Datalog.Plan.run ~view ~work ~on_derived:(fun _ -> incr again) plan;
  check_int "plan reusable after the reentrancy error" 2 !again

(* Regression: a doubly-recursive rule probes [path] while staging grows
   [path] — with live-bucket iteration and undeferred staging, resizes
   mid-probe silently dropped derivations on cyclic data. The cycle of
   [n] nodes must close to exactly n^2 paths. *)
let eval_recursive_self_join_on_cycle () =
  let n = 48 in
  let facts =
    List.init n (fun i -> Printf.sprintf "edge(\"n%d\",\"n%d\").\n" i ((i + 1) mod n))
    |> String.concat ""
  in
  let src = facts ^ "path(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), path(Z,Y).\n" in
  List.iter
    (fun engine ->
      let db = Datalog.Database.create () in
      let _ = Datalog.Eval.run ~engine db (parse src) in
      check_int "n^2 paths on a cycle" (n * n) (cardinal db "path"))
    [ Datalog.Plan.Compiled; Datalog.Plan.Interpreted ]

(* Same shape under maintenance: deleting a cycle edge overdeletes the
   whole closure and rederives the surviving chain, probing [path] while
   phases A/B mutate it. *)
let incr_recursive_self_join_on_cycle () =
  let n = 24 in
  let base =
    List.init n (fun i -> Printf.sprintf "edge(\"n%d\",\"n%d\")" i ((i + 1) mod n))
  in
  let prog = "path(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), path(Z,Y)." in
  (match check_incremental prog base [] [ List.hd base ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match check_incremental prog base [ "edge(\"n3\",\"n0\")" ] [ List.nth base 1 ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* Run one compiled plan (with a delta literal, exercising reordering,
   probe elision and the scratch head buffer) directly against the
   interpreter on the same rule and view. *)
let plan_matches_interpreter () =
  let db = Datalog.Database.create () in
  List.iter
    (fun s -> ignore (Datalog.Database.add_fact db (atom s)))
    [
      "e(\"a\",\"b\")"; "e(\"b\",\"c\")"; "e(\"c\",\"d\")"; "e(\"a\",\"d\")";
      "q(\"b\")"; "q(\"c\")";
    ];
  let rule =
    List.hd (parse "h(X,Z) :- e(X,Y), e(Y,Z), q(Y), X != Z.")
  in
  let view = Datalog.Matcher.view_of_db db in
  let delta = Option.get (Datalog.Database.find db "e") in
  let run f =
    let acc = ref [] in
    let work = ref 0 in
    f ~work ~on_derived:(fun t -> acc := Array.to_list t :: !acc);
    List.sort_uniq compare !acc
  in
  List.iter
    (fun pos ->
      let symbols = Datalog.Database.symbols db in
      let card p =
        match Datalog.Database.find db p with
        | Some r -> Datalog.Relation.cardinality r
        | None -> 0
      in
      let plan = Datalog.Plan.compile ~delta:pos ~symbols ~card rule in
      let compiled =
        run (fun ~work ~on_derived ->
            Datalog.Plan.run ~delta ~view ~work ~on_derived plan)
      in
      let interpreted =
        run (fun ~work ~on_derived ->
            Datalog.Matcher.eval_rule ~symbols ~view ~delta:(pos, delta) ~work
              ~on_derived rule)
      in
      check_bool
        (Printf.sprintf "delta position %d agrees" pos)
        true
        (compiled = interpreted && compiled <> []))
    [ 0; 1 ]

(* The satellite acceptance property: randomized programs exercising
   recursion, negation, comparisons and aggregates produce identical
   databases under both engines — after materialization and after each
   of several randomized insert/retract batches applied to twin
   databases. *)
let engine_differential_qcheck =
  QCheck.Test.make
    ~name:"engines: compiled equals interpreter under materialization and updates"
    ~count:120
    QCheck.(triple (1 -- 4) (0 -- 18) (0 -- 10_000))
    (fun (preds, nfacts, seed) ->
      let rng = Prelude.Rng.create ((seed * 523) + (preds * 19) + nfacts) in
      let prog_src = random_program ~aggregates:true rng ~preds in
      let program = parse prog_src in
      let mk () =
        Printf.sprintf {|e("n%d","n%d")|} (Prelude.Rng.int rng 5)
          (Prelude.Rng.int rng 5)
      in
      let base = List.init nfacts (fun _ -> mk ()) |> List.sort_uniq compare in
      let load () =
        let db = Datalog.Database.create () in
        List.iter (fun f -> ignore (Datalog.Database.add_fact db (atom f))) base;
        db
      in
      let dbc = load () and dbi = load () in
      let _ = Datalog.Eval.run ~engine:Datalog.Plan.Compiled dbc program in
      let _ = Datalog.Eval.run ~engine:Datalog.Plan.Interpreted dbi program in
      let ok = ref (Datalog.Eval.databases_agree dbc dbi = Ok ()) in
      for _ = 1 to 3 do
        let adds = List.init (Prelude.Rng.int rng 3) (fun _ -> atom (mk ())) in
        (* deletions may name absent facts: a no-op for both engines *)
        let dels = List.init (Prelude.Rng.int rng 2) (fun _ -> atom (mk ())) in
        ignore
          (Datalog.Incremental.apply ~engine:Datalog.Plan.Compiled dbc program
             ~additions:adds ~deletions:dels);
        ignore
          (Datalog.Incremental.apply ~engine:Datalog.Plan.Interpreted dbi program
             ~additions:adds ~deletions:dels);
        ok := !ok && Datalog.Eval.databases_agree dbc dbi = Ok ()
      done;
      !ok)

(* ---------- Parallel maintenance (apply_parallel) ---------- *)

(* The parallel-maintenance acceptance property: running the DRed
   component tasks on the multicore executor at any domain count
   restores exactly the serial database and reports the same net
   changes and the same activation flags. [work] counts are excluded
   on purpose: the rederive fixpoint's round structure depends on
   hash-iteration order, which parallel interning perturbs. *)
let parallel_differential_qcheck =
  QCheck.Test.make
    ~name:"parallel maintenance equals serial apply at 1/2/4 domains"
    ~count:100
    QCheck.(triple (1 -- 4) (0 -- 18) (0 -- 10_000))
    (fun (preds, nfacts, seed) ->
      let rng = Prelude.Rng.create ((seed * 911) + (preds * 23) + nfacts) in
      let prog_src = random_program ~aggregates:true rng ~preds in
      let program = parse prog_src in
      let mk () =
        Printf.sprintf {|e("n%d","n%d")|} (Prelude.Rng.int rng 5)
          (Prelude.Rng.int rng 5)
      in
      let base = List.init nfacts (fun _ -> mk ()) |> List.sort_uniq compare in
      let load () =
        let db = Datalog.Database.create () in
        List.iter (fun f -> ignore (Datalog.Database.add_fact db (atom f))) base;
        let _ = Datalog.Eval.run ~engine:Datalog.Plan.Compiled db program in
        db
      in
      let flags r =
        List.map
          (fun (a : Datalog.Incremental.comp_activity) ->
            (a.Datalog.Incremental.comp, a.Datalog.Incremental.output_changed,
             a.Datalog.Incremental.input_changed))
          r.Datalog.Incremental.activity
      in
      let serial = load () in
      let twins = List.map (fun d -> (d, load ())) [ 1; 2; 4 ] in
      let ok = ref true in
      for _ = 1 to 3 do
        let adds = List.init (Prelude.Rng.int rng 3) (fun _ -> atom (mk ())) in
        let dels = List.init (Prelude.Rng.int rng 2) (fun _ -> atom (mk ())) in
        let r0 =
          Datalog.Incremental.apply ~engine:Datalog.Plan.Compiled serial program
            ~additions:adds ~deletions:dels
        in
        List.iter
          (fun (domains, db) ->
            let r =
              Datalog.Incremental.apply_parallel ~engine:Datalog.Plan.Compiled
                ~domains db program ~additions:adds ~deletions:dels
            in
            ok := !ok && Datalog.Eval.databases_agree serial db = Ok ();
            ok := !ok && r.Datalog.Incremental.changes = r0.Datalog.Incremental.changes;
            ok := !ok && flags r = flags r0)
          twins
      done;
      !ok)

let parallel_rejects_interpreter () =
  let program = parse "p(X,Y) :- e(X,Y). e(\"a\",\"b\")." in
  let db = Datalog.Database.create () in
  let _ = Datalog.Eval.run db program in
  match
    Datalog.Incremental.apply_parallel ~engine:Datalog.Plan.Interpreted ~domains:2
      db program ~additions:[ atom {|e("b","c")|} ] ~deletions:[]
  with
  | _ -> Alcotest.fail "interpreted engine must be rejected at domains > 1"
  | exception Invalid_argument _ -> ()

(* ---------- Sharded maintenance (apply_parallel ~shards) ---------- *)

(* The sharding acceptance property: maintenance fanned out over any
   shards x domains grid restores exactly the serial database, net
   changes, and activation flags. [serial_threshold:0] forces the
   domains > 1 configurations onto the executor so the crew runs under
   concurrent component tasks; the (1, 4) configuration keeps the
   default threshold, exercising the small-update serial fallback. *)
let sharded_differential_qcheck =
  QCheck.Test.make
    ~name:"sharded maintenance equals serial apply over the shards x domains grid"
    ~count:100
    QCheck.(triple (1 -- 4) (0 -- 18) (0 -- 10_000))
    (fun (preds, nfacts, seed) ->
      let rng = Prelude.Rng.create ((seed * 977) + (preds * 29) + nfacts) in
      let prog_src = random_program ~aggregates:true rng ~preds in
      let program = parse prog_src in
      let mk () =
        Printf.sprintf {|e("n%d","n%d")|} (Prelude.Rng.int rng 5)
          (Prelude.Rng.int rng 5)
      in
      let base = List.init nfacts (fun _ -> mk ()) |> List.sort_uniq compare in
      let load () =
        let db = Datalog.Database.create () in
        List.iter (fun f -> ignore (Datalog.Database.add_fact db (atom f))) base;
        let _ = Datalog.Eval.run ~engine:Datalog.Plan.Compiled db program in
        db
      in
      let flags r =
        List.map
          (fun (a : Datalog.Incremental.comp_activity) ->
            (a.Datalog.Incremental.comp, a.Datalog.Incremental.output_changed,
             a.Datalog.Incremental.input_changed))
          r.Datalog.Incremental.activity
      in
      let grid = [ (2, 1, Some 0); (4, 1, None); (2, 2, Some 0); (4, 4, Some 0); (1, 4, None) ] in
      let serial = load () in
      let twins = List.map (fun cfg -> (cfg, load ())) grid in
      let ok = ref true in
      for _ = 1 to 3 do
        let adds = List.init (Prelude.Rng.int rng 3) (fun _ -> atom (mk ())) in
        let dels = List.init (Prelude.Rng.int rng 2) (fun _ -> atom (mk ())) in
        let r0 =
          Datalog.Incremental.apply ~engine:Datalog.Plan.Compiled serial program
            ~additions:adds ~deletions:dels
        in
        List.iter
          (fun ((shards, domains, serial_threshold), db) ->
            (* sanitize:true on every parallel twin: the write-set
               sanitizer must be inert on safe runs — bit-identical
               results, no violations, across the whole grid *)
            let r =
              Datalog.Incremental.apply_parallel ~engine:Datalog.Plan.Compiled
                ~shards ~domains ?serial_threshold ~sanitize:true db program
                ~additions:adds ~deletions:dels
            in
            ok := !ok && Datalog.Eval.databases_agree serial db = Ok ();
            ok := !ok && r.Datalog.Incremental.changes = r0.Datalog.Incremental.changes;
            ok := !ok && flags r = flags r0)
          twins
      done;
      !ok)

(* A sharded round really reaches the crew, and its merge is
   deterministic, not merely set-equal. Under both engines at shards:4,
   an update that merges three 4-cycles into one SCC passes the fan-out
   gate (shard spans recorded), two runs of it produce every relation
   in the same insertion (iteration) order — the coordinator merges the
   per-shard sinks in shard order behind the crew barrier — and the
   database equals serial [apply]'s. A one-edge update stays below the
   gate: no shard span, same database as serial. *)
let sharded_merge_deterministic () =
  let program =
    parse
      "path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z).\n\
       reach(X) :- path(X,Y)."
  in
  let base =
    List.init 24 (fun i ->
        Printf.sprintf {|edge("n%d","n%d")|} (i mod 12) ((i * 5 + 1) mod 12))
    |> List.sort_uniq compare
  in
  let load () =
    let db = Datalog.Database.create () in
    List.iter (fun f -> ignore (Datalog.Database.add_fact db (atom f))) base;
    let _ = Datalog.Eval.run ~engine:Datalog.Plan.Compiled db program in
    db
  in
  let dump db =
    List.map
      (fun pred ->
        match Datalog.Database.find db pred with
        | None -> (pred, [])
        | Some rel -> (pred, List.map Array.to_list (Datalog.Relation.to_list rel)))
      [ "edge"; "path"; "reach" ]
  in
  let big =
    ( List.map atom
        [ {|edge("n3","n0")|}; {|edge("n12","n1")|}; {|edge("n7","n2")|};
          {|edge("n11","n3")|} ],
      [ atom {|edge("n0","n1")|} ] )
  in
  let small = ([ atom {|edge("n12","n1")|} ], []) in
  let domains = 2 and shards = 4 in
  let run ~maint (additions, deletions) =
    (* crew worker [s] >= 1 records on ring [domains + s - 1] *)
    let obs = Obs.Trace.create ~domains:(domains + shards - 1) () in
    let db = load () in
    ignore
      (Datalog.Incremental.apply_parallel ~engine:Datalog.Plan.Compiled ~maint ~shards
         ~domains ~serial_threshold:0 ~obs db program ~additions ~deletions);
    let spans = ref 0 in
    for w = 0 to domains + shards - 2 do
      Obs.Ring.iter (Obs.Trace.ring obs w) (fun ~kind ~t_ns:_ ~a:_ ~b:_ ->
          if kind = Obs.Event.shard then incr spans)
    done;
    (db, !spans)
  in
  List.iter
    (fun (name, maint) ->
      let serial (additions, deletions) =
        let db = load () in
        ignore
          (Datalog.Incremental.apply ~engine:Datalog.Plan.Compiled ~maint db program
             ~additions ~deletions);
        db
      in
      let a, spans = run ~maint big in
      let b, _ = run ~maint big in
      check_bool (name ^ ": fanned-out rounds reach the crew") true (spans > 0);
      check_bool (name ^ ": identical iteration order across runs") true
        (dump a = dump b);
      check_bool (name ^ ": sharded equals serial") true
        (Datalog.Eval.databases_agree (serial big) a = Ok ());
      let c, spans = run ~maint small in
      check_int (name ^ ": one-edge update stays below the gate") 0 spans;
      check_bool (name ^ ": small sharded equals serial") true
        (Datalog.Eval.databases_agree (serial small) c = Ok ()))
    [ ("dred", Datalog.Incremental.Dred); ("counting", Datalog.Incremental.Counting) ]

(* The task-count fallback: a small update on [domains > 1] skips the
   executor entirely (no task spans recorded), unless the threshold is
   forced to zero. *)
let sharded_fallback_serial () =
  let program =
    parse "path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z)."
  in
  let load () =
    let db = Datalog.Database.create () in
    ignore (Datalog.Database.add_fact db (atom {|edge("a","b")|}));
    let _ = Datalog.Eval.run ~engine:Datalog.Plan.Compiled db program in
    db
  in
  let task_spans ?serial_threshold () =
    let domains = 4 in
    let obs = Obs.Trace.create ~domains () in
    let db = load () in
    ignore
      (Datalog.Incremental.apply_parallel ~engine:Datalog.Plan.Compiled ~domains
         ?serial_threshold ~obs db program
         ~additions:[ atom {|edge("b","c")|} ]
         ~deletions:[]);
    let n = ref 0 in
    for w = 0 to domains - 1 do
      Obs.Ring.iter (Obs.Trace.ring obs w) (fun ~kind ~t_ns:_ ~a:_ ~b:_ ->
          if kind = Obs.Event.task then incr n)
    done;
    !n
  in
  (* the program has 2 components; the default threshold
     (serial_task_threshold = 8) sends the update down the serial walk *)
  check_bool "threshold exceeds wavefront" true
    (Datalog.Incremental.serial_task_threshold > 2);
  check_int "fallback runs no executor tasks" 0 (task_spans ());
  check_bool "forced executor runs tasks" true
    (task_spans ~serial_threshold:0 () > 0)

(* ---------- Counting maintenance (apply ~maint:Counting) ---------- *)

(* The counting acceptance property: maintaining by derivation counts
   restores exactly the database DRed restores — which the DRed suite
   already pins to from-scratch recomputation — with the same net
   changes and activation flags, across multi-batch streams that mix
   insertions with deletions of genuinely live facts. The explicit
   from-scratch twin keeps the oracle independent: a bug shared by both
   engines would still be caught. *)
let counting_differential_qcheck =
  QCheck.Test.make
    ~name:"counting maintenance equals DRed and from-scratch over update streams"
    ~count:120
    QCheck.(triple (1 -- 4) (0 -- 18) (0 -- 10_000))
    (fun (preds, nfacts, seed) ->
      let rng = Prelude.Rng.create ((seed * 1013) + (preds * 37) + nfacts) in
      let prog_src = random_program ~aggregates:true rng ~preds in
      let program = parse prog_src in
      let mk () =
        Printf.sprintf {|e("n%d","n%d")|} (Prelude.Rng.int rng 5)
          (Prelude.Rng.int rng 5)
      in
      let base = List.init nfacts (fun _ -> mk ()) |> List.sort_uniq compare in
      let load facts =
        let db = Datalog.Database.create () in
        List.iter (fun f -> ignore (Datalog.Database.add_fact db (atom f))) facts;
        let _ = Datalog.Eval.run ~engine:Datalog.Plan.Compiled db program in
        db
      in
      let flags r =
        List.map
          (fun (a : Datalog.Incremental.comp_activity) ->
            (a.Datalog.Incremental.comp, a.Datalog.Incremental.output_changed,
             a.Datalog.Incremental.input_changed))
          r.Datalog.Incremental.activity
      in
      let dred = load base and cnt = load base in
      (* half the streams start from primed counts, half force the
         transparent stale rebuild inside the first apply *)
      if Prelude.Rng.bool rng then
        ignore (Datalog.Incremental.prime cnt program);
      let live = ref base in
      let ok = ref true in
      for _ = 1 to 3 do
        let adds =
          List.init (Prelude.Rng.int rng 3) (fun _ -> mk ())
          |> List.sort_uniq compare
          |> List.filter (fun f -> not (List.mem f !live))
        in
        (* deletion-heavy: up to three live facts, plus maybe an absent
           one (a no-op for every engine) *)
        let ndel = min (Prelude.Rng.int rng 4) (List.length !live) in
        let dels =
          List.filteri
            (fun i _ -> i mod (1 + (List.length !live / max 1 ndel)) = 0)
            !live
          |> List.filteri (fun i _ -> i < ndel)
        in
        let dels =
          if Prelude.Rng.bool rng then
            (mk () :: dels) |> List.sort_uniq compare
            |> List.filter (fun f -> List.mem f dels || not (List.mem f !live))
          else dels
        in
        live := List.filter (fun f -> not (List.mem f dels)) !live @ adds;
        let additions = List.map atom adds and deletions = List.map atom dels in
        let r0 =
          Datalog.Incremental.apply ~engine:Datalog.Plan.Compiled
            ~maint:Datalog.Incremental.Dred dred program ~additions ~deletions
        in
        let r =
          Datalog.Incremental.apply ~engine:Datalog.Plan.Compiled
            ~maint:Datalog.Incremental.Counting cnt program ~additions ~deletions
        in
        ok := !ok && Datalog.Eval.databases_agree dred cnt = Ok ();
        ok := !ok && r.Datalog.Incremental.changes = r0.Datalog.Incremental.changes;
        ok := !ok && flags r = flags r0;
        let scratch = load !live in
        ok := !ok && Datalog.Eval.databases_agree scratch cnt = Ok ()
      done;
      !ok)

(* The count invariant: after any maintained stream, every relation's
   derivation counts equal the counts a fresh [prime] computes on a
   from-scratch twin — incremental bookkeeping never drifts from the
   ground truth. *)
let counting_counts_invariant_qcheck =
  (* decode tuples back to atoms: the twin databases intern constants
     in different orders, so raw tuple ints are not comparable *)
  let counts_of db =
    Datalog.Database.predicates db
    |> List.map (fun (name, rel) ->
           let cells =
             match Datalog.Relation.counts_synced rel with
             | None -> None
             | Some c ->
               let acc = ref [] in
               Datalog.Relation.counts_iter
                 (fun tup (cell : Datalog.Relation.count_cell) ->
                   acc :=
                     ( Format.asprintf "%a" Datalog.Ast.pp_atom
                         (Datalog.Database.tuple_to_atom db name tup),
                       cell.exits, cell.recs )
                     :: !acc)
                 c;
               Some (List.sort compare !acc)
           in
           (name, cells))
    |> List.sort compare
  in
  QCheck.Test.make
    ~name:"counting: maintained counts equal a fresh prime of the same database"
    ~count:100
    QCheck.(triple (1 -- 4) (2 -- 18) (0 -- 10_000))
    (fun (preds, nfacts, seed) ->
      let rng = Prelude.Rng.create ((seed * 1117) + (preds * 41) + nfacts) in
      let prog_src = random_program rng ~preds in
      let program = parse prog_src in
      let mk () =
        Printf.sprintf {|e("n%d","n%d")|} (Prelude.Rng.int rng 5)
          (Prelude.Rng.int rng 5)
      in
      let base = List.init nfacts (fun _ -> mk ()) |> List.sort_uniq compare in
      let load facts =
        let db = Datalog.Database.create () in
        List.iter (fun f -> ignore (Datalog.Database.add_fact db (atom f))) facts;
        let _ = Datalog.Eval.run ~engine:Datalog.Plan.Compiled db program in
        db
      in
      let cnt = load base in
      (* prime upfront: components an update never activates keep their
         side tables lazily absent otherwise, which is not drift *)
      ignore (Datalog.Incremental.prime cnt program);
      let live = ref base in
      for _ = 1 to 3 do
        let adds =
          List.init (Prelude.Rng.int rng 3) (fun _ -> mk ())
          |> List.sort_uniq compare
          |> List.filter (fun f -> not (List.mem f !live))
        in
        let dels = List.filteri (fun i _ -> i < Prelude.Rng.int rng 3) !live in
        live := List.filter (fun f -> not (List.mem f dels)) !live @ adds;
        ignore
          (Datalog.Incremental.apply ~engine:Datalog.Plan.Compiled
             ~maint:Datalog.Incremental.Counting cnt program
             ~additions:(List.map atom adds) ~deletions:(List.map atom dels))
      done;
      let scratch = load !live in
      ignore (Datalog.Incremental.prime scratch program);
      counts_of cnt = counts_of scratch)

(* Hand-computed counts on the diamond: path(a,d) is derivable through
   b and through c — two recursive derivations, no exit derivation —
   so deleting one diagonal must decrement it to 1 and keep it alive,
   and deleting the second must kill it. *)
let counting_diamond_counts () =
  let program =
    parse
      {|edge("a","b"). edge("a","c"). edge("b","d"). edge("c","d").
        path(X,Y) :- edge(X,Y).
        path(X,Z) :- path(X,Y), edge(Y,Z).|}
  in
  let db = Datalog.Database.create () in
  let _ = Datalog.Eval.run ~engine:Datalog.Plan.Compiled db program in
  ignore (Datalog.Incremental.prime db program);
  let cell_of x y =
    let rel = Option.get (Datalog.Database.find db "path") in
    match Datalog.Relation.counts_synced rel with
    | None -> None
    | Some c ->
      Datalog.Relation.count_find c
        (Datalog.Database.intern_atom db
           (atom (Printf.sprintf {|path("%s","%s")|} x y)))
  in
  (match cell_of "a" "d" with
  | Some cell ->
    check_int "path(a,d) exits" 0 cell.Datalog.Relation.exits;
    check_int "path(a,d) recs" 2 cell.Datalog.Relation.recs;
    (* first derived on fixpoint round 1, both witnesses at level 0 *)
    check_int "path(a,d) level" 1 cell.Datalog.Relation.level;
    check_int "path(a,d) low" 2 cell.Datalog.Relation.low
  | None -> Alcotest.fail "path(a,d) has no count cell");
  (match cell_of "a" "b" with
  | Some cell ->
    check_int "path(a,b) exits" 1 cell.Datalog.Relation.exits;
    check_int "path(a,b) recs" 0 cell.Datalog.Relation.recs;
    check_int "path(a,b) level" 0 cell.Datalog.Relation.level;
    check_int "path(a,b) low" 0 cell.Datalog.Relation.low
  | None -> Alcotest.fail "path(a,b) has no count cell");
  ignore
    (Datalog.Incremental.apply ~maint:Datalog.Incremental.Counting db program
       ~additions:[] ~deletions:[ atom {|edge("b","d")|} ]);
  check_bool "path(a,d) survives one diagonal" true
    (Datalog.Database.mem_fact db (atom {|path("a","d")|}));
  (match cell_of "a" "d" with
  | Some cell ->
    check_int "path(a,d) recs after delete" 1 cell.Datalog.Relation.recs;
    (* the dead diagonal's index entry dies with it; the survivor's
       stays, and the level is immutable *)
    check_int "path(a,d) level after delete" 1 cell.Datalog.Relation.level;
    check_int "path(a,d) low after delete" 1 cell.Datalog.Relation.low
  | None -> Alcotest.fail "path(a,d) lost its count cell");
  ignore
    (Datalog.Incremental.apply ~maint:Datalog.Incremental.Counting db program
       ~additions:[] ~deletions:[ atom {|edge("c","d")|} ]);
  check_bool "path(a,d) dies at count zero" false
    (Datalog.Database.mem_fact db (atom {|path("a","d")|}));
  check_bool "path(a,d) cell dropped" true (cell_of "a" "d" = None)

(* Interleaving the two algorithms on one database: a DRed update bumps
   the relation versions, so the next counting update must detect the
   stale side tables and rebuild them transparently. *)
let counting_survives_dred_interleaving () =
  let program =
    parse
      {|edge("a","b"). edge("b","c"). edge("c","d"). edge("a","c").
        path(X,Y) :- edge(X,Y).
        path(X,Z) :- path(X,Y), edge(Y,Z).|}
  in
  let load () =
    let db = Datalog.Database.create () in
    let _ = Datalog.Eval.run ~engine:Datalog.Plan.Compiled db program in
    db
  in
  let db = load () and scratch = load () in
  let steps =
    [
      (Datalog.Incremental.Counting, [ {|edge("d","a")|} ], []);
      (Datalog.Incremental.Dred, [], [ {|edge("b","c")|} ]);
      (Datalog.Incremental.Counting, [ {|edge("b","d")|} ], [ {|edge("a","c")|} ]);
    ]
  in
  List.iter
    (fun (maint, adds, dels) ->
      let additions = List.map atom adds and deletions = List.map atom dels in
      ignore (Datalog.Incremental.apply ~maint db program ~additions ~deletions);
      ignore (Datalog.Incremental.apply ~maint:Datalog.Incremental.Dred scratch
                program ~additions ~deletions))
    steps;
  check_bool "interleaved engines agree" true
    (Datalog.Eval.databases_agree scratch db = Ok ())

(* Regression: an unfounded cycle must not survive the backward
   search. After deleting the sole exit fact, p("a") and p("b") support
   only each other through the link cycle; a backward search that
   spreads suspicion lazily (or exempts a cone member off its own stale
   level certificate) proves each off the other and keeps both alive.
   DRed overdeletes and gets this right structurally; counting must
   agree. *)
let counting_unfounded_cycle () =
  let program =
    parse
      {|e0("a"). link("a","b"). link("b","a").
        p(X) :- e0(X).
        p(X) :- p(Y), link(Y,X).|}
  in
  let load () =
    let db = Datalog.Database.create () in
    let _ = Datalog.Eval.run ~engine:Datalog.Plan.Compiled db program in
    db
  in
  let dred = load () and cnt = load () in
  ignore (Datalog.Incremental.prime cnt program);
  let deletions = [ atom {|e0("a")|} ] in
  ignore
    (Datalog.Incremental.apply ~maint:Datalog.Incremental.Dred dred program
       ~additions:[] ~deletions);
  ignore
    (Datalog.Incremental.apply ~maint:Datalog.Incremental.Counting cnt program
       ~additions:[] ~deletions);
  check_bool "p(a) gone" false (Datalog.Database.mem_fact cnt (atom {|p("a")|}));
  check_bool "p(b) gone" false (Datalog.Database.mem_fact cnt (atom {|p("b")|}));
  check_bool "counting agrees with dred" true
    (Datalog.Eval.databases_agree dred cnt = Ok ())

(* The level-index invariant on transitive closure, where the oracle is
   exact: a fresh prime assigns path(x,z) the BFS round of its first
   well-founded derivation (shortest edge count minus one), [exits] is
   the direct edge, [recs] counts the y with path(x,y), edge(y,z), and
   [low] the subset whose prefix sits at a strictly smaller distance.
   After maintained deletions levels are immutable, so the maintained
   cells must still satisfy the conservative reading: counts exact,
   [low] never exceeding the derivations whose witness cell sits at a
   strictly lower level than the head cell. *)
let counting_level_index_qcheck =
  let nodes = 6 in
  let program =
    parse {|path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z).|}
  in
  (* dist.(z) = least edge count of a nonempty x-to-z walk *)
  let dists edges x =
    let dist = Array.make nodes max_int in
    let q = Queue.create () in
    List.iter
      (fun (a, b) ->
        if a = x && dist.(b) = max_int then begin
          dist.(b) <- 1;
          Queue.add b q
        end)
      edges;
    while not (Queue.is_empty q) do
      let y = Queue.pop q in
      List.iter
        (fun (a, b) ->
          if a = y && dist.(b) > dist.(y) + 1 then begin
            dist.(b) <- dist.(y) + 1;
            Queue.add b q
          end)
        edges
    done;
    dist
  in
  let cell_of db x z =
    let rel = Option.get (Datalog.Database.find db "path") in
    match Datalog.Relation.counts_synced rel with
    | None -> None
    | Some c ->
      Datalog.Relation.count_find c
        (Datalog.Database.intern_atom db
           (atom (Printf.sprintf {|path("n%d","n%d")|} x z)))
  in
  let mem_path db x z =
    Datalog.Database.mem_fact db (atom (Printf.sprintf {|path("n%d","n%d")|} x z))
  in
  QCheck.Test.make ~name:"counting: level index obeys the BFS oracle" ~count:100
    QCheck.(pair (4 -- 14) (0 -- 10_000))
    (fun (nedges, seed) ->
      let rng = Prelude.Rng.create ((seed * 733) + nedges) in
      let edges =
        ref
          (List.init nedges (fun _ ->
               (Prelude.Rng.int rng nodes, Prelude.Rng.int rng nodes))
          |> List.sort_uniq compare)
      in
      let db = Datalog.Database.create () in
      List.iter
        (fun (a, b) ->
          ignore
            (Datalog.Database.add_fact db
               (atom (Printf.sprintf {|edge("n%d","n%d")|} a b))))
        !edges;
      let _ = Datalog.Eval.run ~engine:Datalog.Plan.Compiled db program in
      ignore (Datalog.Incremental.prime db program);
      let ok = ref true in
      let check_pair ~exact x z =
        let dist = dists !edges x in
        let reach = Array.map (fun d -> d < max_int) dist in
        let expect = reach.(z) in
        if mem_path db x z <> expect then ok := false;
        match cell_of db x z with
        | None -> if expect then ok := false
        | Some cell ->
          if not expect then ok := false
          else begin
            let exits = if List.mem (x, z) !edges then 1 else 0 in
            let recs =
              List.length (List.filter (fun (y, b) -> b = z && reach.(y)) !edges)
            in
            if cell.Datalog.Relation.exits <> exits then ok := false;
            if cell.Datalog.Relation.recs <> recs then ok := false;
            if exact then begin
              let low =
                List.length
                  (List.filter
                     (fun (y, b) -> b = z && reach.(y) && dist.(y) < dist.(z))
                     !edges)
              in
              if cell.Datalog.Relation.level <> dist.(z) - 1 then ok := false;
              if cell.Datalog.Relation.low <> low then ok := false
            end
            else begin
              (* conservative: [low] counts only derivations whose
                 witness cell sits strictly below this cell's level *)
              let lvl xx yy =
                match cell_of db xx yy with
                | Some c -> c.Datalog.Relation.level
                | None -> max_int
              in
              let bound =
                List.length
                  (List.filter
                     (fun (y, b) -> b = z && mem_path db x y && lvl x y < lvl x z)
                     !edges)
              in
              if cell.Datalog.Relation.low < 0 then ok := false;
              if cell.Datalog.Relation.low > bound then ok := false
            end
          end
      in
      for x = 0 to nodes - 1 do
        for z = 0 to nodes - 1 do
          check_pair ~exact:true x z
        done
      done;
      (* deletion-only stream: levels stay immutable, the conservative
         reading must keep holding on the maintained cells *)
      for _ = 1 to 2 do
        let ndel = min (1 + Prelude.Rng.int rng 3) (List.length !edges) in
        let dels = List.filteri (fun i _ -> i < ndel) !edges in
        edges := List.filter (fun e -> not (List.mem e dels)) !edges;
        ignore
          (Datalog.Incremental.apply ~maint:Datalog.Incremental.Counting db program
             ~additions:[]
             ~deletions:
               (List.map
                  (fun (a, b) ->
                    atom (Printf.sprintf {|edge("n%d","n%d")|} a b))
                  dels));
        for x = 0 to nodes - 1 do
          for z = 0 to nodes - 1 do
            check_pair ~exact:false x z
          done
        done
      done;
      !ok)

(* The sharded grid: counting with sharded count tables must restore
   the same database as serial DRed and as from-scratch recomputation
   at every point of {shards 1, 2, 4} x {domains 1, 2}. *)
let counting_sharded_differential_qcheck =
  QCheck.Test.make
    ~name:"sharded counting equals serial DRed and from-scratch across the grid"
    ~count:100
    QCheck.(triple (1 -- 3) (2 -- 14) (0 -- 10_000))
    (fun (preds, nfacts, seed) ->
      let rng = Prelude.Rng.create ((seed * 911) + (preds * 53) + nfacts) in
      let prog_src = random_program ~aggregates:true rng ~preds in
      let program = parse prog_src in
      let mk () =
        Printf.sprintf {|e("n%d","n%d")|} (Prelude.Rng.int rng 5)
          (Prelude.Rng.int rng 5)
      in
      let base = List.init nfacts (fun _ -> mk ()) |> List.sort_uniq compare in
      let load facts =
        let db = Datalog.Database.create () in
        List.iter (fun f -> ignore (Datalog.Database.add_fact db (atom f))) facts;
        let _ = Datalog.Eval.run ~engine:Datalog.Plan.Compiled db program in
        db
      in
      let grid = [ (1, 1); (2, 1); (4, 1); (1, 2); (2, 2); (4, 2) ] in
      let dred = load base in
      let cnts = List.map (fun cfg -> (cfg, load base)) grid in
      let live = ref base in
      let ok = ref true in
      for _ = 1 to 2 do
        let adds =
          List.init (Prelude.Rng.int rng 3) (fun _ -> mk ())
          |> List.sort_uniq compare
          |> List.filter (fun f -> not (List.mem f !live))
        in
        let ndel = min (Prelude.Rng.int rng 3) (List.length !live) in
        let dels = List.filteri (fun i _ -> i < ndel) !live in
        live := List.filter (fun f -> not (List.mem f dels)) !live @ adds;
        let additions = List.map atom adds and deletions = List.map atom dels in
        ignore
          (Datalog.Incremental.apply ~engine:Datalog.Plan.Compiled
             ~maint:Datalog.Incremental.Dred dred program ~additions ~deletions);
        List.iter
          (fun ((shards, domains), db) ->
            ignore
              (Datalog.Incremental.apply_parallel ~maint:Datalog.Incremental.Counting
                 ~shards ~domains db program ~additions ~deletions))
          cnts;
        let scratch = load !live in
        List.iter
          (fun (_, db) ->
            ok := !ok && Datalog.Eval.databases_agree dred db = Ok ();
            ok := !ok && Datalog.Eval.databases_agree scratch db = Ok ())
          cnts
      done;
      !ok)

let msg_mentions needle msg =
  let nl = String.length needle and hl = String.length msg in
  let rec find i = i + nl <= hl && (String.sub msg i nl = needle || find (i + 1)) in
  find 0

(* Counting is compiled-only: that misuse is still rejected loudly.
   Counting + shards > 1, by contrast, now runs natively — the count
   side tables shard like the tuple stores — with no downgrade
   warning and the same database as the serial walk. *)
let counting_rejects_unsupported () =
  let program = parse "p(X,Y) :- e(X,Y). e(\"a\",\"b\")." in
  let load () =
    let db = Datalog.Database.create () in
    let _ = Datalog.Eval.run db program in
    db
  in
  let db = load () in
  let adds = [ atom {|e("b","c")|} ] in
  (match
     Datalog.Incremental.apply ~engine:Datalog.Plan.Interpreted
       ~maint:Datalog.Incremental.Counting db program ~additions:adds
       ~deletions:[]
   with
  | _ -> Alcotest.fail "interpreted engine must be rejected under counting"
  | exception Invalid_argument _ -> ());
  (* counting + shards > 1: native sharded counting, no warning *)
  let serial = load () in
  ignore
    (Datalog.Incremental.apply ~maint:Datalog.Incremental.Counting serial program
       ~additions:adds ~deletions:[]);
  let warned = ref [] in
  let r =
    Datalog.Incremental.apply_parallel ~maint:Datalog.Incremental.Counting
      ~shards:2 ~on_warn:(fun m -> warned := m :: !warned) db program
      ~additions:adds ~deletions:[]
  in
  check_bool "sharded counting matches the serial database" true
    (Datalog.Eval.databases_agree serial db = Ok ());
  check_bool "sharded counting reports the change" true
    (List.exists
       (fun (c : Datalog.Incremental.pred_change) -> c.Datalog.Incremental.pred = "p")
       r.Datalog.Incremental.changes);
  (match List.rev !warned with
  | [] -> ()
  | l -> Alcotest.failf "expected no downgrade warning, got %d" (List.length l));
  (match Datalog.Incremental.prime ~engine:Datalog.Plan.Interpreted db program with
  | _ -> Alcotest.fail "prime must reject the interpreted engine"
  | exception Invalid_argument _ -> ());
  (* domains > 1 with shards = 1 stays legal: component-level
     parallelism is algorithm-agnostic *)
  ignore
    (Datalog.Incremental.apply_parallel ~maint:Datalog.Incremental.Counting
       ~domains:2 db program ~additions:adds ~deletions:[])

(* ---------- Static analysis (Analyze) ---------- *)

let comp_info t pred =
  match Datalog.Analyze.comp_of_pred t pred with
  | Some c -> t.Datalog.Analyze.comps.(c)
  | None -> Alcotest.failf "no component for %s" pred

let rule_infos t pred =
  Array.to_list t.Datalog.Analyze.rules
  |> List.filter (fun (ri : Datalog.Analyze.rule_info) -> ri.Datalog.Analyze.head = pred)

let analyze_tc_effects () =
  let t =
    Datalog.Analyze.program
      (parse
         {|edge("a","b"). path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z).|})
  in
  let ci = comp_info t "path" in
  check_bool "linear" true (ci.Datalog.Analyze.recursion = Datalog.Analyze.Linear);
  check_int "rules" 2 ci.Datalog.Analyze.rule_count;
  check_int "exit rules" 1 ci.Datalog.Analyze.exit_rules;
  check_bool "reads" true (ci.Datalog.Analyze.reads = [ "edge"; "path" ]);
  check_bool "external reads" true (ci.Datalog.Analyze.external_reads = [ "edge" ]);
  check_bool "writes" true (ci.Datalog.Analyze.writes = [ "path" ]);
  check_bool "deltas" true (ci.Datalog.Analyze.deltas = [ "edge"; "path" ]);
  check_bool "shardable" true ci.Datalog.Analyze.shardable;
  check_bool "advised counting" true
    (ci.Datalog.Analyze.verdict = Datalog.Analyze.Counting);
  (* per-rule effects come from compiled instruction steps *)
  (match rule_infos t "path" with
  | [ exit_rule; rec_rule ] ->
    check_bool "exit plan-derived" true exit_rule.Datalog.Analyze.plan_derived;
    check_bool "exit reads" true (exit_rule.Datalog.Analyze.reads = [ "edge" ]);
    check_int "exit in-comp atoms" 0 exit_rule.Datalog.Analyze.in_comp_pos;
    check_bool "rec reads" true (rec_rule.Datalog.Analyze.reads = [ "edge"; "path" ]);
    check_int "rec in-comp atoms" 1 rec_rule.Datalog.Analyze.in_comp_pos
  | l -> Alcotest.failf "expected two path rules, got %d" (List.length l));
  check_bool "self-verify" true (Datalog.Analyze.verify t = Ok ())

let analyze_same_generation () =
  let t =
    Datalog.Analyze.program
      (parse
         {|flat("a","b"). up("a","b"). down("a","b").
           sg(X,Y) :- flat(X,Y).
           sg(X,Y) :- up(X,A), sg(A,B), down(B,Y).|})
  in
  let ci = comp_info t "sg" in
  check_bool "linear" true (ci.Datalog.Analyze.recursion = Datalog.Analyze.Linear);
  check_bool "reads all three inputs" true
    (ci.Datalog.Analyze.external_reads = [ "down"; "flat"; "up" ]);
  check_bool "advised counting" true
    (ci.Datalog.Analyze.verdict = Datalog.Analyze.Counting)

let analyze_negation_effects () =
  let t =
    Datalog.Analyze.program
      (parse
         {|node("a"). edge("a","b").
           path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z).
           lonely(X) :- node(X), !path(X,X).|})
  in
  let ci = comp_info t "lonely" in
  check_bool "negation recorded" true ci.Datalog.Analyze.has_negation;
  (* the negated predicate shows up in the effect set: it is read by the
     compiled Reject step *)
  check_bool "reads the negated relation" true
    (ci.Datalog.Analyze.reads = [ "node"; "path" ]);
  check_bool "advised dred" true (ci.Datalog.Analyze.verdict = Datalog.Analyze.Dred);
  (match rule_infos t "lonely" with
  | [ ri ] -> check_bool "plan-derived" true ri.Datalog.Analyze.plan_derived
  | l -> Alcotest.failf "expected one lonely rule, got %d" (List.length l))

let analyze_aggregate_effects () =
  let t =
    Datalog.Analyze.program
      (parse {|line("o1","a",3). total(O, sum(N)) :- line(O, I, N).|})
  in
  let ci = comp_info t "total" in
  check_bool "aggregate recorded" true ci.Datalog.Analyze.has_aggregate;
  check_bool "advised dred" true (ci.Datalog.Analyze.verdict = Datalog.Analyze.Dred);
  (* no plan exists for aggregate rules: reads fall back to the AST *)
  (match rule_infos t "total" with
  | [ ri ] ->
    check_bool "ast fallback" true (not ri.Datalog.Analyze.plan_derived);
    check_bool "reads" true (ri.Datalog.Analyze.reads = [ "line" ])
  | l -> Alcotest.failf "expected one total rule, got %d" (List.length l))

let analyze_nonlinear_and_weak_exit () =
  let t =
    Datalog.Analyze.program
      (parse {|e("a","b"). p(X,Y) :- e(X,Y). p(X,Z) :- p(X,Y), p(Y,Z).|})
  in
  let ci = comp_info t "p" in
  check_bool "nonlinear" true (ci.Datalog.Analyze.recursion = Datalog.Analyze.Nonlinear);
  check_bool "nonlinear advised dred" true
    (ci.Datalog.Analyze.verdict = Datalog.Analyze.Dred);
  (* linear but exit-starved: 1 exit rule against 3 recursive ones *)
  let t =
    Datalog.Analyze.program
      (parse
         {|a("x","y"). b("x","y"). c("x","y").
           q(X,Y) :- a(X,Y).
           q(X,Z) :- q(X,Y), a(Y,Z).
           q(X,Z) :- q(X,Y), b(Y,Z).
           q(X,Z) :- q(X,Y), c(Y,Z).|})
  in
  let ci = comp_info t "q" in
  check_bool "linear" true (ci.Datalog.Analyze.recursion = Datalog.Analyze.Linear);
  check_bool "weak exit advised dred" true
    (ci.Datalog.Analyze.verdict = Datalog.Analyze.Dred)

let analyze_check_ownership () =
  let t =
    Datalog.Analyze.program
      (parse {|e("x","x"). a(X) :- e(X,X). b(X) :- a(X).|})
  in
  let anal = t.Datalog.Analyze.anal in
  let comp p = Option.get (Datalog.Analyze.comp_of_pred t p) in
  check_bool "own write, upstream read" true
    (Datalog.Analyze.check_ownership anal ~comp:(comp "b") ~writes:[ "b" ]
       ~reads:[ "a"; "b" ]
    = Ok ());
  (match
     Datalog.Analyze.check_ownership anal ~comp:(comp "a") ~writes:[ "b" ] ~reads:[]
   with
  | Error m -> check_bool "names the foreign write" true (msg_mentions "writes b" m)
  | Ok () -> Alcotest.fail "foreign write must be rejected");
  (match
     Datalog.Analyze.check_ownership anal ~comp:(comp "a") ~writes:[ "a" ]
       ~reads:[ "b" ]
   with
  | Error m -> check_bool "names the downstream read" true (msg_mentions "reads b" m)
  | Ok () -> Alcotest.fail "downstream read must be rejected")

(* ---------- Write-set sanitizer ---------- *)

let sanitizer_catches_violation () =
  let r = Datalog.Relation.create ~arity:1 in
  Datalog.Relation.Sanitize.set_owner r ~name:"path" ~owner:"component 1 [path]";
  (* a mutation outside any writer scope *)
  (match Datalog.Relation.add r [| 1 |] with
  | _ -> Alcotest.fail "expected a violation outside any scope"
  | exception Datalog.Relation.Sanitize.Violation m ->
    check_bool "names relation and owner" true
      (msg_mentions "path" m && msg_mentions "component 1" m));
  (* a mutation from the wrong component's scope — even a no-op write *)
  Datalog.Relation.Sanitize.with_writer "component 2 [q]" (fun () ->
      match Datalog.Relation.remove r [| 1 |] with
      | _ -> Alcotest.fail "expected a violation from a foreign writer"
      | exception Datalog.Relation.Sanitize.Violation m ->
        check_bool "names the offender" true (msg_mentions "component 2" m));
  check_bool "relation untouched" true (Datalog.Relation.cardinality r = 0);
  (* the owner writes fine; clearing the tag disarms the checks *)
  Datalog.Relation.Sanitize.with_writer "component 1 [path]" (fun () ->
      check_bool "owner writes" true (Datalog.Relation.add r [| 1 |]));
  Datalog.Relation.Sanitize.clear_owner r;
  check_bool "untagged writes" true (Datalog.Relation.add r [| 2 |])

let sanitizer_inert_and_cleans_up () =
  let program =
    parse
      {|edge("a","b"). edge("b","c").
        path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z).|}
  in
  let load () =
    let db = Datalog.Database.create () in
    let _ = Datalog.Eval.run db program in
    db
  in
  let plain = load () and armed = load () in
  let adds = [ atom {|edge("c","d")|} ] and dels = [ atom {|edge("a","b")|} ] in
  let r0 = Datalog.Incremental.apply plain program ~additions:adds ~deletions:dels in
  let r =
    Datalog.Incremental.apply ~sanitize:true armed program ~additions:adds
      ~deletions:dels
  in
  check_bool "sanitizer is inert on a safe run" true
    (Datalog.Eval.databases_agree plain armed = Ok ()
    && r.Datalog.Incremental.changes = r0.Datalog.Incremental.changes);
  (* ownership tags are removed before apply returns *)
  let path = Option.get (Datalog.Database.find armed "path") in
  check_bool "tags removed" true (Datalog.Relation.Sanitize.owner path = None)

(* ---------- Auto maintenance (--maint auto) ---------- *)

let auto_differential () =
  let program =
    parse
      {|edge("a","b"). edge("b","c"). edge("c","d"). node("a"). node("d"). node("e").
        path(X,Y) :- edge(X,Y).
        path(X,Z) :- path(X,Y), edge(Y,Z).
        unreachable(X) :- node(X), !path("a",X).
        total(cnt(Y)) :- path("a",Y).|}
  in
  (* the advisor splits the program: counting for the TC component,
     DRed for negation and aggregation *)
  let t = Datalog.Analyze.program program in
  check_bool "path advised counting" true
    ((comp_info t "path").Datalog.Analyze.verdict = Datalog.Analyze.Counting);
  check_bool "unreachable advised dred" true
    ((comp_info t "unreachable").Datalog.Analyze.verdict = Datalog.Analyze.Dred);
  check_bool "total advised dred" true
    ((comp_info t "total").Datalog.Analyze.verdict = Datalog.Analyze.Dred);
  let load () =
    let db = Datalog.Database.create () in
    let _ = Datalog.Eval.run ~engine:Datalog.Plan.Compiled db program in
    db
  in
  let dred = load () and auto = load () and par = load () in
  let rounds =
    [
      ([ {|edge("d","e")|} ], [ {|edge("b","c")|} ]);
      ([ {|node("b")|}; {|edge("b","c")|} ], []);
      ([], [ {|edge("a","b")|}; {|node("e")|} ]);
    ]
  in
  List.iter
    (fun (adds, dels) ->
      let additions = List.map atom adds and deletions = List.map atom dels in
      let r0 =
        Datalog.Incremental.apply ~maint:Datalog.Incremental.Dred dred program
          ~additions ~deletions
      in
      let r =
        Datalog.Incremental.apply ~maint:Datalog.Incremental.Auto auto program
          ~additions ~deletions
      in
      let rp =
        Datalog.Incremental.apply_parallel ~maint:Datalog.Incremental.Auto
          ~domains:2 ~serial_threshold:0 par program ~additions ~deletions
      in
      check_bool "auto equals dred" true
        (Datalog.Eval.databases_agree dred auto = Ok ()
        && r.Datalog.Incremental.changes = r0.Datalog.Incremental.changes);
      check_bool "parallel auto equals dred" true
        (Datalog.Eval.databases_agree dred par = Ok ()
        && rp.Datalog.Incremental.changes = r0.Datalog.Incremental.changes))
    rounds

(* ---------- Aggregates ---------- *)

let agg_db src =
  let db = Datalog.Database.create () in
  let _ = Datalog.Eval.run db (parse src) in
  db

let facts db pred =
  match Datalog.Database.find db pred with
  | None -> []
  | Some r ->
    Datalog.Relation.to_list r
    |> List.map (Datalog.Database.tuple_to_atom db pred)
    |> List.sort compare

let agg_eval_basic () =
  let db =
    agg_db
      {|line("o1","a",3). line("o1","b",2). line("o2","a",5).
        total(O, cnt(I), sum(N)) :- line(O, I, N).
        hi(max(N)) :- line(O, I, N).
        lo(min(N)) :- line(O, I, N).|}
  in
  check_int "groups" 2 (cardinal db "total");
  Alcotest.(check string) "o1 totals" {|total("o1", 2, 5)|}
    (Format.asprintf "%a" Datalog.Ast.pp_atom
       (List.hd (facts db "total")));
  Alcotest.(check string) "max" "hi(5)"
    (Format.asprintf "%a" Datalog.Ast.pp_atom (List.hd (facts db "hi")));
  Alcotest.(check string) "min" "lo(2)"
    (Format.asprintf "%a" Datalog.Ast.pp_atom (List.hd (facts db "lo")))

let agg_distinct_semantics () =
  (* two derivations of the same (group, value) binding count once *)
  let db =
    agg_db
      {|e("x","a",1). f("x","a",1).
        both(K,V) :- e(K,A,V). both(K,V) :- f(K,A,V).
        t(K, sum(V), cnt(V)) :- both(K, V).|}
  in
  Alcotest.(check string) "no double count" {|t("x", 1, 1)|}
    (Format.asprintf "%a" Datalog.Ast.pp_atom (List.hd (facts db "t")))

let agg_min_max_on_symbols () =
  let db = agg_db {|name("b"). name("a"). name("c").
                    first(min(X)) :- name(X). last(max(X)) :- name(X).|} in
  Alcotest.(check string) "min sym" {|first("a")|}
    (Format.asprintf "%a" Datalog.Ast.pp_atom (List.hd (facts db "first")));
  Alcotest.(check string) "max sym" {|last("c")|}
    (Format.asprintf "%a" Datalog.Ast.pp_atom (List.hd (facts db "last")))

let agg_sum_rejects_symbols () =
  match agg_db {|v("x"). s(sum(X)) :- v(X).|} with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of sum over symbols"

let agg_stratified_below_use () =
  (* aggregates over an aggregate work across strata *)
  let db =
    agg_db
      {|e("a",1). e("b",2). e("c",3).
        total(X, sum(N)) :- e(X, N).
        grand(sum(T)) :- total(X, T).|}
  in
  Alcotest.(check string) "two-level fold" "grand(6)"
    (Format.asprintf "%a" Datalog.Ast.pp_atom (List.hd (facts db "grand")));
  (* recursion through an aggregate must be rejected *)
  match
    agg_db
      {|e("a",1). t(sum(N)) :- e2(X,N). e2(X,N) :- e(X,N). e2(X,N) :- e(X,N), t(N).|}
  with
  | exception Datalog.Stratify.Unstratifiable _ -> ()
  | _ -> Alcotest.fail "expected Unstratifiable through aggregate recursion"

let agg_single_rule_enforced () =
  match agg_db {|e("a",1). t(sum(N)) :- e(X,N). t(9).|} with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of multi-rule aggregate"

let agg_body_aggregate_rejected () =
  match parse {|p(X) :- q(sum(X)).|} with
  | exception Datalog.Parser.Error _ -> ()
  | prog -> (
    (* the parser treats body sum(..) as a predicate named sum; ensure
       no aggregate term leaked into the body *)
    match prog with
    | [ r ] ->
      check_bool "parsed as predicate" true
        (List.exists
           (function
             | Datalog.Ast.Pos a -> a.Datalog.Ast.pred = "q"
             | _ -> false)
           r.Datalog.Ast.body)
    | _ -> Alcotest.fail "unexpected parse")

let agg_naive_agrees () =
  let src =
    {|line("o1","a",3). line("o1","b",2). line("o2","a",5). line("o2","b",2).
      total(O, sum(N)) :- line(O, I, N).
      grand(sum(T)) :- total(O, T).|}
  in
  let a = Datalog.Database.create () in
  let _ = Datalog.Eval.run a (parse src) in
  let b = Datalog.Database.create () in
  Datalog.Eval.run_naive b (parse src);
  check_bool "agree" true (Datalog.Eval.databases_agree a b = Ok ())

let agg_incremental_equals_scratch () =
  check_bool "insert+delete" true
    (check_incremental
       {|total(O, cnt(I), sum(N)) :- line(O, I, N).
         grand(sum(T)) :- total(O, C, T).
         busy(O) :- total(O, C, T), C >= 2.|}
       [ {|line("o1","a",3)|}; {|line("o1","b",2)|}; {|line("o2","a",5)|} ]
       [ {|line("o1","c",7)|}; {|line("o3","z",1)|} ]
       [ {|line("o2","a",5)|} ]
    = Ok ())

let agg_naive_qcheck =
  QCheck.Test.make ~name:"aggregates: semi-naive equals naive on random data" ~count:40
    QCheck.(pair (1 -- 4) (0 -- 14))
    (fun (orders, lines) ->
      let rng = Prelude.Rng.create ((orders * 613) + lines) in
      let facts =
        List.init lines (fun _ ->
            Printf.sprintf {|line("o%d","i%d",%d).|} (Prelude.Rng.int rng orders)
              (Prelude.Rng.int rng 5)
              (1 + Prelude.Rng.int rng 9))
        |> String.concat "\n"
      in
      let src =
        facts
        ^ {| total(O, cnt(I), sum(N)) :- line(O, I, N).
             hi(max(N)) :- line(O, I, N).
             grand(sum(T)) :- total(O, C, T). |}
      in
      let a = Datalog.Database.create () in
      let _ = Datalog.Eval.run a (parse src) in
      let b = Datalog.Database.create () in
      Datalog.Eval.run_naive b (parse src);
      Datalog.Eval.databases_agree a b = Ok ())

let agg_incremental_qcheck =
  QCheck.Test.make ~name:"aggregates: incremental equals from-scratch" ~count:40
    QCheck.(triple (1 -- 4) (0 -- 12) (0 -- 4))
    (fun (orders, lines, delta) ->
      let rng = Prelude.Rng.create ((orders * 31) + (lines * 7) + delta) in
      let mk () =
        Printf.sprintf {|line("o%d","i%d",%d)|} (Prelude.Rng.int rng orders)
          (Prelude.Rng.int rng 6)
          (1 + Prelude.Rng.int rng 9)
      in
      let base = List.sort_uniq compare (List.init lines (fun _ -> mk ())) in
      let adds =
        List.sort_uniq compare (List.init delta (fun _ -> mk ()))
        |> List.filter (fun s -> not (List.mem s base))
      in
      let dels = List.filteri (fun i _ -> i < delta) base in
      let rules =
        {|total(O, cnt(I), sum(N)) :- line(O, I, N).
          hi(O, max(N)) :- line(O, I, N).
          grand(sum(T)) :- total(O, C, T).
          busy(O) :- total(O, C, T), C >= 2.|}
      in
      check_incremental rules base adds dels = Ok ())

(* ---------- To_trace ---------- *)

let to_trace_basic () =
  let rules =
    "path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z).\n\
     big(X) :- path(X, Y), path(Y, X)."
  in
  let db = Datalog.Database.create () in
  List.iter
    (fun s -> ignore (Datalog.Database.add_fact db (atom s)))
    [ "edge(\"a\",\"b\")"; "edge(\"b\",\"a\")" ];
  let _ = Datalog.Eval.run db (parse rules) in
  let tt =
    Datalog.To_trace.of_update db (parse rules)
      ~additions:[ atom "edge(\"b\",\"c\")" ]
      ~deletions:[]
  in
  let trace = tt.Datalog.To_trace.trace in
  let s = Workload.Trace.stats trace in
  check_int "one task per component" 3 s.Workload.Trace.nodes;
  check_int "edge component dirty" 1 s.Workload.Trace.initial_tasks;
  check_bool "trace is schedulable" true
    (let r =
       Simulator.Engine.run
         ~config:{ Simulator.Engine.procs = 2; op_cost = 0.0; record_log = true }
         ~sched:Sched.Level_based.factory trace
     in
     Simulator.Validate.check_run trace r = Ok ());
  check_bool "labels name predicates" true
    (Array.exists (fun l -> l = "path") tt.Datalog.To_trace.labels);
  check_bool "node_of_pred finds path" true
    (Datalog.To_trace.node_of_pred tt "path" <> None)

let to_trace_activation_matches_report () =
  let rules =
    "p(X) :- e(X). q(X) :- p(X). r(X) :- f(X). s(X) :- q(X), r(X)."
  in
  let db = Datalog.Database.create () in
  List.iter
    (fun s -> ignore (Datalog.Database.add_fact db (atom s)))
    [ "e(\"a\")"; "f(\"b\")" ];
  let _ = Datalog.Eval.run db (parse rules) in
  (* update touches only e: the f -> r chain must stay inactive *)
  let tt =
    Datalog.To_trace.of_update db (parse rules)
      ~additions:[ atom "e(\"c\")" ]
      ~deletions:[]
  in
  let trace = tt.Datalog.To_trace.trace in
  let active = Workload.Trace.active_set trace in
  let node name = Option.get (Datalog.To_trace.node_of_pred tt name) in
  check_bool "e active" true (Prelude.Bitset.mem active (node "e"));
  check_bool "p active" true (Prelude.Bitset.mem active (node "p"));
  check_bool "r inactive" false (Prelude.Bitset.mem active (node "r"));
  check_bool "f inactive" false (Prelude.Bitset.mem active (node "f"))

(* ---------- Lint ---------- *)

(* The error cases can't go through the parser (it rejects them with a
   bare "not range-restricted"); building the Ast directly is exactly
   the hole Lint covers. *)
let mk_rule head body = { Datalog.Ast.head; body }

let pos p args = Datalog.Ast.Pos { Datalog.Ast.pred = p; args }

let v x = Datalog.Ast.Var x

let codes ds = List.map (fun d -> d.Datalog.Lint.code) ds

let lint_clean_program () =
  let p = parse "path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z)." in
  check_bool "no diagnostics" true (Datalog.Lint.check p = [])

let lint_names_unbound_head_var () =
  let r = mk_rule { Datalog.Ast.pred = "p"; args = [ v "X"; v "Y" ] } [ pos "e" [ v "X" ] ] in
  check_bool "range_restricted agrees" false (Datalog.Ast.range_restricted r);
  match Datalog.Lint.errors (Datalog.Lint.check_rule ~rule_index:0 r) with
  | [ d ] ->
    check_bool "code" true (d.Datalog.Lint.code = "unrestricted-head-variable");
    check_bool "names the variable" true
      (String.length d.Datalog.Lint.message >= 15
      && String.sub d.Datalog.Lint.message 0 15 = "head variable Y");
    check_bool "pred recorded" true (d.Datalog.Lint.pred = "p")
  | ds -> Alcotest.failf "expected exactly one error, got %d" (List.length ds)

let lint_unbound_negation_and_cmp () =
  let r =
    mk_rule
      { Datalog.Ast.pred = "p"; args = [ v "X" ] }
      [
        pos "e" [ v "X" ];
        Datalog.Ast.Neg { Datalog.Ast.pred = "q"; args = [ v "Z" ] };
        Datalog.Ast.Cmp (Datalog.Ast.Lt, v "W", Datalog.Ast.Const (Datalog.Ast.Int 3));
      ]
  in
  check_bool "range_restricted agrees" false (Datalog.Ast.range_restricted r);
  let errs = Datalog.Lint.errors (Datalog.Lint.check_rule ~rule_index:3 r) in
  check_bool "both reported" true
    (List.sort compare (codes errs)
    = [ "unbound-comparison-variable"; "unbound-negated-variable" ]);
  check_bool "rule index kept" true
    (List.for_all (fun d -> d.Datalog.Lint.rule_index = 3) errs)

let lint_body_aggregate () =
  let r =
    mk_rule
      { Datalog.Ast.pred = "p"; args = [ v "X" ] }
      [ pos "e" [ v "X"; Datalog.Ast.Agg (Datalog.Ast.Count, "X") ] ]
  in
  check_bool "range_restricted agrees" false (Datalog.Ast.range_restricted r);
  check_bool "reported" true
    (codes (Datalog.Lint.errors (Datalog.Lint.check_rule ~rule_index:0 r))
    = [ "body-aggregate" ])

let lint_singleton_warning () =
  let p = parse "odd(X) :- edge(X, Unused). fine(X) :- edge(X, _Ignored)." in
  let ds = Datalog.Lint.check p in
  check_bool "no errors" true (Datalog.Lint.errors ds = []);
  match List.filter (fun d -> d.Datalog.Lint.code = "singleton-variable") ds with
  | [ d ] ->
    check_bool "on first rule only" true (d.Datalog.Lint.rule_index = 0);
    check_bool "severity" true (d.Datalog.Lint.severity = Datalog.Lint.Warning)
  | l -> Alcotest.failf "expected exactly one singleton warning, got %d" (List.length l)

let lint_duplicate_rule () =
  (* rules 1 and 2 are alpha-equivalent; rule 3 permutes the body, which
     is a different syntactic rule and must not be flagged *)
  let p =
    parse
      "path(X,Z) :- edge(X,Y), edge(Y,Z). path(A,C) :- edge(A,B), edge(B,C). \
       path(X,Z) :- edge(Y,Z), edge(X,Y). path(X,Y) :- edge(X,Y). q(X) :- \
       path(X,X)."
  in
  match List.filter (fun d -> d.Datalog.Lint.code = "duplicate-rule") (Datalog.Lint.check p) with
  | [ d ] ->
    check_bool "flagged on the later rule" true (d.Datalog.Lint.rule_index = 1);
    check_bool "warning, not error" true (d.Datalog.Lint.severity = Datalog.Lint.Warning);
    check_bool "names the earlier rule" true
      (d.Datalog.Lint.message = "rule duplicates rule 0 up to variable renaming; it adds no derivations")
  | l -> Alcotest.failf "expected exactly one duplicate warning, got %d" (List.length l)

let lint_unused_idb () =
  (* path feeds q, q feeds nothing: only q is flagged, once, at its
     first defining rule; extensional edge is never flagged *)
  let p =
    parse
      "edge(\"a\",\"b\"). path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), \
       edge(Y,Z). q(X) :- path(X,X). q(X) :- edge(X,X)."
  in
  match
    List.filter (fun d -> d.Datalog.Lint.code = "unused-idb-predicate") (Datalog.Lint.check p)
  with
  | [ d ] ->
    check_bool "flags q" true (d.Datalog.Lint.pred = "q");
    check_bool "at its first rule" true (d.Datalog.Lint.rule_index = 3);
    check_bool "warning" true (d.Datalog.Lint.severity = Datalog.Lint.Warning)
  | l -> Alcotest.failf "expected exactly one unused-idb warning, got %d" (List.length l)

let lint_agrees_with_range_restricted () =
  (* on a grab-bag of rules, errors = [] iff Ast.range_restricted *)
  let cases =
    [
      mk_rule { Datalog.Ast.pred = "p"; args = [ v "X" ] } [ pos "e" [ v "X" ] ];
      mk_rule { Datalog.Ast.pred = "p"; args = [ v "X" ] } [];
      mk_rule { Datalog.Ast.pred = "p"; args = [] } [];
      mk_rule
        { Datalog.Ast.pred = "p"; args = [ Datalog.Ast.Agg (Datalog.Ast.Sum, "X") ] }
        [ pos "e" [ v "X" ] ];
      mk_rule
        { Datalog.Ast.pred = "p"; args = [ Datalog.Ast.Agg (Datalog.Ast.Sum, "X") ] }
        [ pos "e" [ v "Y" ] ];
      mk_rule { Datalog.Ast.pred = "p"; args = [ v "X" ] }
        [ pos "e" [ v "X" ]; Datalog.Ast.Neg { Datalog.Ast.pred = "q"; args = [ v "X" ] } ];
    ]
  in
  List.iteri
    (fun i r ->
      check_bool
        (Printf.sprintf "case %d" i)
        (Datalog.Ast.range_restricted r)
        (Datalog.Lint.errors (Datalog.Lint.check_rule ~rule_index:i r) = []))
    cases

let lint_gates_eval () =
  let bad =
    [ mk_rule { Datalog.Ast.pred = "p"; args = [ v "X"; v "Y" ] } [ pos "e" [ v "X" ] ] ]
  in
  let db = Datalog.Database.create () in
  (match Datalog.Eval.run ~lint:true db bad with
  | _ -> Alcotest.fail "lint should have rejected the program"
  | exception Datalog.Lint.Failed [ d ] ->
    check_bool "code" true (d.Datalog.Lint.code = "unrestricted-head-variable")
  | exception Datalog.Lint.Failed ds ->
    Alcotest.failf "expected one error, got %d" (List.length ds));
  (* the same program without lint is the historical behaviour *)
  let db2 = Datalog.Database.create () in
  let good = parse "p(X) :- e(X). e(\"a\")." in
  let _ = Datalog.Eval.run ~lint:true db2 good in
  check_int "lint passes clean programs through" 1 (cardinal db2 "p")

let qsuite tests = List.map (fun t -> QCheck_alcotest.to_alcotest t) tests

let () =
  Alcotest.run "datalog"
    [
      ( "lexer",
        [
          test `Quick "token stream" lexer_tokens;
          test `Quick "comments and escapes" lexer_comments_and_escapes;
          test `Quick "negative integers" lexer_negative_int;
          test `Quick "errors carry positions" lexer_errors;
        ] );
      ( "parser",
        [
          test `Quick "facts and rules" parser_fact_and_rule;
          test `Quick "negation and comparisons" parser_negation_and_cmp;
          test `Quick "zero-arity predicates" parser_zero_arity;
          test `Quick "range restriction enforced" parser_range_restriction;
          test `Quick "errors carry positions" parser_errors_have_positions;
          test `Quick "single atoms" parser_atom_roundtrip;
          test `Quick "printing parses back" ast_printing_parses_back;
        ] );
      ( "storage",
        [
          test `Quick "symbol interning" symbol_interning;
          test `Quick "relation ops and indexes" relation_ops;
          test `Quick "tuple hash preserves set semantics" relation_hash_semantics;
          test `Quick "database arity clash" database_arity_clash;
          test `Quick "database facts" database_facts;
        ]
        @ qsuite [ relation_qcheck ] );
      ( "stratify",
        [
          test `Quick "strata ordering" strat_simple;
          test `Quick "recursion shares a stratum" strat_recursive_same_stratum;
          test `Quick "mutual negation rejected" strat_unstratifiable;
          test `Quick "negative self loop rejected" strat_negative_self;
          test `Quick "scc order is topological" strat_scc_order_topological;
        ] );
      ( "lint",
        [
          test `Quick "clean program" lint_clean_program;
          test `Quick "unbound head variable named" lint_names_unbound_head_var;
          test `Quick "unbound negation and comparison" lint_unbound_negation_and_cmp;
          test `Quick "body aggregate rejected" lint_body_aggregate;
          test `Quick "singleton variable warning" lint_singleton_warning;
          test `Quick "duplicate rule warning" lint_duplicate_rule;
          test `Quick "unused IDB predicate warning" lint_unused_idb;
          test `Quick "errors iff not range-restricted" lint_agrees_with_range_restricted;
          test `Quick "eval ~lint gate" lint_gates_eval;
        ] );
      ( "eval",
        [
          test `Quick "transitive closure" eval_tc_known;
          test `Quick "cycles terminate" eval_cycle_terminates;
          test `Quick "stratified negation" eval_negation;
          test `Quick "comparisons" eval_comparisons;
          test `Quick "same generation" eval_same_generation;
        ]
        @ qsuite [ eval_seminaive_equals_naive ] );
      ( "incremental",
        [
          test `Quick "TC insertion" incr_tc_insert;
          test `Quick "TC deletion" incr_tc_delete;
          test `Quick "rederivation keeps supported facts" incr_rederivation;
          test `Quick "addition under negation deletes" incr_negation_addition_removes;
          test `Quick "deletion under negation adds" incr_negation_deletion_adds;
          test `Quick "intensional updates rejected" incr_rejects_intensional;
          test `Quick "report lists net changes" incremental_report_changes;
          test `Quick "no-op update changes nothing" incremental_noop_update;
        ]
        @ qsuite [ incremental_equals_scratch_qcheck ] );
      ( "fuzz",
        qsuite [ fuzz_seminaive_vs_naive; fuzz_incremental_vs_scratch ] );
      ( "plan",
        [
          test `Quick "iter_matching and fold_matching" relation_iter_matching;
          test `Quick "mutation during iteration trips" relation_mutation_tripwire;
          test `Quick "reentrant plan execution rejected" plan_reentrant_run_rejected;
          test `Quick "recursive self-join on a cycle" eval_recursive_self_join_on_cycle;
          test `Quick "incremental self-join on a cycle"
            incr_recursive_self_join_on_cycle;
          test `Quick "compiled plan matches interpreter" plan_matches_interpreter;
        ]
        @ qsuite [ engine_differential_qcheck ] );
      ( "parallel-maintenance",
        [ test `Quick "interpreted engine rejected" parallel_rejects_interpreter ]
        @ qsuite [ parallel_differential_qcheck ] );
      ( "sharded-maintenance",
        [
          test `Quick "merge order deterministic across runs"
            sharded_merge_deterministic;
          test `Quick "small updates fall back to the serial walk"
            sharded_fallback_serial;
        ]
        @ qsuite [ sharded_differential_qcheck ] );
      ( "analyze",
        [
          test `Quick "TC effect sets and advice" analyze_tc_effects;
          test `Quick "same generation" analyze_same_generation;
          test `Quick "negation read via Reject" analyze_negation_effects;
          test `Quick "aggregates fall back to the AST" analyze_aggregate_effects;
          test `Quick "nonlinear and weak-exit advised dred"
            analyze_nonlinear_and_weak_exit;
          test `Quick "ownership rule checked" analyze_check_ownership;
        ] );
      ( "sanitizer",
        [
          test `Quick "violations caught with names" sanitizer_catches_violation;
          test `Quick "inert on safe runs, tags cleaned up"
            sanitizer_inert_and_cleans_up;
        ] );
      ( "auto-maintenance",
        [ test `Quick "auto equals dred on a mixed program" auto_differential ] );
      ( "counting-maintenance",
        [
          test `Quick "diamond derivation counts" counting_diamond_counts;
          test `Quick "unfounded cycle removed" counting_unfounded_cycle;
          test `Quick "stale counts rebuilt after DRed interleaving"
            counting_survives_dred_interleaving;
          test `Quick "unsupported configurations rejected"
            counting_rejects_unsupported;
        ]
        @ qsuite
            [
              counting_differential_qcheck;
              counting_counts_invariant_qcheck;
              counting_level_index_qcheck;
              counting_sharded_differential_qcheck;
            ] );
      ( "aggregates",
        [
          test `Quick "count, sum, min, max" agg_eval_basic;
          test `Quick "distinct-binding semantics" agg_distinct_semantics;
          test `Quick "min/max over symbols" agg_min_max_on_symbols;
          test `Quick "sum over symbols rejected" agg_sum_rejects_symbols;
          test `Quick "stratified, recursion rejected" agg_stratified_below_use;
          test `Quick "single defining rule enforced" agg_single_rule_enforced;
          test `Quick "no aggregate terms in bodies" agg_body_aggregate_rejected;
          test `Quick "naive agrees" agg_naive_agrees;
          test `Quick "incremental equals from-scratch" agg_incremental_equals_scratch;
        ]
        @ qsuite [ agg_naive_qcheck; agg_incremental_qcheck ] );
      ( "to-trace",
        [
          test `Quick "condensed DAG trace" to_trace_basic;
          test `Quick "activation matches dependency cone"
            to_trace_activation_matches_report;
        ] );
    ]
