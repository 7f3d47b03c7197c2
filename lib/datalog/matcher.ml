type view = {
  mem : string -> Relation.tuple -> bool;
  iter_matching : string -> col:int -> value:int -> (Relation.tuple -> unit) -> unit;
  iter : string -> (Relation.tuple -> unit) -> unit;
}

let view_of_db db =
  {
    mem =
      (fun pred tup ->
        match Database.find db pred with
        | None -> false
        | Some r -> Relation.mem r tup);
    iter_matching =
      (fun pred ~col ~value f ->
        match Database.find db pred with
        | None -> ()
        | Some r -> Relation.iter_matching r ~col ~value f);
    iter =
      (fun pred f ->
        match Database.find db pred with None -> () | Some r -> Relation.iter f r);
  }

(* Environments are (string * int) assoc lists: variable bindings are
   tiny (a handful of variables), so assoc lists win over hashing. *)
let resolve_term ~symbols env = function
  | Ast.Const c -> Some (Symbol.intern symbols c)
  | Ast.Var v -> List.assoc_opt v env
  | Ast.Agg _ -> invalid_arg "Matcher: aggregate term outside a rule head"

(* Unify an atom's argument list against a concrete tuple. *)
let unify ~symbols env (args : Ast.term list) (tup : Relation.tuple) =
  let rec go env i = function
    | [] -> Some env
    | Ast.Const c :: rest ->
      if Symbol.intern symbols c = tup.(i) then go env (i + 1) rest else None
    | Ast.Var v :: rest -> (
      match List.assoc_opt v env with
      | Some code -> if code = tup.(i) then go env (i + 1) rest else None
      | None -> go ((v, tup.(i)) :: env) (i + 1) rest)
    | Ast.Agg _ :: _ -> invalid_arg "Matcher: aggregate term in a body atom"
  in
  if Array.length tup <> List.length args then None else go env 0 args

let ground_atom ~symbols env (a : Ast.atom) =
  let args =
    List.map
      (fun t ->
        match resolve_term ~symbols env t with
        | Some code -> code
        | None ->
          invalid_arg
            (Printf.sprintf "Matcher: unbound variable in %s (not range-restricted?)"
               a.Ast.pred))
      a.Ast.args
  in
  Array.of_list args

let compare_ok ~symbols op a b =
  let c = Symbol.compare_codes symbols a b in
  match op with
  | Ast.Eq -> c = 0
  | Ast.Neq -> c <> 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0

(* Enumerate matches of a positive atom under [env], using an index
   probe when some argument is already bound. *)
let match_positive ~symbols ~view ~work env (a : Ast.atom) k =
  (* fully ground under [env]? then the atom is a point lookup, not an
     enumeration — [mem] answers in O(1) where an index bucket would be
     scanned (and, below, materialized) in bucket-size time. Plan's
     lookup step does the same, so the two engines examine the same
     tuples on such atoms. *)
  let rec all_bound acc = function
    | [] -> Some (List.rev acc)
    | t :: rest -> (
      match resolve_term ~symbols env t with
      | Some code -> all_bound (code :: acc) rest
      | None -> None)
  in
  match all_bound [] a.Ast.args with
  | Some codes ->
    incr work;
    if view.mem a.Ast.pred (Array.of_list codes) then k env
  | None -> (
    let bound_col =
      let rec go i = function
        | [] -> None
        | t :: rest -> (
          match resolve_term ~symbols env t with
          | Some code -> Some (i, code)
          | None -> go (i + 1) rest)
      in
      go 0 a.Ast.args
    in
    let try_tuple tup =
      incr work;
      match unify ~symbols env a.Ast.args tup with Some env' -> k env' | None -> ()
    in
    match bound_col with
    | Some (col, value) ->
      (* Materialize the bucket before unifying, as the pre-compilation
         [Relation.find] did. This interpreter is the reference oracle for
         differential testing: it must not share the compiled path's
         live-bucket iteration semantics, or a mutation-during-iteration
         bug would make both engines fail identically and pass the
         differential net. The allocation is fine off the hot path. *)
      let matches = ref [] in
      view.iter_matching a.Ast.pred ~col ~value (fun t -> matches := t :: !matches);
      List.iter try_tuple !matches
    | None -> view.iter a.Ast.pred try_tuple)

let eval_rule ~symbols ~view ?delta ~work ~on_derived (rule : Ast.rule) =
  let body = Array.of_list rule.Ast.body in
  let rec step i env =
    if i >= Array.length body then on_derived (ground_atom ~symbols env rule.Ast.head)
    else begin
      match body.(i) with
      | Ast.Pos a -> (
        match delta with
        | Some (di, d) when di = i ->
          Relation.iter
            (fun tup ->
              incr work;
              match unify ~symbols env a.Ast.args tup with
              | Some env' -> step (i + 1) env'
              | None -> ())
            d
        | Some _ | None ->
          match_positive ~symbols ~view ~work env a (fun env' -> step (i + 1) env'))
      | Ast.Neg a ->
        incr work;
        if not (view.mem a.Ast.pred (ground_atom ~symbols env a)) then step (i + 1) env
      | Ast.Cmp (op, t1, t2) ->
        incr work;
        let v1 =
          match resolve_term ~symbols env t1 with Some v -> v | None -> assert false
        in
        let v2 =
          match resolve_term ~symbols env t2 with Some v -> v | None -> assert false
        in
        if compare_ok ~symbols op v1 v2 then step (i + 1) env
    end
  in
  (match delta with
  | Some (di, _) -> (
    match body.(di) with
    | Ast.Pos _ -> ()
    | Ast.Neg _ | Ast.Cmp _ -> invalid_arg "Matcher: delta literal must be positive")
  | None -> ());
  step 0 []

let register db program =
  let reg (a : Ast.atom) =
    ignore (Database.relation db a.Ast.pred ~arity:(List.length a.Ast.args))
  in
  List.iter
    (fun (r : Ast.rule) ->
      reg r.Ast.head;
      List.iter
        (function Ast.Pos a | Ast.Neg a -> reg a | Ast.Cmp _ -> ())
        r.Ast.body)
    program
