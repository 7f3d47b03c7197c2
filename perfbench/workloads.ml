(* The ledger's two workloads, each generated from a seed.

   A workload is a Datalog program (rules plus base facts), an endless
   stream of update batches that are well formed against the state the
   previous batches left (deletions are live, insertions fresh, no fact
   on both sides of one batch), and the reads a client makes after each
   batch: for the server, 10 point query lines [path("vK", X)]; for
   one-shot maintenance, one read-back: [Incr_sched.query] of each
   relation of its recursive core. The stream is produced on demand, so a run takes
   as many batches as its time allows and the same seed always yields
   the same prefix. Randomness comes from Stdlib.Random seeded here, not
   from the library's generators, so a change to the program never
   changes the benchmark's inputs. *)

type mode =
  | Serve  (** [dms serve] path: Server.Repl lines over a sync counting engine *)
  | Update of {
      maint : Datalog.Incremental.maint;
      par_domains : int;
      par_shards : int;
    }
      (** one-shot maintenance through [Incr_sched.update]: serial in the
          measured loop; the traced run's traced half and parallel replay
          use [par_domains] and [par_shards] *)

type step = {
  additions : string list;
  deletions : string list;
  queries : (string * string) list;
      (** server point queries: (predicate, first-column constant) *)
}

type t = {
  name : string;
  mode : mode;
  base : string list;  (** base facts before the first batch *)
  rules : string;
  reads : string list;
      (** predicates read back with [Incr_sched.query] after each
          one-shot update *)
  next : unit -> step;
}

let names = [ "serve-tc"; "dred-mix" ]

let edge pred u v = Printf.sprintf {|%s("v%d","v%d")|} pred u v

let tc_rules g =
  Printf.sprintf
    "path%s(X,Y) :- edge%s(X,Y).\npath%s(X,Z) :- path%s(X,Y), edge%s(Y,Z).\n" g g
    g g g

let point_queries rng ~n ~pred ~verts =
  List.init n (fun _ -> (pred, Printf.sprintf "v%d" (Random.State.int rng verts)))

(* Live edge set of one predicate: O(1) random deletion by
   swap-remove, fresh insertion by rejection sampling from [draw]. *)
module Live = struct
  type t = {
    draw : Random.State.t -> int * int;
    mutable items : (int * int) array;
    mutable n : int;
    pos : (int * int, int) Hashtbl.t;
  }

  let create draw =
    { draw; items = Array.make 64 (0, 0); n = 0; pos = Hashtbl.create 1024 }

  let mem t e = Hashtbl.mem t.pos e

  let add t e =
    if t.n = Array.length t.items then begin
      let bigger = Array.make (2 * t.n) (0, 0) in
      Array.blit t.items 0 bigger 0 t.n;
      t.items <- bigger
    end;
    t.items.(t.n) <- e;
    Hashtbl.replace t.pos e t.n;
    t.n <- t.n + 1

  let take_random t rng =
    let i = Random.State.int rng t.n in
    let e = t.items.(i) in
    let last = t.items.(t.n - 1) in
    t.items.(i) <- last;
    Hashtbl.replace t.pos last i;
    Hashtbl.remove t.pos e;
    t.n <- t.n - 1;
    e

  (* a fresh edge that is neither live nor in [avoid] *)
  let rec sample_fresh t rng ~avoid =
    let e = t.draw rng in
    if mem t e || List.mem e avoid then sample_fresh t rng ~avoid else e

  let seed t rng ~edges =
    for _ = 1 to edges do
      add t (sample_fresh t rng ~avoid:[])
    done

  let to_list t = Array.to_list (Array.sub t.items 0 t.n)

  (* one batch: [dels] live edges out, then [adds] fresh edges in *)
  let churn t rng ~adds ~dels =
    let deleted = List.init dels (fun _ -> take_random t rng) in
    let added =
      List.init adds (fun _ ->
          let e = sample_fresh t rng ~avoid:deleted in
          add t e;
          e)
    in
    (added, deleted)
end

(* Edge [u -> v] with [u < v <= u + span] over [verts] vertices. *)
let banded ~verts ~span rng =
  let u = Random.State.int rng (verts - 1) in
  (u, u + 1 + Random.State.int rng (min span (verts - 1 - u)))

(* Any ordered pair of distinct vertices. *)
let any_pair verts rng =
  let u = Random.State.int rng verts in
  let v = Random.State.int rng (verts - 1) in
  (u, if v >= u then v + 1 else v)

(* The banded acyclic edge space of Workload.Synthetic.Update_stream
   ([u < v <= u + span]), transitive closure maintained by counting
   behind the update server; 16-op batches, each op a deletion with
   probability 1/2 around the base size. *)
let serve_tc ~smoke ~seed =
  let nodes = if smoke then 80 else 100 in
  let span = if smoke then 8 else 12 in
  let base_edges = if smoke then 400 else 600 in
  let batch_ops = if smoke then 8 else 16 in
  let rng = Random.State.make [| seed |] in
  let live = Live.create (banded ~verts:nodes ~span) in
  Live.seed live rng ~edges:base_edges;
  let facts es = List.map (fun (u, v) -> edge "edge" u v) es in
  let next () =
    (* each op a deletion with probability live / (2 * base_edges):
       1/2 at the base size, and the live set reverts to it rather than
       drifting until it empties or fills the edge space *)
    let dels = ref 0 in
    for _ = 1 to batch_ops do
      if Random.State.int rng (2 * base_edges) < live.n - !dels then incr dels
    done;
    let added, deleted = Live.churn live rng ~adds:(batch_ops - !dels) ~dels:!dels in
    {
      additions = facts added;
      deletions = facts deleted;
      queries = point_queries rng ~n:10 ~pred:"path" ~verts:nodes;
    }
  in
  {
    name = "serve-tc";
    mode = Serve;
    base = facts (Live.to_list live);
    rules = tc_rules "";
    reads = [];
    next;
  }

(* One-shot DRed maintenance over two kinds of recursive component.
   Many independent banded TC groups ([path<g>]), each batch deleting
   one edge and inserting one in every group: a wide activation
   wavefront, so that the traced run's 2-domain replay gives the
   executor's LevelBased scheduling something to run in parallel. And
   one [path] component over a sparse random digraph (mean out-degree
   2.5): a giant strongly connected core, so deleting one of its edges
   sets off DRed's overdelete/rederive storm, and a fringe of vertices
   with one in- or out-edge, so churn keeps cutting vertices off the
   core and joining them back and the negation stratum [unreached]
   flips; 2 deletions and 2 insertions per batch. The measured loop is
   serial; the traced run replays it at 2 domains and 2 shards. *)
let dred_mix ~smoke ~seed =
  let groups = if smoke then 4 else 8 in
  let gverts = if smoke then 20 else 40 in
  let gedges = if smoke then 60 else 160 in
  let span = if smoke then 6 else 8 in
  let verts = if smoke then 30 else 48 in
  let edges = if smoke then 75 else 120 in
  let churn = 2 in
  let rng = Random.State.make [| seed |] in
  let live = Array.init groups (fun _ -> Live.create (banded ~verts:gverts ~span)) in
  Array.iter (fun l -> Live.seed l rng ~edges:gedges) live;
  let core = Live.create (any_pair verts) in
  Live.seed core rng ~edges;
  let pred g = "edge" ^ string_of_int g in
  let gfacts g es = List.map (fun (u, v) -> edge (pred g) u v) es in
  let facts es = List.map (fun (u, v) -> edge "edge" u v) es in
  let base =
    List.concat (List.init groups (fun g -> gfacts g (Live.to_list live.(g))))
    @ facts (Live.to_list core)
  in
  let next () =
    let batch = Array.mapi (fun g l -> (g, Live.churn l rng ~adds:1 ~dels:1)) live in
    let added, deleted = Live.churn core rng ~adds:churn ~dels:churn in
    {
      additions = List.concat_map (fun (g, (a, _)) -> gfacts g a) (Array.to_list batch) @ facts added;
      deletions =
        List.concat_map (fun (g, (_, d)) -> gfacts g d) (Array.to_list batch) @ facts deleted;
      queries = [];
    }
  in
  {
    name = "dred-mix";
    mode = Update { maint = Datalog.Incremental.Dred; par_domains = 2; par_shards = 2 };
    base;
    rules =
      String.concat "" (List.init groups (fun g -> tc_rules (string_of_int g)))
      ^ tc_rules ""
      ^ "node(X) :- edge(X,Y).\nnode(Y) :- edge(X,Y).\n\
         unreached(X,Y) :- node(X), node(Y), !path(X,Y).\n";
    reads = [ "node"; "path"; "unreached" ];
    next;
  }

let make name ~smoke ~seed =
  match name with
  | "serve-tc" -> serve_tc ~smoke ~seed
  | "dred-mix" -> dred_mix ~smoke ~seed
  | other ->
    invalid_arg
      (Printf.sprintf "unknown workload %s (expected one of: %s)" other
         (String.concat ", " names))

(* Program text: the base facts followed by the rules. *)
let source ~base ~rules =
  let b = Buffer.create (32 * List.length base + String.length rules) in
  List.iter
    (fun f ->
      Buffer.add_string b f;
      Buffer.add_string b ".\n")
    base;
  Buffer.add_string b rules;
  Buffer.contents b
