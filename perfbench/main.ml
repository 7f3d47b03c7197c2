(* perfbench: the dms perf ledger.

   Runs one workload (see workloads.ml) from a seed as a closed loop
   with one client and no think time, through the public entry points
   a user has: Server.Repl.handle_line over a sync counting
   Server.Engine for [serve-tc], serial Incr_sched.update for
   [dred-mix].
   Every run ends with a correctness check outside the timed region:
   the final database against a from-scratch Eval.run of the final
   base facts, and the last step's reads (query lines, or
   Incr_sched.query read-backs) against the same oracle.

   --trace 0 reports the end-to-end metrics. --trace 1 is a separate
   run for the per-layer metrics: an untraced half and a traced half
   of the loop (the traced half times each layer's public calls from
   here and records the program's Obs rings; on [dred-mix] it runs
   Incr_sched.update on 2 domains and 2 shards), then, on [dred-mix],
   an untraced replay of the untraced half's first steps on 2 domains
   and 2 shards, against the serial timings of the same steps. The rings
   (with Obs.Export) and the benchmark's spans are written once at the
   end.

   The last line of standard output is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}. *)

let now = Prelude.Mclock.now

(* ---- command line ---- *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  perturb : bool;
  out_dir : string;
}

(* Per phase (before and after the loop): at least [min_setups]
   set-ups, more while they took under [setup_budget_s] in all, at most
   [max_setups]. setup_s is the mean of the two phases' medians. *)
let min_setups = 2

let setup_budget_s = 1.0

let max_setups = 50

(* Untimed commits before the loop: counting's prime and plan
   compilation are paid in set-up and warm-up, not by the first timed
   commit. *)
let warmup = 5

(* The loop makes at least this many commits (10 beyond the p90). *)
let min_commits ~smoke = if smoke then 10 else 100

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and smoke = ref false and perturb = ref false in
  let out_dir = ref "perfbench/out" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, " one of: " ^ String.concat ", " Workloads.names);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " length of the measured loop");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--smoke", Arg.Set smoke, " seconds-long small inputs");
      ("--perturb-oracle", Arg.Set perturb, " drop one oracle tuple (the check must fail)");
      ("--out", Arg.Set_string out_dir, " directory for the run record and trace");
    ]
  in
  Arg.parse (Arg.align specs)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Workloads.names) then begin
    prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " Workloads.names);
    exit 2
  end;
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace <> 0;
    smoke = !smoke;
    perturb = !perturb;
    out_dir = !out_dir;
  }

(* ---- samples ---- *)

module S = struct
  type t = float Prelude.Vec.t

  let create () : t = Prelude.Vec.create ~dummy:0.0 ()

  let add = Prelude.Vec.push

  let n = Prelude.Vec.length

  let to_array v = Array.init (n v) (Prelude.Vec.get v)

  let pct v p = if n v = 0 then 0.0 else Prelude.Stats.percentile (to_array v) p

  (* percentile of the first [k] samples *)
  let prefix_pct v k p =
    let k = min k (n v) in
    if k = 0 then 0.0 else Prelude.Stats.percentile (Array.sub (to_array v) 0 k) p

  let sum v =
    let s = ref 0.0 in
    Prelude.Vec.iter (fun x -> s := !s +. x) v;
    !s

  let mean v = if n v = 0 then 0.0 else sum v /. float_of_int (n v)

  let of_list l =
    let v = create () in
    List.iter (add v) l;
    v
end

let median xs = Prelude.Stats.percentile (Array.of_list xs) 50.0

(* ---- host speed ----

   The shared host's speed drifts by a quarter or more over minutes, and
   every timing of the program drifts with it. So a run also times a
   fixed kernel of the benchmark's own (hashing, pointer chasing and
   sorting over a few MB: the kind of work maintenance does),
   interleaved with the measured loop
   and the set-ups, and the end-to-end timings are reported at a
   reference host speed: scaled by [ref_s] over the kernel's median
   time in the same stretch of the run. The kernel does not call the
   program, so a change to the program moves the scaled timings as much
   as the raw ones; the raw ones are printed beside them. *)
module Cal = struct
  (* the kernel's time on a host of reference speed *)
  let ref_s = 0.020

  (* run the kernel about this often in the measured loop *)
  let period_s = 0.5

  (* Integer hashing into a table, a pointer chase and an in-place sort,
     over 4 MB of arrays made once (beyond the per-core cache, like
     the program's relations): it allocates nothing, so no GC work on
     the program's heap lands in it and its time does not depend on
     what the program keeps. *)
  let size = 1 lsl 18

  let table = Array.make size 0

  (* a full-period step x -> 40505x + 1 (mod size): the chase visits
     every slot *)
  let perm = Array.init size (fun i -> ((i * 40_505) + 1) land (size - 1))

  let sorted = Array.make (size / 16) 0

  let kernel () =
    Array.fill table 0 size 0;
    let x = ref 12_345 and acc = ref 0 in
    for _ = 1 to 200_000 do
      x := ((!x * 1_103_515_245) + 12_345) land 0x3FFF_FFFF;
      let k = !x land (size - 1) in
      table.(k) <- table.(k) + 1;
      acc := !acc + table.(k * 31 land (size - 1))
    done;
    let i = ref 0 in
    for _ = 1 to 200_000 do
      i := perm.(!i);
      acc := !acc + !i
    done;
    Array.iteri (fun j _ -> sorted.(j) <- perm.(j) * 7_919 land (size - 1)) sorted;
    Array.sort Int.compare sorted;
    !acc + sorted.(0)

  (* time one kernel run into [v]; returns its duration *)
  let sample v =
    let t0 = now () in
    ignore (Sys.opaque_identity (kernel ()));
    let dt = now () -. t0 in
    S.add v dt;
    dt

  (* a timing scaled to the reference speed *)
  let factor v = ref_s /. S.pct v 50.0

  (* the factor around kernel run [j]: the median of runs j-1 .. j+1 *)
  let local cal j =
    let c = S.to_array cal in
    let lo = max 0 (j - 1) and hi = min (Array.length c) (j + 2) in
    ref_s /. Prelude.Stats.percentile (Array.sub c lo (hi - lo)) 50.0

  (* [v]'s samples, each scaled by the factor around it: [marks.(j)]
     samples had been taken when kernel run [j] started *)
  let scale_local cal marks v =
    let out = S.create () in
    Array.iteri
      (fun j start ->
        let stop = if j + 1 < Array.length marks then marks.(j + 1) else S.n v in
        let f = local cal j in
        for i = start to stop - 1 do
          S.add out (Prelude.Vec.get v i *. f)
        done)
      marks;
    out

  (* the loop's mean factor: kernel runs are evenly spaced in time, so
     this scales a rate *)
  let mean_local cal = S.mean (S.of_list (List.init (S.n cal) (local cal)))
end

(* ---- set-up ---- *)

type setup = {
  parse_s : float;
  materialize_s : float;
  prime_s : float;
  create_s : float;
  total_s : float;
  tuples : int;
  alloc_words : float;
}

let alloc_words () =
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

(* Parse, materialize, prime counts and publish epoch 0 (serve only),
   each call timed; starts from a collected heap so repeated set-ups
   in one run see the same state. Returns the session, the engine
   (serve only) and the timings. *)
let setup (w : Workloads.t) src =
  Gc.full_major ();
  let a0 = alloc_words () in
  let t0 = now () in
  let program = Datalog.Parser.parse src in
  let t1 = now () in
  let db = Datalog.Database.create () in
  ignore (Datalog.Eval.run db program);
  let t2 = now () in
  let session = { Incr_sched.db; program } in
  let engine, t3, t4 =
    match w.mode with
    | Workloads.Serve ->
      ignore (Datalog.Incremental.prime db program);
      let t3 = now () in
      let e = Server.Engine.create ~maint:Datalog.Incremental.Counting session in
      (Some e, t3, now ())
    | Workloads.Update _ -> (None, t2, t2)
  in
  let a1 = alloc_words () in
  ( session,
    engine,
    {
    parse_s = t1 -. t0;
    materialize_s = t2 -. t1;
    prime_s = t3 -. t2;
    create_s = t4 -. t3;
    total_s = t4 -. t0;
    tuples = Datalog.Database.total_tuples db;
    alloc_words = a1 -. a0;
  } )

(* ---- the measured loop ---- *)

(* A read a client makes after a commit, and what it got back. *)
type read =
  | Point of (string * string)  (** server query line [pred("vK", X)] *)
  | All of string  (** [Incr_sched.query] of a whole predicate *)

type results = Lines of string list | Atoms of Datalog.Ast.atom list

type seg = {
  commit_s : S.t;
  query_s : S.t;
  admit_s : S.t;
  proto_s : S.t;
  run_s : S.t;
  publish_s : S.t;
  engine_query_s : S.t;
  reply_s : S.t;
  changed : S.t;  (** net tuple change per commit *)
  mutable rows : int;
  mutable commits : int;
  mutable wall_s : float;
  mutable extra_s : float;
      (** duplicate calls made only to time a layer, and the state sample *)
  mutable reads_s : float;
      (** one-shot read-backs: timed as queries, left out of commits_per_s *)
  mutable gc : float * float * int;  (** minor words, major words, major GCs *)
  mutable state_words : int;  (** what the program keeps, see [drive] *)
  cal_s : S.t;  (** host-speed kernel times, see [Cal] *)
  cal_marks : (int * int) Prelude.Vec.t;
      (** commit and query samples taken before each kernel run *)
}

let new_seg () =
  {
    commit_s = S.create ();
    query_s = S.create ();
    admit_s = S.create ();
    proto_s = S.create ();
    run_s = S.create ();
    publish_s = S.create ();
    engine_query_s = S.create ();
    reply_s = S.create ();
    changed = S.create ();
    rows = 0;
    commits = 0;
    wall_s = 0.0;
    extra_s = 0.0;
    reads_s = 0.0;
    gc = (0.0, 0.0, 0);
    state_words = 0;
    cal_s = S.create ();
    cal_marks = Prelude.Vec.create ~dummy:(0, 0) ();
  }

type target =
  | Repl of { repl : Server.Repl.t; engine : Server.Engine.t }
  | Session of Incr_sched.datalog_session

type ctx = {
  w : Workloads.t;
  spans : Spans.t;
  base : (string, unit) Hashtbl.t;  (** expected base facts *)
  log : Workloads.step Prelude.Vec.t;
      (** every step applied, in order; kept by traced runs only, so that
          the benchmark's own memory does not grow with the commits *)
  mutable obs : Obs.Trace.t;  (** the traced half's program rings *)
  changes : (string, int * int) Hashtbl.t;
      (** per predicate: tuples changed, commits that changed it *)
  mutable step_no : int;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable last : (read * results) list;  (** the last step's reads *)
}

let request ctx ok msg =
  ctx.attempted <- ctx.attempted + 1;
  if not ok then begin
    ctx.failed <- ctx.failed + 1;
    if List.length ctx.errors < 5 then ctx.errors <- msg :: ctx.errors
  end

let reply_ok replies =
  match List.rev replies with
  | last :: _ -> String.length last >= 2 && String.sub last 0 2 = "ok"
  | [] -> false

let pattern (pred, node) = Printf.sprintf "%s(\"%s\", X)" pred node

let read_name = function Point q -> pattern q | All pred -> pred

(* The oracle's answer to a server point query: the facts of [pred]
   whose first column is [node], sorted like the server's replies. *)
let point_read db (pred, node) =
  match Datalog.Database.find db pred with
  | None -> []
  | Some rel ->
    let code =
      Datalog.Symbol.intern (Datalog.Database.symbols db) (Datalog.Ast.Sym node)
    in
    Datalog.Relation.fold_matching rel ~col:0 ~value:code
      (fun acc tup -> Datalog.Database.tuple_to_atom db pred tup :: acc)
      []
    |> List.sort Stdlib.compare

let changed_of_report ctx (r : Datalog.Incremental.report) =
  List.fold_left
    (fun acc (c : Datalog.Incremental.pred_change) ->
      let n = c.added + c.removed in
      let tuples, commits =
        Option.value (Hashtbl.find_opt ctx.changes c.pred) ~default:(0, 0)
      in
      Hashtbl.replace ctx.changes c.pred (tuples + n, commits + 1);
      acc + n)
    0 r.changes

let serve_step ctx seg ~sp ~repl ~engine ~traced ~parent (st : Workloads.step) =
  let commit = ctx.step_no in
  let admit side fact =
    let line = side ^ " " ^ fact in
    if traced then begin
      let _, dt =
        Spans.time sp ~name:"protocol.parse" ~parent ~commit (fun () ->
            Server.Protocol.parse line)
      in
      S.add seg.proto_s dt;
      seg.extra_s <- seg.extra_s +. dt
    end;
    let replies, dt =
      Spans.time sp ~name:("repl." ^ side) ~parent ~commit (fun () ->
          fst (Server.Repl.handle_line repl line))
    in
    S.add seg.admit_s dt;
    request ctx (reply_ok replies) (line ^ " -> " ^ String.concat " / " replies)
  in
  List.iter (admit "insert") st.additions;
  List.iter (admit "remove") st.deletions;
  if traced then begin
    (* the commit line minus its reply formatting, so that the
       maintenance run and the publication can be read apart *)
    let stats, dt =
      Spans.time sp ~name:"engine.commit" ~parent ~commit (fun () ->
          try Ok (Server.Engine.commit engine) with e -> Error e)
    in
    S.add seg.commit_s dt;
    match stats with
    | Ok (_ :: _ as l) ->
      let last = List.nth l (List.length l - 1) in
      request ctx true "";
      S.add seg.run_s last.run_s;
      S.add seg.publish_s (last.latency_s -. last.run_s);
      S.add seg.changed (float_of_int last.changed)
    | Ok [] -> request ctx false "commit published nothing"
    | Error e -> request ctx false ("commit raised " ^ Printexc.to_string e)
  end
  else begin
    let replies, dt =
      Spans.time sp ~name:"repl.commit" ~parent ~commit (fun () ->
          fst (Server.Repl.handle_line repl "commit"))
    in
    S.add seg.commit_s dt;
    let ok = reply_ok replies in
    request ctx ok ("commit -> " ^ String.concat " / " replies);
    if ok then
      try
        Scanf.sscanf (List.nth replies (List.length replies - 1))
          "ok epoch %d ops %d changed %d" (fun _ _ c ->
            S.add seg.changed (float_of_int c))
      with Scanf.Scan_failure _ | End_of_file | Failure _ -> ()
  end;
  ctx.last <-
    List.map
      (fun q ->
        let text = pattern q in
        let eq_dt =
          if traced then begin
            let _, dt =
              Spans.time sp ~name:"engine.query" ~parent ~commit (fun () ->
                  Server.Engine.query engine text)
            in
            S.add seg.engine_query_s dt;
            seg.extra_s <- seg.extra_s +. dt;
            dt
          end
          else 0.0
        in
        let replies, dt =
          Spans.time sp ~name:"repl.query" ~parent ~commit (fun () ->
              fst (Server.Repl.handle_line repl ("query " ^ text)))
        in
        S.add seg.query_s dt;
        if traced then S.add seg.reply_s (dt -. eq_dt);
        let ok = reply_ok replies in
        request ctx ok ("query " ^ text ^ " failed");
        let nfacts = List.length replies - 1 in
        let facts = List.filteri (fun i _ -> i < nfacts) replies in
        seg.rows <- seg.rows + List.length facts;
        (Point q, Lines facts))
      st.queries

let update_step ctx seg ~sp ~session ~maint ~domains ~shards ~traced ~parent
    (st : Workloads.step) =
  let commit = ctx.step_no in
  let obs = if traced then ctx.obs else Obs.Trace.disabled in
  let r, dt =
    Spans.time sp ~name:"incr_sched.update" ~parent ~commit (fun () ->
        try
          Ok
            (Incr_sched.update ~maint ~domains ~shards ~obs session
               ~additions:st.additions ~deletions:st.deletions)
        with e -> Error e)
  in
  S.add seg.commit_s dt;
  (match r with
  | Ok tt ->
    request ctx true "";
    S.add seg.changed (float_of_int (changed_of_report ctx tt.Datalog.To_trace.report))
  | Error e -> request ctx false ("update raised " ^ Printexc.to_string e));
  (* the client reads back what it maintains: one read request, one
     Incr_sched.query per relation *)
  let t0 = now () in
  ctx.last <-
    List.map
      (fun pred ->
        let facts, _ =
          Spans.time sp ~name:"incr_sched.query" ~parent ~commit (fun () ->
              Incr_sched.query session pred)
        in
        seg.rows <- seg.rows + List.length facts;
        (All pred, Atoms facts))
      ctx.w.reads;
  let dt = now () -. t0 in
  S.add seg.query_s dt;
  request ctx true "";
  seg.reads_s <- seg.reads_s +. dt

let step ctx seg target ~traced =
  let st = ctx.w.next () in
  if Spans.enabled ctx.spans then Prelude.Vec.push ctx.log st;
  let sp = if traced then ctx.spans else Spans.disabled in
  let parent = if traced then Spans.fresh sp else -1 in
  let t0 = now () in
  (match (target, ctx.w.mode) with
  | Repl { repl; engine }, _ -> serve_step ctx seg ~sp ~repl ~engine ~traced ~parent st
  | Session session, Workloads.Update { maint; par_domains; par_shards } ->
    (* the measured loop is serial; the traced half runs in parallel *)
    let domains, shards = if traced then (par_domains, par_shards) else (1, 1) in
    update_step ctx seg ~sp ~session ~maint ~domains ~shards ~traced ~parent st
  | Session _, Workloads.Serve -> invalid_arg "serve workload needs an engine");
  Spans.record sp ~id:parent ~name:"step" ~parent:(-1) ~commit:ctx.step_no
    ~t0 ~t1:(now ());
  List.iter (fun f -> Hashtbl.remove ctx.base f) st.deletions;
  List.iter (fun f -> Hashtbl.replace ctx.base f ()) st.additions;
  ctx.step_no <- ctx.step_no + 1;
  seg.commits <- seg.commits + 1

let gc_counters () =
  let s = Gc.quick_stat () in
  (s.minor_words, s.major_words, s.major_collections)

(* Run steps until [seconds] have passed and at least [min_commits]
   were made. After exactly [min_commits] commits, so at the same state
   for a given seed whatever the program's speed, it takes what the
   program keeps: every word reachable from the session, the engine and
   the REPL. The benchmark's own data (inputs, expected base facts,
   read results) is not reachable from them and the library keeps no
   global state, so this is the program's share of the live heap,
   whenever the GC last ran; whatever the commits keep alive is in it.
   That pause is left out of the loop's rate. *)
let drive ctx target ~traced ~seconds ~min_commits =
  let seg = new_seg () in
  let m0, j0, c0 = gc_counters () in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let next_cal = ref t0 in
  while now () < deadline || seg.commits < min_commits do
    (* the host-speed kernel, every [Cal.period_s] of an untraced loop;
       left out of the loop's rate *)
    if (not traced) && now () >= !next_cal then begin
      Prelude.Vec.push seg.cal_marks (S.n seg.commit_s, S.n seg.query_s);
      seg.extra_s <- seg.extra_s +. Cal.sample seg.cal_s;
      next_cal := now () +. Cal.period_s
    end;
    step ctx seg target ~traced;
    if seg.commits = min_commits then begin
      let t = now () in
      seg.state_words <- Obj.reachable_words (Obj.repr target);
      seg.extra_s <- seg.extra_s +. (now () -. t)
    end
  done;
  seg.wall_s <- now () -. t0;
  let m1, j1, c1 = gc_counters () in
  seg.gc <- (m1 -. m0, j1 -. j0, c1 - c0);
  seg

let warm ctx target n =
  let seg = new_seg () in
  for _ = 1 to n do
    step ctx seg target ~traced:false
  done

(* ---- correctness ---- *)

let oracle (w : Workloads.t) base ~perturb =
  let base = Hashtbl.fold (fun f () acc -> f :: acc) base [] |> List.sort compare in
  let program = Datalog.Parser.parse (Workloads.source ~base ~rules:w.rules) in
  let db = Datalog.Database.create () in
  ignore (Datalog.Eval.run db program);
  if perturb then begin
    (* drop one tuple of the first non-empty derived relation *)
    match
      List.find_opt
        (fun (name, rel) ->
          String.length name >= 4 && String.sub name 0 4 = "path"
          && Datalog.Relation.cardinality rel > 0)
        (Datalog.Database.predicates db)
    with
    | Some (_, rel) -> ignore (Datalog.Relation.remove rel (List.hd (Datalog.Relation.to_list rel)))
    | None -> ()
  end;
  { Incr_sched.db; program }

let fact_line a = Format.asprintf "%a." Datalog.Ast.pp_atom a

let check ~what db (oracle : Incr_sched.datalog_session) last =
  let errs = ref [] in
  (match Datalog.Eval.databases_agree db oracle.db with
  | Ok () -> ()
  | Error e -> errs := Printf.sprintf "%s database vs oracle: %s" what e :: !errs);
  List.iter
    (fun (r, res) ->
      let got = match res with Lines l -> l | Atoms a -> List.map fact_line a in
      let want =
        match r with
        | Point q -> point_read oracle.db q
        | All pred -> Incr_sched.query oracle pred
      in
      if got <> List.map fact_line want then
        errs := Printf.sprintf "%s reply to %s differs from the oracle" what (read_name r) :: !errs)
    last;
  List.rev !errs

(* ---- reporting ---- *)

let host_cores = Domain.recommended_domain_count ()

type metric = { name : string; value : float; unit_ : string; n : int }

(* a non-finite value (a ratio over an empty sample) would not be JSON *)
let m name unit_ n value =
  { name; value = (if Float.is_finite value then value else 0.0); unit_; n }

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun x ->
         Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" x.name x.value
           x.unit_)
       ms)

let print_metrics ms =
  List.iter (fun x -> Printf.printf "metric %-36s %16.6f %-6s n=%d\n" x.name x.value x.unit_ x.n) ms

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let write_record o ms ~setups ~extra =
  mkdir_p o.out_dir;
  let path =
    Filename.concat o.out_dir
      (Printf.sprintf "%s-seed%d-trace%d.json" o.workload o.seed (if o.trace then 1 else 0))
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\"workload\": \"%s\", \"seed\": %d, \"seconds\": %g, \"trace\": %b, \"smoke\": %b, \
     \"host_cores\": %d, \"ocaml_version\": \"%s\", \"warmup_commits\": %d, \"setups\": %d%s,\n\
     \"metrics\": [%s]}\n"
    o.workload o.seed o.seconds o.trace o.smoke host_cores Sys.ocaml_version warmup setups
    extra
    (String.concat ",\n  "
       (List.map
          (fun x ->
            Printf.sprintf "{\"name\": \"%s\", \"value\": %.17g, \"unit\": \"%s\", \"samples\": %d}"
              x.name x.value x.unit_ x.n)
          ms));
  close_out oc;
  path

(* What a run found, as plain values: once [measure] returns it, the
   session it measured is unreachable. *)
type outcome = {
  metrics : metric list;  (** reported in the JSON line *)
  also : metric list;  (** printed only *)
  errs : string list;  (** correctness check failures *)
  attempted : int;
  failed : int;
  errors : string list;  (** the first failed requests *)
  extra : string;  (** more run-record fields *)
}

let finish o (r : outcome) ~setups =
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%d size=%s\n" o.workload o.seed
    o.seconds (if o.trace then 1 else 0) (if o.smoke then "smoke" else "full");
  Printf.printf "# host_cores=%d ocaml=%s warmup_commits=%d setups=%d\n" host_cores
    Sys.ocaml_version warmup setups;
  let error_rate = float_of_int r.failed /. float_of_int (max 1 r.attempted) in
  print_metrics (r.metrics @ r.also @ [ m "error_rate" "share" r.attempted error_rate ]);
  List.iter (fun e -> Printf.printf "error %s\n" e) (List.rev r.errors);
  List.iter (fun e -> Printf.printf "check FAILED: %s\n" e) r.errs;
  if r.errs = [] then print_endline "check parity ok";
  Printf.printf "record %s\n" (write_record o r.metrics ~setups ~extra:r.extra);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.errs = []) r.attempted r.failed (json_metrics r.metrics);
  exit (if r.errs = [] then 0 else 1)

(* ---- runs ---- *)

let target_of session = function
  | Some engine -> Repl { repl = Server.Repl.create engine; engine }
  | None -> Session session

let mb words = float_of_int words *. float_of_int (Sys.word_size / 8) /. 1048576.0

let peak_heap_mb () = mb (Gc.quick_stat ()).top_heap_words

(* One phase of set-ups, each after a host-speed kernel run (into the
   returned [S.t]); returns the timings, the last session (each earlier
   one is garbage before the next starts) and the kernel times. *)
let set_up_many w src =
  let cal = S.create () in
  let timings = ref [] and kept = ref None and spent = ref 0.0 in
  while
    List.length !timings < min_setups
    || (!spent < setup_budget_s && List.length !timings < max_setups)
  do
    kept := None;
    ignore (Cal.sample cal);
    let session, engine, t = setup w src in
    kept := Some (session, engine);
    timings := t :: !timings;
    spent := !spent +. t.total_s
  done;
  (List.rev !timings, Option.get !kept, cal)

let setup_metrics o (w : Workloads.t) (before, cal_before) (after, cal_after) =
  let setups = before @ after in
  let med f = median (List.map f setups) and n = List.length setups in
  let serve = w.mode = Workloads.Serve in
  let if_ cond x = if cond then x else 0.0 in
  (* the mean of the two phases' medians: the phases can differ (the
     heap has grown by the second), and a median over both would jump
     between them; each scaled by its phase's kernel runs (see [Cal]) *)
  let total l = median (List.map (fun s -> s.total_s) l) in
  let raw = (total before +. total after) /. 2.0 in
  let scaled =
    ((total before *. Cal.factor cal_before) +. (total after *. Cal.factor cal_after)) /. 2.0
  in
  if not o.trace then
    ( [ m "setup_s" "s" n scaled ],
      [
        m "host.setup_kernel_ms" "ms" (S.n cal_before + S.n cal_after)
          (1000.0 *. median (List.map (fun c -> S.pct c 50.0) [ cal_before; cal_after ]));
        m "raw.setup_s" "s" n raw;
      ] )
  else
    ( [
      m "parser.parse_s" "s" n (med (fun s -> s.parse_s));
      m "eval.materialize_s" "s" n (med (fun s -> s.materialize_s));
      m "eval.tuples" "count" 1 (float_of_int (List.hd setups).tuples);
      m "incremental.prime_s" "s" n (if_ serve (med (fun s -> s.prime_s)));
      m "engine.create_s" "s" n (if_ serve (med (fun s -> s.create_s)));
      m "gc.setup_words_per_tuple" "words" n
        (med (fun s -> s.alloc_words /. float_of_int s.tuples));
    ],
      [] )

(* Sum the per-commit summaries of the traced updates. *)
type agg = {
  mutable busy : float;
  mutable sched : float;
  mutable steal : float;
  mutable park : float;
  mutable idle : float;
  mutable span : float;  (** workers x makespan *)
  mutable tasks : int;
  mutable stolen : int;
  mutable del : float;
  mutable red : float;
  mutable ins : float;
  mutable prop : float;
  mutable back : float;
  mutable fwd : float;
  mutable o1 : int;
  mutable probes : int;
}

let aggregate (sums : Obs.Summary.t list) =
  let a =
    { busy = 0.; sched = 0.; steal = 0.; park = 0.; idle = 0.; span = 0.; tasks = 0; stolen = 0;
      del = 0.; red = 0.; ins = 0.; prop = 0.; back = 0.; fwd = 0.; o1 = 0; probes = 0 }
  in
  List.iter
    (fun (s : Obs.Summary.t) ->
      a.busy <- a.busy +. s.busy_s;
      a.sched <- a.sched +. s.sched_s;
      a.steal <- a.steal +. s.steal_s;
      a.park <- a.park +. s.park_s;
      a.idle <- a.idle +. s.idle_s;
      a.span <- a.span +. (float_of_int (Array.length s.workers) *. s.makespan_s);
      Array.iter
        (fun (w : Obs.Summary.worker) ->
          a.tasks <- a.tasks + w.tasks;
          a.stolen <- a.stolen + w.stolen)
        s.workers;
      a.del <- a.del +. s.dred_delete_s;
      a.red <- a.red +. s.dred_rederive_s;
      a.ins <- a.ins +. s.dred_insert_s;
      a.prop <- a.prop +. s.cnt_propagate_s;
      a.back <- a.back +. s.cnt_backward_s;
      a.fwd <- a.fwd +. s.cnt_forward_s;
      a.o1 <- a.o1 + s.cnt_o1_hits;
      a.probes <- a.probes + s.cnt_full_probes)
    sums;
  a

let share x total = if total > 0.0 then x /. total else 0.0

(* The traced half's program rings, written once with Obs.Export and
   read back from the file: one summary per update over that update's
   span (dred-mix), or one over the whole half (serve-tc). *)
let ring_summaries ctx ~path ~per_update =
  Obs.Export.to_file path ctx.obs;
  let events = Obs.Export.events_of_json (Obs.Json.of_file path) in
  let domains = Obs.Trace.domains ctx.obs in
  let ns s = int_of_float ((s -. Obs.Trace.epoch ctx.obs) *. 1e9) in
  let within (a, b) =
    let a = ns a and b = ns b in
    List.filter (fun (e : Obs.Summary.event) -> e.t0_ns >= a && e.t1_ns <= b) events
  in
  let summaries =
    if per_update then
      List.map
        (fun win -> Obs.Summary.of_events ~domains (within win))
        (Spans.windows ctx.spans "incr_sched.update")
    else [ Obs.Summary.of_events ~domains events ]
  in
  (summaries, events)

(* Per read-back predicate (pooled when there are more than 3): final
   size, mean tuples changed per commit and the share of commits that
   changed it. Printed only; it shows whether the workload's strata do
   work. *)
let read_shape ctx ~commits =
  let reads =
    List.filter_map (function All p, Atoms facts -> Some (p, List.length facts) | _ -> None) ctx.last
  in
  let group name preds =
    let sum f = List.fold_left (fun acc p -> acc + f p) 0 preds in
    let change p = Option.value (Hashtbl.find_opt ctx.changes p) ~default:(0, 0) in
    let c = float_of_int (max 1 commits) in
    [
      m ("read." ^ name ^ ".tuples") "count" 1 (float_of_int (sum (fun p -> List.assoc p reads)));
      m ("read." ^ name ^ ".changed_per_commit") "count" commits
        (float_of_int (sum (fun p -> fst (change p))) /. c);
      m ("read." ^ name ^ ".commits_changed") "share" commits
        (float_of_int (sum (fun p -> snd (change p))) /. c /. float_of_int (List.length preds));
    ]
  in
  let preds = List.map fst reads in
  if List.length preds > 3 then group "all" preds
  else List.concat_map (fun p -> group p [ p ]) preds

(* Everything between the set-ups: warm-up, the measured loop and the
   correctness check. *)
let measure o (w : Workloads.t) src (session, engine) ~tuples =
  let ctx =
    {
      w;
      spans = Spans.create ~enabled:o.trace;
      base = Hashtbl.create 8192;
      log = Prelude.Vec.create ~dummy:{ Workloads.additions = []; deletions = []; queries = [] } ();
      obs = Obs.Trace.disabled;
      changes = Hashtbl.create 64;
      step_no = 0;
      attempted = 0;
      failed = 0;
      errors = [];
      last = [];
    }
  in
  List.iter (fun f -> Hashtbl.replace ctx.base f ()) w.base;
  let target = target_of session engine in
  let min_commits = min_commits ~smoke:o.smoke in
  warm ctx target warmup;
  Hashtbl.reset ctx.changes;
  let outcome ~metrics ~also ~errs ~extra =
    {
      metrics;
      also;
      errs;
      attempted = ctx.attempted;
      failed = ctx.failed;
      errors = ctx.errors;
      extra;
    }
  in
  let loop_rate (seg : seg) = float_of_int seg.commits /. (seg.wall_s -. seg.reads_s -. seg.extra_s) in
  if not o.trace then begin
    let seg = drive ctx target ~traced:false ~seconds:o.seconds ~min_commits in
    let live = seg.state_words in
    let oracle_s = oracle w ctx.base ~perturb:o.perturb in
    let errs = check ~what:"final" session.db oracle_s ctx.last in
    let ms x = 1000.0 *. x in
    let nc = S.n seg.commit_s and nq = S.n seg.query_s in
    let timings commits queries rate =
      [
        m "commit_p50_ms" "ms" nc (ms (S.pct commits 50.0));
        m "commit_p90_ms" "ms" nc (ms (S.pct commits 90.0));
        m "commits_per_s" "1/s" nc rate;
        m "query_p50_ms" "ms" nq (ms (S.pct queries 50.0));
        m "query_p90_ms" "ms" nq (ms (S.pct queries 90.0));
        m "query_p99_ms" "ms" nq (ms (S.pct queries 99.0));
      ]
    in
    let raw = timings seg.commit_s seg.query_s (loop_rate seg) in
    (* at the reference host speed (see [Cal]): each sample by the
       kernel runs around it, the rate by the loop's mean factor *)
    let marks = Array.init (Prelude.Vec.length seg.cal_marks) (Prelude.Vec.get seg.cal_marks) in
    let scaled =
      timings
        (Cal.scale_local seg.cal_s (Array.map fst marks) seg.commit_s)
        (Cal.scale_local seg.cal_s (Array.map snd marks) seg.query_s)
        (loop_rate seg /. Cal.mean_local seg.cal_s)
    in
    let reported, printed = List.partition (fun x -> x.name <> "query_p99_ms") scaled in
    outcome ~errs
      ~metrics:(reported @ [ m "live_heap_mb" "MB" 1 (mb live) ])
      ~also:
        (printed
        @ m "host.kernel_ms" "ms" (S.n seg.cal_s) (ms (S.pct seg.cal_s 50.0))
          :: List.map (fun x -> { x with name = "raw." ^ x.name }) raw
        @ m "peak_heap_mb" "MB" 1 (peak_heap_mb ())
          :: read_shape ctx ~commits:seg.commits)
      ~extra:(Printf.sprintf ", \"min_commits\": %d" min_commits)
  end
  else begin
    let half = o.seconds /. 2.0 and min_half = min_commits / 2 in
    let u = drive ctx target ~traced:false ~seconds:half ~min_commits:min_half in
    let live = u.state_words in
    let u_first = warmup and u_last = warmup + u.commits in
    let nd, ns =
      match w.mode with
      | Workloads.Update { par_domains; par_shards; _ } -> (par_domains, par_shards)
      | Workloads.Serve -> (1, 1)
    in
    (* the traced half records into one set of Obs rings: serve-tc
       hands the live session to a second engine created with them *)
    ctx.obs <- Obs.Trace.create ~capacity:(1 lsl 17) ~domains:(nd + ns - 1) ();
    let t_target =
      match w.mode with
      | Workloads.Serve ->
        target_of session
          (Some (Server.Engine.create ~maint:Datalog.Incremental.Counting ~obs:ctx.obs session))
      | Workloads.Update _ -> target
    in
    let t = drive ctx t_target ~traced:true ~seconds:half ~min_commits:min_half in
    let serve_engine = match t_target with Repl { engine; _ } -> Some engine | Session _ -> None in
    let oracle_s = oracle w ctx.base ~perturb:o.perturb in
    let errs = check ~what:"final" session.db oracle_s ctx.last in
    (* dred-mix replays a prefix of the untraced (serial)
       half's steps at the traced half's domains and shards, untraced:
       the warm-up, then timed steps for a quarter of --seconds (at
       least [min_half]) *)
    let parallel, errs =
      match w.mode with
      | Workloads.Update { maint; par_domains; par_shards } ->
        let r, _, _ = setup w src in
        let samples = S.create () and t_all = ref 0.0 and k = ref 0 in
        let base = Hashtbl.create 8192 in
        List.iter (fun f -> Hashtbl.replace base f ()) w.base;
        while
          !k < u_last && (!k < u_first || !t_all < o.seconds /. 4.0 || S.n samples < min_half)
        do
          let st = Prelude.Vec.get ctx.log !k in
          let t0 = now () in
          ignore
            (Incr_sched.update ~maint ~domains:par_domains ~shards:par_shards r
               ~additions:st.additions ~deletions:st.deletions);
          let dt = now () -. t0 in
          if !k >= u_first then begin
            S.add samples dt;
            t_all := !t_all +. dt
          end;
          List.iter (fun f -> Hashtbl.remove base f) st.deletions;
          List.iter (fun f -> Hashtbl.replace base f ()) st.additions;
          incr k
        done;
        let at_k = oracle w base ~perturb:o.perturb in
        (Some (samples, !t_all), errs @ check ~what:"parallel replay" r.db at_k [])
      | Workloads.Serve -> (None, errs)
    in
    mkdir_p o.out_dir;
    let file kind = Filename.concat o.out_dir (Printf.sprintf "%s-seed%d.%s.json" o.workload o.seed kind) in
    let obs_path = file "obs" and spans_path = file "spans" in
    Spans.write ctx.spans spans_path;
    let summaries, events = ring_summaries ctx ~path:obs_path ~per_update:(serve_engine = None) in
    let a = aggregate summaries in
    let tc = float_of_int (max 1 t.commits) in
    let per_commit_ms x = 1000.0 *. x /. tc in
    let us v = 1e6 *. S.mean v in
    let ms_pct v p = 1000.0 *. S.pct v p in
    let exec = nd > 1 in
    let if_ cond x = if cond then x else 0.0 in
    let workers_total = a.busy +. a.sched +. a.steal +. a.park +. a.idle in
    let shard_busy, shard_spans =
      List.fold_left
        (fun (b, n) (e : Obs.Summary.event) ->
          if e.kind = Obs.Event.shard then (b +. (float_of_int (e.t1_ns - e.t0_ns) /. 1e9), n + 1)
          else (b, n))
        (0.0, 0) events
    in
    let minor, major, majc = u.gc in
    let uc = float_of_int (max 1 u.commits) in
    let changed_prefix =
      (* the first commits after warm-up: the same steps for a given
         seed on every run, so this mean must repeat exactly *)
      let k = min min_half (S.n u.changed) in
      let sum = ref 0.0 in
      for i = 0 to k - 1 do
        sum := !sum +. Prelude.Vec.get u.changed i
      done;
      if k = 0 then 0.0 else !sum /. float_of_int k
    in
    let serial_p50, par_p50 =
      match parallel with
      | Some (v, _) -> (1000.0 *. S.prefix_pct u.commit_s (S.n v) 50.0, 1000.0 *. S.pct v 50.0)
      | None -> (0.0, 0.0)
    in
    (* tracing's cost: the traced half against the same configuration
       untraced (the untraced half on serve-tc, the parallel replay on
       dred-mix) *)
    let untraced_rate =
      match parallel with
      | Some (v, total) -> float_of_int (S.n v) /. total
      | None -> loop_rate u
    in
    let nt = t.commits and nu = u.commits in
    let metrics =
      [
        m "gc.live_words_per_tuple" "words" 1 (float_of_int live /. float_of_int tuples);
        m "engine.run_p50_ms" "ms" (S.n t.run_s) (ms_pct t.run_s 50.0);
        m "engine.run_p90_ms" "ms" (S.n t.run_s) (ms_pct t.run_s 90.0);
        m "engine.publish_p50_ms" "ms" (S.n t.publish_s) (ms_pct t.publish_s 50.0);
        m "engine.publish_p90_ms" "ms" (S.n t.publish_s) (ms_pct t.publish_s 90.0);
        m "repl.admit_us" "us" (S.n t.admit_s) (us t.admit_s);
        m "protocol.parse_us" "us" (S.n t.proto_s) (us t.proto_s);
        m "incremental.propagate_ms" "ms" nt (per_commit_ms a.prop);
        m "incremental.backward_ms" "ms" nt (per_commit_ms a.back);
        m "incremental.forward_ms" "ms" nt (per_commit_ms a.fwd);
        m "incremental.o1_hits" "count" nt (float_of_int a.o1 /. tc);
        m "incremental.full_probes" "count" nt (float_of_int a.probes /. tc);
        m "incremental.o1_share" "share" nt
          (share (float_of_int a.o1) (float_of_int (a.o1 + a.probes)));
        m "incremental.delete_ms" "ms" nt (per_commit_ms a.del);
        m "incremental.rederive_ms" "ms" nt (per_commit_ms a.red);
        m "incremental.insert_ms" "ms" nt (per_commit_ms a.ins);
        m "incremental.rederive_share" "share" nt (share a.red (a.del +. a.red +. a.ins));
        m "incremental.changed_per_commit" "count" (min min_half (S.n u.changed)) changed_prefix;
        m "executor.busy_share" "share" nt (if_ exec (share a.busy workers_total));
        m "executor.sched_share" "share" nt (if_ exec (share a.sched workers_total));
        m "executor.steal_share" "share" nt (if_ exec (share a.steal workers_total));
        m "executor.park_share" "share" nt (if_ exec (share a.park workers_total));
        m "executor.idle_share" "share" nt (if_ exec (share a.idle workers_total));
        m "executor.utilization" "share" nt (if_ exec (share a.busy a.span));
        m "executor.tasks" "count" nt (if_ exec (float_of_int a.tasks /. tc));
        m "executor.stolen" "count" nt (if_ exec (float_of_int a.stolen /. tc));
        m "shard_crew.busy_ms" "ms" nt (if_ (ns > 1) (per_commit_ms shard_busy));
        m "shard_crew.spans" "count" nt (if_ (ns > 1) (float_of_int shard_spans /. tc));
        m "parallel.serial_ms" "ms" nu serial_p50;
        m "parallel.parallel_ms" "ms" nu par_p50;
        m "parallel.speedup" "ratio" nu (share serial_p50 par_p50);
        m "engine.query_us" "us" (S.n t.engine_query_s) (us t.engine_query_s);
        m "repl.reply_us" "us" (S.n t.reply_s) (us t.reply_s);
        m "query.rows_returned" "count" (S.n t.query_s)
          (float_of_int t.rows /. float_of_int (max 1 (S.n t.query_s)));
        m "gc.minor_words_per_commit" "words" nu (minor /. uc);
        m "gc.major_words_per_commit" "words" nu (major /. uc);
        m "gc.major_collections" "count" nu (float_of_int majc /. uc);
        m "gc.peak_heap_mb" "MB" 1 (peak_heap_mb ());
        m "engine.snapshot_facts" "count" 1
          (match serve_engine with
          | Some e -> float_of_int (Server.Engine.snapshot_facts e)
          | None -> 0.0);
        m "obs.overhead_share" "share" nt (1.0 -. share (loop_rate t) untraced_rate);
      ]
    in
    Printf.printf "trace %s (%d program events, %d dropped), spans %s (%d)\n" obs_path
      (List.length events) (Obs.Trace.dropped ctx.obs) spans_path (Spans.count ctx.spans);
    outcome ~metrics ~also:(read_shape ctx ~commits:(nu + nt)) ~errs
      ~extra:
        (Printf.sprintf
           ", \"untraced_commits\": %d, \"traced_commits\": %d, \"parallel_replay_commits\": %d, \
            \"obs_trace\": \"%s\", \"spans\": \"%s\", \"obs_dropped\": %d"
           nu nt
           (match parallel with Some (v, _) -> S.n v | None -> 0)
           obs_path spans_path (Obs.Trace.dropped ctx.obs))
  end

(* Half of the set-ups run before the loop and half after it, with the
   measured session dropped, so that setup_s samples the machine at
   both ends of the run. *)
let run o =
  let w = Workloads.make o.workload ~smoke:o.smoke ~seed:o.seed in
  let src = Workloads.source ~base:w.base ~rules:w.rules in
  let before, kept, cal_before = set_up_many w src in
  let r = measure o w src kept ~tuples:(List.hd before).tuples in
  let after, _, cal_after = set_up_many w src in
  let setup, setup_also = setup_metrics o w (before, cal_before) (after, cal_after) in
  finish o
    { r with metrics = setup @ r.metrics; also = setup_also @ r.also }
    ~setups:(List.length before + List.length after)

let () = run (parse_args ())
