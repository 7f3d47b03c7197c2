(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section VI) plus the analytical claims of Sections II-V,
   on the reconstructed workloads of DESIGN.md.

   Usage:
     dune exec bench/main.exe                # everything
     dune exec bench/main.exe -- table2 fig2 # selected sections

   Sections: table1 table2 table3 fig1 fig2 overhead memory bounds
             rescue datalog datalog-smoke maintain-par maintain-par-smoke
             maintain-shard maintain-shard-smoke maintain-count
             maintain-count-smoke serve serve-smoke ablation parallel
             dispatch dispatch-smoke stream micro *)

let procs = Workload.Paper_traces.processors

let banner fmt =
  Format.printf "@.==========================================================@.";
  Format.kfprintf
    (fun ppf -> Format.fprintf ppf "@.==========================================================@.")
    Format.std_formatter fmt

(* Trace cache: each paper trace is generated once per process. *)
let trace_cache : (int, Workload.Trace.t) Hashtbl.t = Hashtbl.create 11

let paper_trace id =
  match Hashtbl.find_opt trace_cache id with
  | Some t -> t
  | None ->
    let t = Workload.Paper_traces.generate id in
    Hashtbl.add trace_cache id t;
    t

let run_sched ?(p = procs) trace name =
  Incr_sched.schedule ~procs:p ~sched:name trace

let opt_str = function Some v -> Printf.sprintf "%12.3f" v | None -> "           -"

(* ---------------------------------------------------------------- *)
(* Table I: structural statistics of the job traces                  *)
(* ---------------------------------------------------------------- *)

let table1 () =
  banner "Table I: workload traces (paper target vs reconstruction)";
  Format.printf
    "%-6s %10s %10s %9s %9s %7s   %10s %10s %9s %9s %7s@." "trace" "nodes" "edges"
    "initial" "active" "levels" "nodes'" "edges'" "initial'" "active'" "levels'";
  for id = 1 to 11 do
    let sp = Workload.Paper_traces.spec id in
    let s = Workload.Trace.stats (paper_trace id) in
    Format.printf "#%-5d %10d %10d %9d %9d %7d   %10d %10d %9d %9d %7d@." id
      sp.Workload.Paper_traces.nodes sp.Workload.Paper_traces.edges
      sp.Workload.Paper_traces.initial_tasks sp.Workload.Paper_traces.active_jobs
      sp.Workload.Paper_traces.levels s.Workload.Trace.nodes s.Workload.Trace.edges
      s.Workload.Trace.initial_tasks s.Workload.Trace.active_jobs
      s.Workload.Trace.levels
  done;
  Format.printf
    "@.(primed columns: our reconstruction; nodes/edges/initial/levels are exact@.\
     by construction, active jobs matched by threshold calibration.)@."

(* ---------------------------------------------------------------- *)
(* Table II: total makespan, traces #1-#5, P = 8                     *)
(* ---------------------------------------------------------------- *)

let table2 () =
  banner "Table II: total makespan (s), traces #1-#5, P=%d" procs;
  Format.printf "%-6s | %-6s %12s %12s %12s %12s %12s %12s@." "trace" "" "LogicBlox"
    "LevelBased" "LBL(5)" "LBL(10)" "LBL(15)" "LBL(20)";
  for id = 1 to 5 do
    let t = paper_trace id in
    let sp = Workload.Paper_traces.spec id in
    let m name = (run_sched t name).Simulator.Metrics.makespan in
    let ours =
      [ m "logicblox"; m "levelbased"; m "lbl:5"; m "lbl:10"; m "lbl:15"; m "lbl:20" ]
    in
    let paper =
      [
        sp.Workload.Paper_traces.paper_makespan_logicblox;
        sp.Workload.Paper_traces.paper_makespan_levelbased;
        List.assoc_opt 5 sp.Workload.Paper_traces.paper_lbl;
        List.assoc_opt 10 sp.Workload.Paper_traces.paper_lbl;
        List.assoc_opt 15 sp.Workload.Paper_traces.paper_lbl;
        List.assoc_opt 20 sp.Workload.Paper_traces.paper_lbl;
      ]
    in
    Format.printf "#%-5d | %-6s" id "paper";
    List.iter (fun v -> Format.printf " %s" (opt_str v)) paper;
    Format.printf "@.%-6s | %-6s" "" "ours";
    List.iter (fun v -> Format.printf " %12.3f" v) ours;
    Format.printf "@."
  done;
  Format.printf
    "@.(expected shape: LevelBased worst, LBL(k) improving with k and@.\
     approaching LogicBlox by k=15-20; scheduling overhead negligible here.)@."

(* ---------------------------------------------------------------- *)
(* Table III: makespan and scheduling overhead, traces #6-#11        *)
(* ---------------------------------------------------------------- *)

let table3 () =
  banner "Table III: (makespan s, overhead s), traces #6-#11, P=%d" procs;
  Format.printf "%-6s %-6s | %12s %12s | %12s %12s | %12s %12s@." "trace" "" "LogicBlox"
    "" "LevelBased" "" "Hybrid" "";
  Format.printf "%-6s %-6s | %12s %12s | %12s %12s | %12s %12s@." "" "" "makespan"
    "overhead" "makespan" "overhead" "makespan" "overhead";
  for id = 6 to 11 do
    let t = paper_trace id in
    let sp = Workload.Paper_traces.spec id in
    Format.printf "#%-5d %-6s | %s %s | %s %s | %s %s@." id "paper"
      (opt_str sp.Workload.Paper_traces.paper_makespan_logicblox)
      (opt_str sp.Workload.Paper_traces.paper_overhead_logicblox)
      (opt_str sp.Workload.Paper_traces.paper_makespan_levelbased)
      (opt_str sp.Workload.Paper_traces.paper_overhead_levelbased)
      (opt_str sp.Workload.Paper_traces.paper_makespan_hybrid)
      (opt_str sp.Workload.Paper_traces.paper_overhead_hybrid);
    let mx = run_sched t "logicblox" in
    let ml = run_sched t "levelbased" in
    let mh = run_sched t "hybrid" in
    Format.printf "%-6s %-6s | %12.3f %12.4f | %12.3f %12.4f | %12.3f %12.4f@."
      "" "ours" mx.Simulator.Metrics.makespan mx.Simulator.Metrics.sched_overhead
      ml.Simulator.Metrics.makespan ml.Simulator.Metrics.sched_overhead
      mh.Simulator.Metrics.makespan mh.Simulator.Metrics.sched_overhead;
    let ratio =
      if mh.Simulator.Metrics.sched_overhead > 0.0 then
        mx.Simulator.Metrics.sched_overhead /. mh.Simulator.Metrics.sched_overhead
      else infinity
    in
    Format.printf "%-6s %-6s | hybrid cuts LogicBlox overhead by %.1fx@." "" "" ratio
  done;
  Format.printf
    "@.(expected shape: hybrid makespan tracks the better of the other two;@.\
     hybrid overhead consistently below LogicBlox, sharply on the shallow@.\
     traces #6 and #11.)@."

(* ---------------------------------------------------------------- *)
(* Figure 1: anatomy of trace #1's DAG                               *)
(* ---------------------------------------------------------------- *)

let fig1 () =
  banner "Figure 1: anatomy of job trace #1";
  let t = paper_trace 1 in
  let s = Workload.Trace.stats t in
  let g = t.Workload.Trace.graph in
  let descendants = Dag.Reach.descendants_of_set g t.Workload.Trace.initial in
  let active = Workload.Trace.active_set t in
  Format.printf "nodes (predicate nodes)           %d  (paper: 64,910)@."
    s.Workload.Trace.nodes;
  Format.printf "edges (dependencies)              %d  (paper: 101,327)@."
    s.Workload.Trace.edges;
  Format.printf "activatable task nodes            %d  (paper: 20,134)@."
    s.Workload.Trace.activatable;
  Format.printf "initially updated tasks           %d  (paper: 5)@."
    s.Workload.Trace.initial_tasks;
  Format.printf "total descendants of the update   %d  (paper: 1,680)@."
    (Prelude.Bitset.cardinal descendants);
  Format.printf "descendants actually activated    %d  (paper: 532)@."
    (Prelude.Bitset.cardinal active - s.Workload.Trace.initial_tasks);
  (* export the active subgraph for rendering (the full DAG would print
     a mile long at 300 DPI, as the paper notes) *)
  let ids = Prelude.Bitset.to_list active in
  let remap = Hashtbl.create 64 in
  List.iteri (fun i u -> Hashtbl.add remap u i) ids;
  let b = Dag.Graph.Builder.create ~nodes:(List.length ids) () in
  Dag.Graph.iter_edges g (fun ~src ~dst ~eid:_ ->
      match (Hashtbl.find_opt remap src, Hashtbl.find_opt remap dst) with
      | Some a, Some c -> ignore (Dag.Graph.Builder.add_edge b a c)
      | _ -> ());
  let sub = Dag.Graph.Builder.build b in
  let path = "fig1_active_subgraph.dot" in
  Dag.Dot.to_file path sub;
  Format.printf "active subgraph written to %s (%d nodes, %d edges)@." path
    (Dag.Graph.node_count sub) (Dag.Graph.edge_count sub)

(* ---------------------------------------------------------------- *)
(* Figure 2 / Theorem 9: the tight example                           *)
(* ---------------------------------------------------------------- *)

let fig2 () =
  banner "Figure 2 / Theorem 9: tight example, LevelBased Theta(L^2) vs optimal Theta(L)";
  Format.printf "%8s %14s %14s %14s %14s %10s@." "L" "LevelBased" "LBL(L)" "Hybrid"
    "Clairvoyant" "LB/OPT";
  List.iter
    (fun levels ->
      let t = Workload.Pathological.tight_example ~levels in
      let config =
        { Simulator.Engine.procs = levels + 2; op_cost = 0.0; record_log = false }
      in
      let m sched =
        (Simulator.Engine.run ~config ~sched t).Simulator.Engine.metrics
          .Simulator.Metrics.makespan
      in
      let lb = m Sched.Level_based.factory in
      let lbl = m (Sched.Lookahead.factory ~k:levels) in
      let hy = m Sched.Hybrid.factory in
      let opt = m (Simulator.Engine.clairvoyant_factory t) in
      Format.printf "%8d %14.1f %14.1f %14.1f %14.1f %10.2f@." levels lb lbl hy opt
        (lb /. opt))
    [ 8; 16; 32; 64; 128; 256 ];
  Format.printf
    "@.(LB/OPT grows linearly in L: the Theta(L^2) vs Theta(L) separation;@.\
     lookahead and the hybrid both recover the optimal shape.)@."

(* ---------------------------------------------------------------- *)
(* Theorem 2: scheduler decision cost scaling                        *)
(* ---------------------------------------------------------------- *)

let overhead () =
  banner "Theorem 2: decision-operation scaling (broom instances)";
  Format.printf "%10s %16s %16s %16s %12s@." "n" "LevelBased ops" "LogicBlox ops"
    "Hybrid ops" "LBX/LB";
  List.iter
    (fun n ->
      let t = Workload.Pathological.broom ~spine:n ~fan:n in
      let ops name = Sched.Intf.total_ops (run_sched ~p:8 t name).Simulator.Metrics.ops in
      let lb = ops "levelbased" and lbx = ops "logicblox" and hy = ops "hybrid" in
      Format.printf "%10d %16d %16d %16d %12.1f@." (2 * n) lb lbx hy
        (float_of_int lbx /. float_of_int lb))
    [ 250; 500; 1000; 2000 ];
  Format.printf
    "@.(LogicBlox ops grow quadratically — the O(n^3) family of Section II-C —@.\
     while LevelBased stays linear in n + L, Theorem 2; the hybrid tracks@.\
     LevelBased because the shared ready queue starves the scan loop.)@."

let memory () =
  banner "Interval-list memory: O(V^2) worst case vs O(V) LevelBased state";
  Format.printf "%10s %18s %18s %12s@." "width" "LogicBlox words" "LevelBased words"
    "ratio";
  List.iter
    (fun width ->
      let t =
        Workload.Pathological.interval_blowup ~width ~layers:4 ~density:0.5 ~seed:99
      in
      let m name = (run_sched ~p:8 t name).Simulator.Metrics.memory_words in
      let lbx = m "logicblox" and lb = m "levelbased" in
      Format.printf "%10d %18d %18d %12.1f@." width lbx lb
        (float_of_int lbx /. float_of_int lb))
    [ 50; 100; 200; 400 ];
  Format.printf "@.(doubling the width quadruples the LogicBlox footprint.)@."

(* ---------------------------------------------------------------- *)
(* Lemmas 3 and 5: makespan bounds on random workloads               *)
(* ---------------------------------------------------------------- *)

let bounds () =
  banner "Lemmas 3/5: LevelBased makespan <= w/P + L on unit / fully-parallel tasks";
  let check_kind name shape_of =
    let worst = ref 0.0 in
    for seed = 1 to 40 do
      let t0 =
        Workload.Pathological.unit_layers ~width:(10 + (seed mod 13))
          ~layers:(5 + (seed mod 17)) ~fanout:2 ~seed
      in
      let n = Dag.Graph.node_count t0.Workload.Trace.graph in
      let t = { t0 with Workload.Trace.shape = Array.init n shape_of } in
      let p = 4 in
      let m =
        (Simulator.Engine.run
           ~config:{ Simulator.Engine.procs = p; op_cost = 0.0; record_log = false }
           ~sched:Sched.Level_based.factory t)
          .Simulator.Engine.metrics
      in
      let w = Workload.Trace.total_active_work t in
      let levels = (Workload.Trace.stats t).Workload.Trace.levels in
      let bound = (w /. float_of_int p) +. float_of_int levels in
      let ratio = m.Simulator.Metrics.makespan /. bound in
      if ratio > !worst then worst := ratio
    done;
    Format.printf "  %-24s worst makespan / (w/P + L) over 40 instances: %.3f@." name
      !worst;
    if !worst > 1.0 +. 1e-9 then Format.printf "  *** BOUND VIOLATED ***@."
  in
  check_kind "unit tasks" (fun _ -> Workload.Trace.Unit);
  check_kind "fully parallelizable" (fun i ->
      Workload.Trace.Par (1.0 +. float_of_int (i mod 7)))

(* ---------------------------------------------------------------- *)
(* Section VI anecdote: the hybrid rescue                            *)
(* ---------------------------------------------------------------- *)

let rescue () =
  banner "Section VI anecdote: instance where the hybrid runs ~100x ahead";
  let t = Workload.Pathological.broom ~spine:5000 ~fan:5000 in
  let lbx = run_sched ~p:8 t "logicblox" in
  let hy = run_sched ~p:8 t "hybrid" in
  Format.printf "LogicBlox : makespan %10.3f  overhead %10.4f  ops %12d@."
    lbx.Simulator.Metrics.makespan lbx.Simulator.Metrics.sched_overhead
    (Sched.Intf.total_ops lbx.Simulator.Metrics.ops);
  Format.printf "Hybrid    : makespan %10.3f  overhead %10.4f  ops %12d@."
    hy.Simulator.Metrics.makespan hy.Simulator.Metrics.sched_overhead
    (Sched.Intf.total_ops hy.Simulator.Metrics.ops);
  Format.printf "overhead ratio: %.0fx@."
    (lbx.Simulator.Metrics.sched_overhead /. hy.Simulator.Metrics.sched_overhead)

(* ---------------------------------------------------------------- *)
(* Datalog end-to-end: compiled plans vs the interpretive oracle      *)
(* ---------------------------------------------------------------- *)

(* Evaluation-engine benchmark for the rule-compilation layer. Each
   program is materialized from scratch and then maintained through a
   stream of randomized insert/retract batches, once per engine, on twin
   databases fed identical updates; [Eval.databases_agree] is asserted
   after every run so the numbers can only come from equivalent
   computations. Throughput is job tuples per second — derived tuples
   for materialization, net changed tuples for maintenance — so the
   compiled/interpreted speedup equals the wall-time ratio on the same
   job. A final row runs a [To_trace]-derived update end to end —
   maintenance plus parallel execution of the revealed DAG on the
   executor — once per engine. *)

type dlrow = {
  dl_program : string;
  dl_phase : string;  (* "materialize" | "maintain" *)
  dl_engine : string;
  dl_tuples : int;
  dl_seconds : float;
  dl_rate : float;
}

let dl_engines = [ (Datalog.Plan.Interpreted, "interpreted"); (Datalog.Plan.Compiled, "compiled") ]

(* (name, program, update batches): base facts live in the program
   source; deletions rotate through distinct base facts so every batch
   really retracts something, additions are fresh random facts. *)
let dl_programs ~smoke =
  let rng = Prelude.Rng.create 4242 in
  let batches = if smoke then 5 else 30 in
  let mk name rules gen_fact n_base =
    let base = List.init n_base (fun _ -> gen_fact ()) |> List.sort_uniq compare in
    let src =
      String.concat "" (List.map (fun f -> f ^ ".\n") base) ^ rules
    in
    let program = Datalog.Parser.parse src in
    let base_arr = Array.of_list base in
    let cursor = ref 0 in
    let updates =
      List.init batches (fun _ ->
          let adds = List.init 3 (fun _ -> Datalog.Parser.parse_atom (gen_fact ())) in
          let dels =
            List.init 2 (fun _ ->
                let f = base_arr.(!cursor mod Array.length base_arr) in
                incr cursor;
                Datalog.Parser.parse_atom f)
          in
          (adds, dels))
    in
    (name, program, updates)
  in
  let tc_n = if smoke then 40 else 100 in
  let edge () =
    Printf.sprintf {|edge("v%d","v%d")|} (Prelude.Rng.int rng tc_n)
      (Prelude.Rng.int rng tc_n)
  in
  let sg_n = if smoke then 25 else 60 in
  let parent () =
    let c = 1 + Prelude.Rng.int rng (sg_n - 1) in
    Printf.sprintf {|parent("n%d","n%d")|} (Prelude.Rng.int rng c) c
  in
  let ord_n = if smoke then 15 else 40 in
  let line () =
    Printf.sprintf {|line("o%d","i%d",%d)|} (Prelude.Rng.int rng ord_n)
      (Prelude.Rng.int rng (3 * ord_n))
      (1 + Prelude.Rng.int rng 9)
  in
  let syn_n = if smoke then 18 else 36 in
  let e () =
    Printf.sprintf {|e("w%d","w%d")|} (Prelude.Rng.int rng syn_n)
      (Prelude.Rng.int rng syn_n)
  in
  [
    mk "tc-neg"
      "path(X,Y) :- edge(X,Y).\npath(X,Z) :- path(X,Y), edge(Y,Z).\n\
       node(X) :- edge(X,Y).\nnode(Y) :- edge(X,Y).\n\
       far(X,Y) :- node(X), node(Y), !path(X,Y), X != Y.\n"
      edge
      (if smoke then 90 else 300);
    mk "same-gen"
      "sg(X,Y) :- parent(P,X), parent(P,Y), X != Y.\n\
       sg(X,Y) :- parent(PX,X), sg(PX,PY), parent(PY,Y).\n"
      parent
      (if smoke then 60 else 150);
    mk "orders-agg"
      "total(O, cnt(I), sum(N)) :- line(O, I, N).\n\
       hi(O, max(N)) :- line(O, I, N).\n\
       grand(sum(T)) :- total(O, C, T).\n\
       busy(O) :- total(O, C, T), C >= 3.\n"
      line
      (if smoke then 120 else 400);
    mk "synthetic"
      "t1(X,Y) :- e(X,Y).\nt1(X,Z) :- t1(X,Y), e(Y,Z).\n\
       t2(X,Y) :- t1(X,Y), X != Y.\n\
       t3(X,Z) :- t2(X,Y), t2(Y,Z), X < Z.\n\
       t4(X) :- t3(X,Y), !t2(Y,X).\n\
       t5(X, cnt(Y)) :- t3(X,Y).\n"
      e
      (if smoke then 45 else 110);
  ]

let dl_run_engine engine program updates =
  let db = Datalog.Database.create () in
  let t0 = Unix.gettimeofday () in
  let _, stats = Datalog.Eval.run ~engine db program in
  let mat_s = Unix.gettimeofday () -. t0 in
  let derived =
    List.fold_left (fun acc s -> acc + s.Datalog.Eval.derived) 0 stats
  in
  let changed = ref 0 in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (adds, dels) ->
      let r = Datalog.Incremental.apply ~engine db program ~additions:adds ~deletions:dels in
      List.iter
        (fun (c : Datalog.Incremental.pred_change) ->
          changed := !changed + c.Datalog.Incremental.added + c.Datalog.Incremental.removed)
        r.Datalog.Incremental.changes)
    updates;
  let maint_s = Unix.gettimeofday () -. t0 in
  (db, mat_s, derived, maint_s, !changed)

(* Compiled evaluation composed with the real parallel executor: one
   update's wall time is (maintenance + executing the revealed DAG),
   where task processing time is tuples-examined at 1 us per tuple.
   The baseline is the interpreter feeding the retained big-lock
   executor — the two PRs' gains in one number. *)
let dl_end_to_end ~smoke =
  let rng = Prelude.Rng.create 515 in
  let n = if smoke then 40 else 100 in
  let edge () =
    Printf.sprintf {|edge("v%d","v%d")|} (Prelude.Rng.int rng n) (Prelude.Rng.int rng n)
  in
  let base = List.init (if smoke then 90 else 300) (fun _ -> edge ()) |> List.sort_uniq compare in
  let src =
    String.concat "" (List.map (fun f -> f ^ ".\n") base)
    ^ "path(X,Y) :- edge(X,Y).\npath(X,Z) :- path(X,Y), edge(Y,Z).\n\
       node(X) :- edge(X,Y).\nnode(Y) :- edge(X,Y).\n\
       far(X,Y) :- node(X), node(Y), !path(X,Y), X != Y.\n"
  in
  let program = Datalog.Parser.parse src in
  let additions = List.init 3 (fun _ -> Datalog.Parser.parse_atom (edge ())) in
  let deletions =
    [ Datalog.Parser.parse_atom (List.hd base); Datalog.Parser.parse_atom (List.nth base 1) ]
  in
  let sched = Sched.Registry.find_exn "levelbased" in
  let run engine =
    let db = Datalog.Database.create () in
    ignore (Datalog.Eval.run ~engine db program);
    let t0 = Unix.gettimeofday () in
    let tt = Datalog.To_trace.of_update ~work_unit:1.0 ~engine db program ~additions ~deletions in
    let maint = Unix.gettimeofday () -. t0 in
    let trace = tt.Datalog.To_trace.trace in
    let domains = 4 in
    let r = Parallel.Executor.run ~domains ~work_unit:1e-6 ~batch:256 ~sched trace in
    (maint, r.Parallel.Executor.wall_makespan, r.Parallel.Executor.tasks_executed)
  in
  let im, iw, _ = run Datalog.Plan.Interpreted in
  let cm, cw, tasks = run Datalog.Plan.Compiled in
  let interp_total = im +. iw and comp_total = cm +. cw in
  Format.printf
    "@.end-to-end (tc-neg update, maintenance + parallel execution of the revealed DAG, %d tasks):@."
    tasks;
  Format.printf "  interpreter + executor : %.4f s  (maintain %.4f + execute %.4f)@."
    interp_total im iw;
  Format.printf "  compiled    + executor : %.4f s  (maintain %.4f + execute %.4f)@."
    comp_total cm cw;
  Format.printf "  composed speedup: %.2fx@." (interp_total /. Float.max comp_total 1e-9);
  (interp_total, comp_total, tasks)

let datalog_json rows headline end_to_end path =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"benchmark\": \"datalog\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"host_cores\": %d,\n" (Domain.recommended_domain_count ()));
  (match headline with
  | Some (prog, interp, comp) ->
    Buffer.add_string b
      (Printf.sprintf
         "  \"headline\": {\"program\": \"%s\", \"phase\": \"maintain\", \
          \"interpreted_s\": %.6f, \"compiled_s\": %.6f, \
          \"compiled_tuples_per_sec\": %.0f, \"speedup\": %.3f},\n"
         prog interp.dl_seconds comp.dl_seconds comp.dl_rate
         (interp.dl_seconds /. Float.max comp.dl_seconds 1e-9))
  | None -> ());
  (match end_to_end with
  | Some (interp_total, comp_total, tasks) ->
    Buffer.add_string b
      (Printf.sprintf
         "  \"end_to_end\": {\"program\": \"tc-neg\", \"tasks\": %d, \
          \"interpreted_plus_executor_s\": %.6f, \"compiled_plus_executor_s\": %.6f, \
          \"speedup\": %.3f},\n"
         tasks interp_total comp_total (interp_total /. Float.max comp_total 1e-9))
  | None -> ());
  Buffer.add_string b "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"program\": \"%s\", \"phase\": \"%s\", \"engine\": \"%s\", \
            \"tuples\": %d, \"seconds\": %.6f, \"tuples_per_sec\": %.0f}%s\n"
           r.dl_program r.dl_phase r.dl_engine r.dl_tuples r.dl_seconds r.dl_rate
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.printf "@.wrote %s@." path

let datalog_core ~smoke () =
  banner "Datalog engine: compiled plans vs interpreter (materialize + maintain)";
  let programs = dl_programs ~smoke in
  let rows = ref [] in
  let maint = Hashtbl.create 8 in
  Format.printf "%-12s %-12s %-12s %10s %12s %14s@." "program" "phase" "engine"
    "tuples" "seconds" "tuples/s";
  List.iter
    (fun (name, program, updates) ->
      let results =
        List.map
          (fun (engine, ename) -> (ename, dl_run_engine engine program updates))
          dl_engines
      in
      (match results with
      | [ (_, (db_a, _, _, _, _)); (_, (db_b, _, _, _, _)) ] -> (
        match Datalog.Eval.databases_agree db_a db_b with
        | Ok () -> ()
        | Error e -> Format.printf "  *** ENGINES DISAGREE on %s: %s ***@." name e)
      | _ -> ());
      List.iter
        (fun (ename, (_, mat_s, derived, maint_s, changed)) ->
          let row phase tuples seconds =
            let r =
              { dl_program = name; dl_phase = phase; dl_engine = ename;
                dl_tuples = tuples; dl_seconds = seconds;
                dl_rate = float_of_int tuples /. Float.max seconds 1e-9 }
            in
            rows := r :: !rows;
            Format.printf "%-12s %-12s %-12s %10d %12.4f %14.0f@." name phase ename
              tuples seconds r.dl_rate;
            r
          in
          ignore (row "materialize" derived mat_s);
          let r = row "maintain" changed maint_s in
          Hashtbl.replace maint (name, ename) r)
        results)
    programs;
  let rows = List.rev !rows in
  (* headline: the program where compilation helps maintenance most *)
  let headline =
    List.fold_left
      (fun best (name, _, _) ->
        match (Hashtbl.find_opt maint (name, "interpreted"), Hashtbl.find_opt maint (name, "compiled")) with
        | Some i, Some c ->
          let sp = i.dl_seconds /. Float.max c.dl_seconds 1e-9 in
          (match best with
          | Some (_, bi, bc) when bi.dl_seconds /. Float.max bc.dl_seconds 1e-9 >= sp -> best
          | _ -> Some (name, i, c))
        | _ -> best)
      None programs
  in
  (match headline with
  | Some (prog, i, c) ->
    Format.printf
      "@.headline: %s maintenance — interpreter %.4f s, compiled %.4f s: %.2fx@."
      prog i.dl_seconds c.dl_seconds (i.dl_seconds /. Float.max c.dl_seconds 1e-9)
  | None -> ());
  let e2e = dl_end_to_end ~smoke in
  datalog_json rows
    (Option.map (fun (p, i, c) -> (p, i, c)) headline)
    (Some e2e)
    (if smoke then "BENCH_datalog_smoke.json" else "BENCH_datalog.json")

let datalog () = datalog_core ~smoke:false ()

let datalog_smoke () = datalog_core ~smoke:true ()

(* ---------------------------------------------------------------- *)
(* maintain-par: real parallel maintenance on the executor           *)
(* ---------------------------------------------------------------- *)

(* The paper's Table III quantity, finally measured for real: wall
   clock of DRed maintenance when the condensation components run as
   actual tasks on P worker domains (Incremental.apply_parallel, one
   task per component, LevelBased scheduling) vs the serial walk —
   same compiled engine on both sides, so the ratio isolates the
   scheduling. Workloads: the datalog-section programs plus a wide
   synthetic one (many independent TC groups) whose condensation has
   enough mutually-independent components to keep 8 domains busy. *)

type mp_row = {
  mp_workload : string;
  mp_mode : string;  (* "serial" or "par-N" *)
  mp_seconds : float;
  mp_changed : int;
  mp_speedup : float;  (* serial seconds / this mode's seconds *)
}

let mp_wide ~smoke =
  let rng = Prelude.Rng.create 777 in
  let groups = if smoke then 6 else 48 in
  let verts = if smoke then 12 else 26 in
  let nedges = if smoke then 30 else 90 in
  let batches = if smoke then 3 else 12 in
  let edge g () =
    Printf.sprintf {|edge%d("v%d","v%d")|} g (Prelude.Rng.int rng verts)
      (Prelude.Rng.int rng verts)
  in
  let base =
    List.concat (List.init groups (fun g -> List.init nedges (fun _ -> edge g ())))
    |> List.sort_uniq compare
  in
  let rules =
    String.concat ""
      (List.init groups (fun g ->
           Printf.sprintf
             "path%d(X,Y) :- edge%d(X,Y).\npath%d(X,Z) :- path%d(X,Y), edge%d(Y,Z).\n"
             g g g g g))
  in
  let src = String.concat "" (List.map (fun f -> f ^ ".\n") base) ^ rules in
  let program = Datalog.Parser.parse src in
  let base_arr = Array.of_list base in
  let cursor = ref 0 in
  let updates =
    List.init batches (fun _ ->
        let adds = List.init groups (fun g -> Datalog.Parser.parse_atom (edge g ())) in
        let dels =
          List.init groups (fun _ ->
              let f = base_arr.(!cursor mod Array.length base_arr) in
              incr cursor;
              Datalog.Parser.parse_atom f)
        in
        (adds, dels))
  in
  (Printf.sprintf "wide-%dtc" groups, program, updates)

let mp_run ?(obs = Obs.Trace.disabled) ?(shards = 1) ?serial_threshold ~domains
    program updates =
  let engine = Datalog.Plan.Compiled in
  let db = Datalog.Database.create () in
  ignore (Datalog.Eval.run ~engine db program);
  let changed = ref 0 in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (adds, dels) ->
      let r =
        if domains <= 1 && shards <= 1 then
          Datalog.Incremental.apply ~engine ~obs db program ~additions:adds
            ~deletions:dels
        else
          Datalog.Incremental.apply_parallel ~engine ~domains ~shards
            ?serial_threshold ~obs db program ~additions:adds ~deletions:dels
      in
      List.iter
        (fun (c : Datalog.Incremental.pred_change) ->
          changed := !changed + c.Datalog.Incremental.added + c.Datalog.Incremental.removed)
        r.Datalog.Incremental.changes)
    updates;
  let s = Unix.gettimeofday () -. t0 in
  (db, s, !changed)

let maintain_par_json rows headline breakdown domain_set path =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"benchmark\": \"maintain-par\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"host_cores\": %d,\n  \"sched\": \"levelbased\",\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string b
    (Printf.sprintf "  \"breakdown\": %s,\n" (Obs.Summary.json breakdown));
  Buffer.add_string b
    (Printf.sprintf "  \"domains\": [%s],\n"
       (String.concat ", " (List.map string_of_int domain_set)));
  (match headline with
  | Some (wl, d, serial_s, par_s) ->
    Buffer.add_string b
      (Printf.sprintf
         "  \"headline\": {\"workload\": \"%s\", \"domains\": %d, \
          \"serial_s\": %.6f, \"parallel_s\": %.6f, \"speedup\": %.3f},\n"
         wl d serial_s par_s (serial_s /. Float.max par_s 1e-9))
  | None -> ());
  Buffer.add_string b "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"workload\": \"%s\", \"mode\": \"%s\", \"changed\": %d, \
            \"seconds\": %.6f, \"speedup\": %.3f}%s\n"
           r.mp_workload r.mp_mode r.mp_changed r.mp_seconds r.mp_speedup
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.printf "@.wrote %s@." path

let maintain_par_core ~smoke () =
  banner "Parallel incremental maintenance: serial vs P-domain DRed (compiled engine)";
  let cores = Domain.recommended_domain_count () in
  let domain_set = if smoke then [ 2 ] else [ 2; 4; 8 ] in
  let workloads = dl_programs ~smoke @ [ mp_wide ~smoke ] in
  let rows = ref [] in
  let best = ref None in
  Format.printf "%-12s %-8s %10s %12s %10s@." "workload" "mode" "changed" "seconds"
    "speedup";
  List.iter
    (fun (name, program, updates) ->
      let db_serial, serial_s, serial_changed = mp_run ~domains:1 program updates in
      let emit mode seconds changed =
        let r =
          { mp_workload = name; mp_mode = mode; mp_seconds = seconds;
            mp_changed = changed; mp_speedup = serial_s /. Float.max seconds 1e-9 }
        in
        rows := r :: !rows;
        Format.printf "%-12s %-8s %10d %12.4f %9.2fx@." name mode changed seconds
          r.mp_speedup
      in
      emit "serial" serial_s serial_changed;
      List.iter
        (fun domains ->
          let db_par, par_s, par_changed = mp_run ~domains program updates in
          (* the differential guarantee, asserted on every bench run:
             parallel maintenance restores exactly the serial database *)
          (match Datalog.Eval.databases_agree db_serial db_par with
          | Ok () -> ()
          | Error e ->
            Format.printf "  *** PARALLEL DISAGREES on %s at %d domains: %s ***@."
              name domains e;
            failwith "maintain-par: parity violation");
          if par_changed <> serial_changed then
            failwith "maintain-par: changed-tuple counts diverge";
          emit (Printf.sprintf "par-%d" domains) par_s par_changed;
          match !best with
          | Some (_, bd, bs, bp)
            when domains < bd
                 || (domains = bd && serial_s /. Float.max par_s 1e-9 <= bs /. Float.max bp 1e-9)
            -> ()
          | _ -> best := Some (name, domains, serial_s, par_s))
        domain_set)
    workloads;
  (match !best with
  | Some (wl, d, serial_s, par_s) ->
    Format.printf "@.headline: %s at %d domains — serial %.4f s, parallel %.4f s: %.2fx@."
      wl d serial_s par_s (serial_s /. Float.max par_s 1e-9)
  | None -> ());
  if cores < List.fold_left max 1 domain_set then
    Format.printf
      "(host has %d core(s): domains beyond the core count park and add no \
       speedup here; run on a >= 8-core host for the Table III ratios)@."
      cores;
  (* traced rerun of the wide workload at the largest domain count: the
     measured per-worker breakdown — where maintenance wall time
     actually goes — attached to the bench JSON *)
  let breakdown =
    let _, program, updates = mp_wide ~smoke in
    let domains = List.fold_left max 2 domain_set in
    let obs = Obs.Trace.create ~domains () in
    let _db, _s, _changed = mp_run ~obs ~domains program updates in
    let s = Obs.Summary.of_trace obs in
    Format.printf
      "@.measured breakdown (wide workload, %d domains, traced rerun):@.@[<v>%a@]@."
      domains Obs.Summary.pp s;
    s
  in
  maintain_par_json (List.rev !rows) !best breakdown domain_set
    (if smoke then "BENCH_maintain_par_smoke.json" else "BENCH_maintain_par.json")

let maintain_par () = maintain_par_core ~smoke:false ()

let maintain_par_smoke () = maintain_par_core ~smoke:true ()

(* ---------------------------------------------------------------- *)
(* maintain-shard: intra-component parallelism via sharded rounds    *)
(* ---------------------------------------------------------------- *)

(* The complement of maintain-par: a workload that is ONE big SCC, so
   component-level task parallelism has nothing to chew on and any
   speedup must come from the sharded phase rounds inside the
   component (Incremental.apply_parallel ~shards). A dense transitive
   closure with a negation stratum on top: edge deletions trigger deep
   overdelete/rederive cascades whose per-round delta is large enough
   to split. The grid runs every shards x domains combination with
   [serial_threshold:0] (the tiny condensation would otherwise always
   take the fallback) and asserts the sharded database equals the
   serial one on every cell. *)

type ms_row = {
  ms_shards : int;
  ms_domains : int;
  ms_seconds : float;
  ms_changed : int;
  ms_speedup : float;  (* serial seconds / this cell's seconds *)
  ms_agree : bool;
}

let shard_workload ~smoke =
  let rng = Prelude.Rng.create 4243 in
  let verts = if smoke then 20 else 64 in
  let nedges = if smoke then 60 else 340 in
  let batches = if smoke then 2 else 4 in
  let edge () =
    Printf.sprintf {|edge("v%d","v%d")|} (Prelude.Rng.int rng verts)
      (Prelude.Rng.int rng verts)
  in
  let base = List.init nedges (fun _ -> edge ()) |> List.sort_uniq compare in
  let rules =
    "path(X,Y) :- edge(X,Y).\npath(X,Z) :- path(X,Y), edge(Y,Z).\n\
     node(X) :- edge(X,Y).\nnode(Y) :- edge(X,Y).\n\
     unreached(X,Y) :- node(X), node(Y), !path(X,Y).\n"
  in
  let src = String.concat "" (List.map (fun f -> f ^ ".\n") base) ^ rules in
  let program = Datalog.Parser.parse src in
  let base_arr = Array.of_list base in
  let cursor = ref 0 in
  let updates =
    List.init batches (fun _ ->
        let adds = List.init 4 (fun _ -> Datalog.Parser.parse_atom (edge ())) in
        let dels =
          List.init 3 (fun _ ->
              let f = base_arr.(!cursor mod Array.length base_arr) in
              cursor := !cursor + 7;
              Datalog.Parser.parse_atom f)
        in
        (adds, dels))
  in
  (Printf.sprintf "tc-neg-%dv" verts, program, updates)

let maintain_shard_json workload rows headline shard_set domain_set path =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"benchmark\": \"maintain-shard\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"host_cores\": %d,\n  \"sched\": \"levelbased\",\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string b (Printf.sprintf "  \"workload\": \"%s\",\n" workload);
  Buffer.add_string b
    (Printf.sprintf "  \"shards\": [%s],\n"
       (String.concat ", " (List.map string_of_int shard_set)));
  Buffer.add_string b
    (Printf.sprintf "  \"domains\": [%s],\n"
       (String.concat ", " (List.map string_of_int domain_set)));
  (match headline with
  | Some (sh, dm, serial_s, par_s) ->
    Buffer.add_string b
      (Printf.sprintf
         "  \"headline\": {\"shards\": %d, \"domains\": %d, \"serial_s\": %.6f, \
          \"sharded_s\": %.6f, \"speedup\": %.3f},\n"
         sh dm serial_s par_s (serial_s /. Float.max par_s 1e-9))
  | None -> ());
  Buffer.add_string b "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"shards\": %d, \"domains\": %d, \"changed\": %d, \"seconds\": \
            %.6f, \"speedup\": %.3f, \"databases_agree\": %b}%s\n"
           r.ms_shards r.ms_domains r.ms_changed r.ms_seconds r.ms_speedup
           r.ms_agree
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.printf "@.wrote %s@." path

let maintain_shard_core ~smoke () =
  banner "Sharded incremental maintenance: shards x domains grid on one big SCC";
  let cores = Domain.recommended_domain_count () in
  let shard_set = if smoke then [ 1; 2 ] else [ 1; 2; 4 ] in
  let domain_set = if smoke then [ 1; 2 ] else [ 1; 2; 4 ] in
  let name, program, updates = shard_workload ~smoke in
  Format.printf "workload %s on a %d-core host@.@." name cores;
  let db_serial, serial_s, serial_changed = mp_run ~domains:1 program updates in
  Format.printf "%-12s %7s %8s %10s %12s %10s@." "workload" "shards" "domains"
    "changed" "seconds" "speedup";
  let rows = ref [] in
  let best = ref None in
  List.iter
    (fun shards ->
      List.iter
        (fun domains ->
          let seconds, changed =
            if shards = 1 && domains = 1 then (serial_s, serial_changed)
            else begin
              let db, s, ch =
                mp_run ~shards ~serial_threshold:0 ~domains program updates
              in
              (* the differential guarantee, asserted on every cell:
                 sharded maintenance restores exactly the serial
                 database and the same net change count *)
              (match Datalog.Eval.databases_agree db_serial db with
              | Ok () -> ()
              | Error e ->
                Format.printf
                  "  *** SHARDED DISAGREES at %d shards x %d domains: %s ***@."
                  shards domains e;
                failwith "maintain-shard: parity violation");
              if ch <> serial_changed then
                failwith "maintain-shard: changed-tuple counts diverge";
              (s, ch)
            end
          in
          let speedup = serial_s /. Float.max seconds 1e-9 in
          rows :=
            { ms_shards = shards; ms_domains = domains; ms_seconds = seconds;
              ms_changed = changed; ms_speedup = speedup; ms_agree = true }
            :: !rows;
          Format.printf "%-12s %7d %8d %10d %12.4f %9.2fx@." name shards domains
            changed seconds speedup;
          if shards > 1 then
            match !best with
            | Some (_, _, bs) when serial_s /. Float.max bs 1e-9 >= speedup -> ()
            | _ -> best := Some (shards, domains, seconds))
        domain_set)
    shard_set;
  (match !best with
  | Some (sh, dm, par_s) ->
    Format.printf
      "@.headline: %d shards x %d domains — serial %.4f s, sharded %.4f s: %.2fx@."
      sh dm serial_s par_s (serial_s /. Float.max par_s 1e-9)
  | None -> ());
  if cores < 4 then
    Format.printf
      "(host has %d core(s): shard fan-out adds coordination without extra \
       parallelism here; expect <= 1x — the grid still checks parity on every \
       cell)@."
      cores;
  maintain_shard_json name (List.rev !rows)
    (Option.map (fun (sh, dm, s) -> (sh, dm, serial_s, s)) !best)
    shard_set domain_set
    (if smoke then "BENCH_maintain_shard_smoke.json" else "BENCH_maintain_shard.json")

let maintain_shard () = maintain_shard_core ~smoke:false ()

let maintain_shard_smoke () = maintain_shard_core ~smoke:true ()

(* ---------------------------------------------------------------- *)
(* maintain-count: counting vs DRed on deletion-heavy streams        *)
(* ---------------------------------------------------------------- *)

(* The maintenance-algorithm benchmark: the same update stream applied
   to twin materializations, once under DRed and once under counting
   (Incremental.apply ~maint). Streams come from
   Synthetic.Update_stream — banded acyclic edge spaces where derived
   tuples carry many alternative derivations, the regime where DRed's
   overdelete/rederive storm is at its worst and counting's
   decrement-only propagation at its best. Counting rows prime the
   derivation counts outside the timed region (the cost is reported,
   once, next to the row). [Eval.databases_agree] is asserted on every
   program x mix cell, so the speedups can only come from equivalent
   computations. *)

type mc_row = {
  mc_program : string;
  mc_mix : string;
  mc_maint : string;  (* "dred" | "counting" | "auto" | "counting-sK" *)
  mc_batches : int;
  mc_changed : int;
  mc_seconds : float;
  mc_speedup : float;  (* dred seconds / this row's seconds *)
  mc_agree : bool;
  mc_advice : string;  (* the static advisor's per-program summary *)
}

let mc_programs =
  [
    ( "hops-nr",
      false,
      "hop2(X,Z) :- edge(X,Y), edge(Y,Z).\n\
       hop3(X,W) :- hop2(X,Y), edge(Y,W).\n" );
    ("tc", true, "path(X,Y) :- edge(X,Y).\npath(X,Z) :- path(X,Y), edge(Y,Z).\n");
  ]

let mc_mixes = [ ("del90", 0.9); ("mix50", 0.5) ]

(* the non-recursive program gets a larger base relation: its per-batch
   DRed cost is one rederivation pass over the full joins, so a bigger
   store widens the gap counting is supposed to show, and pushes the
   measured interval out of timer-noise territory (the tc stream stays
   smaller — path's quadratic blowup already dominates there) *)
let mc_stream ~smoke ~recursive ~mix_id delete_fraction =
  Workload.Synthetic.Update_stream.generate
    {
      Workload.Synthetic.Update_stream.nodes =
        (if smoke then 36 else if recursive then 220 else 700);
      span = (if smoke then 4 else 12);
      base_edges = (if smoke then 110 else if recursive then 1500 else 5000);
      batches = (if smoke then 3 else 6);
      batch_ops = (if smoke then 14 else 48);
      delete_fraction;
      seed = 9091 + mix_id;
    }

(* one word summarizing the advisor over the program's derived
   components: "dred" / "counting" when unanimous, "mixed" otherwise *)
let mc_advice program =
  let t = Datalog.Analyze.program ~engine:Datalog.Plan.Compiled program in
  let verdicts =
    Array.to_list t.Datalog.Analyze.comps
    |> List.filter_map (fun (c : Datalog.Analyze.comp_info) ->
           if c.Datalog.Analyze.extensional then None
           else Some (Datalog.Analyze.strategy_name c.Datalog.Analyze.verdict))
    |> List.sort_uniq Stdlib.compare
  in
  match verdicts with [] -> "dred" | [ one ] -> one | _ -> "mixed"

let mc_run ?(obs = Obs.Trace.disabled) ?(shards = 1) ~maint program steps =
  let engine = Datalog.Plan.Compiled in
  let db = Datalog.Database.create () in
  ignore (Datalog.Eval.run ~engine db program);
  let prime_s =
    if maint <> Datalog.Incremental.Dred then begin
      let t0 = Unix.gettimeofday () in
      ignore (Datalog.Incremental.prime ~engine db program);
      Unix.gettimeofday () -. t0
    end
    else 0.0
  in
  let changed = ref 0 in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (adds, dels) ->
      let r =
        if shards > 1 then
          (* counting composes with sharded phase rounds: any warning
             here (a downgrade) would invalidate the row *)
          Datalog.Incremental.apply_parallel ~engine ~maint ~domains:1 ~shards
            ~on_warn:(fun m -> failwith ("maintain-count: unexpected warning: " ^ m))
            ~obs db program ~additions:adds ~deletions:dels
        else
          Datalog.Incremental.apply ~engine ~maint ~obs db program ~additions:adds
            ~deletions:dels
      in
      List.iter
        (fun (c : Datalog.Incremental.pred_change) ->
          changed := !changed + c.Datalog.Incremental.added + c.Datalog.Incremental.removed)
        r.Datalog.Incremental.changes)
    steps;
  let s = Unix.gettimeofday () -. t0 in
  (db, s, !changed, prime_s)

let maintain_count_json rows headline breakdown path =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"benchmark\": \"maintain-count\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"host_cores\": %d,\n  \"engine\": \"compiled\",\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string b
    (Printf.sprintf "  \"breakdown\": %s,\n" (Obs.Summary.json breakdown));
  (let p = breakdown.Obs.Summary.cnt_propagate_s
   and bw = breakdown.Obs.Summary.cnt_backward_s
   and f = breakdown.Obs.Summary.cnt_forward_s in
   Buffer.add_string b
     (Printf.sprintf
        "  \"counting_phases\": {\"propagate_s\": %.6f, \"backward_s\": %.6f, \
         \"forward_s\": %.6f, \"backward_share\": %.4f, \"o1_hits\": %d, \
         \"full_probes\": %d},\n"
        p bw f
        (bw /. Float.max (p +. bw +. f) 1e-9)
        breakdown.Obs.Summary.cnt_o1_hits breakdown.Obs.Summary.cnt_full_probes));
  (match headline with
  | Some ((np, nm, nd, nc), (rp, rm, rd, rc)) ->
    Buffer.add_string b
      (Printf.sprintf
         "  \"headline\": {\n\
         \    \"nonrecursive\": {\"program\": \"%s\", \"mix\": \"%s\", \
          \"dred_s\": %.6f, \"counting_s\": %.6f, \"speedup\": %.3f},\n\
         \    \"recursive\": {\"program\": \"%s\", \"mix\": \"%s\", \
          \"dred_s\": %.6f, \"counting_s\": %.6f, \"speedup\": %.3f}},\n"
         np nm nd nc
         (nd /. Float.max nc 1e-9)
         rp rm rd rc
         (rd /. Float.max rc 1e-9))
  | None -> ());
  Buffer.add_string b "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"program\": \"%s\", \"mix\": \"%s\", \"maint\": \"%s\", \
            \"batches\": %d, \"changed\": %d, \"seconds\": %.6f, \"speedup\": \
            %.3f, \"databases_agree\": %b, \"advice\": \"%s\"}%s\n"
           r.mc_program r.mc_mix r.mc_maint r.mc_batches r.mc_changed
           r.mc_seconds r.mc_speedup r.mc_agree r.mc_advice
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.printf "@.wrote %s@." path

let maintain_count_core ~smoke () =
  banner "Counting vs DRed maintenance on deletion-heavy update streams";
  let rows = ref [] in
  (* best counting speedup seen per recursion class, for the headline *)
  let best_nonrec = ref None and best_rec = ref None in
  Format.printf "%-10s %-8s %-10s %10s %12s %10s@." "program" "mix" "maint"
    "changed" "seconds" "speedup";
  List.iter
    (fun (pname, recursive, rules) ->
      List.iteri
        (fun mix_id (mix, delete_fraction) ->
          let stream = mc_stream ~smoke ~recursive ~mix_id delete_fraction in
          let src =
            String.concat ""
              (List.map (fun f -> f ^ ".\n")
                 stream.Workload.Synthetic.Update_stream.base)
            ^ rules
          in
          let program = Datalog.Parser.parse src in
          let steps =
            List.map
              (fun (adds, dels) ->
                ( List.map Datalog.Parser.parse_atom adds,
                  List.map Datalog.Parser.parse_atom dels ))
              stream.Workload.Synthetic.Update_stream.steps
          in
          let nbatches = List.length steps in
          let db_dred, dred_s, dred_changed, _ =
            mc_run ~maint:Datalog.Incremental.Dred program steps
          in
          let db_cnt, cnt_s, cnt_changed, prime_s =
            mc_run ~maint:Datalog.Incremental.Counting program steps
          in
          let db_auto, auto_s, auto_changed, _ =
            mc_run ~maint:Datalog.Incremental.Auto program steps
          in
          let db_s2, s2_s, s2_changed, _ =
            mc_run ~shards:2 ~maint:Datalog.Incremental.Counting program steps
          in
          let db_s4, s4_s, s4_changed, _ =
            mc_run ~shards:4 ~maint:Datalog.Incremental.Counting program steps
          in
          let advice = mc_advice program in
          (* the differential guarantee, asserted on every cell: all
             strategies restore exactly the same database *)
          let agree name other =
            match Datalog.Eval.databases_agree db_dred other with
            | Ok () -> ()
            | Error e ->
              Format.printf "  *** ENGINES DISAGREE (%s) on %s/%s: %s ***@."
                name pname mix e;
              failwith "maintain-count: parity violation"
          in
          agree "counting" db_cnt;
          agree "auto" db_auto;
          agree "counting-s2" db_s2;
          agree "counting-s4" db_s4;
          if
            dred_changed <> cnt_changed || dred_changed <> auto_changed
            || dred_changed <> s2_changed || dred_changed <> s4_changed
          then failwith "maintain-count: changed-tuple counts diverge";
          let emit maint seconds note =
            let r =
              { mc_program = pname; mc_mix = mix; mc_maint = maint;
                mc_batches = nbatches; mc_changed = dred_changed;
                mc_seconds = seconds;
                mc_speedup = dred_s /. Float.max seconds 1e-9;
                mc_agree = true; mc_advice = advice }
            in
            rows := r :: !rows;
            Format.printf "%-10s %-8s %-10s %10d %12.4f %9.2fx%s@." pname mix
              maint dred_changed seconds r.mc_speedup note
          in
          emit "dred" dred_s "";
          emit "counting" cnt_s
            (Printf.sprintf "  (primed in %.4f s)" prime_s);
          emit "auto" auto_s (Printf.sprintf "  (advice %s)" advice);
          emit "counting-s2" s2_s "";
          emit "counting-s4" s4_s "";
          let speedup = dred_s /. Float.max cnt_s 1e-9 in
          let best = if recursive then best_rec else best_nonrec in
          match !best with
          | Some (_, _, bd, bc) when bd /. Float.max bc 1e-9 >= speedup -> ()
          | _ -> best := Some (pname, mix, dred_s, cnt_s))
        mc_mixes)
    mc_programs;
  let headline =
    match (!best_nonrec, !best_rec) with
    | Some n, Some r -> Some (n, r)
    | _ -> None
  in
  (match headline with
  | Some ((np, nm, nd, nc), (rp, rm, rd, rc)) ->
    Format.printf
      "@.headline: %s/%s — DRed %.4f s, counting %.4f s: %.2fx; %s/%s — DRed \
       %.4f s, counting %.4f s: %.2fx@."
      np nm nd nc
      (nd /. Float.max nc 1e-9)
      rp rm rd rc
      (rd /. Float.max rc 1e-9)
  | None -> ());
  (* traced rerun of the recursive deletion-heavy cell under counting:
     the per-phase breakdown (propagate / backward / forward) attached
     to the bench JSON *)
  let breakdown =
    let _, _, rules = List.nth mc_programs 1 in
    let stream = mc_stream ~smoke ~recursive:true ~mix_id:0 0.9 in
    let src =
      String.concat ""
        (List.map (fun f -> f ^ ".\n") stream.Workload.Synthetic.Update_stream.base)
      ^ rules
    in
    let program = Datalog.Parser.parse src in
    let steps =
      List.map
        (fun (adds, dels) ->
          ( List.map Datalog.Parser.parse_atom adds,
            List.map Datalog.Parser.parse_atom dels ))
        stream.Workload.Synthetic.Update_stream.steps
    in
    let obs = Obs.Trace.create ~domains:1 () in
    let _db, _s, _changed, _prime =
      mc_run ~obs ~maint:Datalog.Incremental.Counting program steps
    in
    let s = Obs.Summary.of_trace obs in
    Format.printf
      "@.measured breakdown (tc del90, counting, traced rerun):@.@[<v>%a@]@."
      Obs.Summary.pp s;
    let tot =
      s.Obs.Summary.cnt_propagate_s +. s.Obs.Summary.cnt_backward_s
      +. s.Obs.Summary.cnt_forward_s
    in
    Format.printf
      "backward share %.1f%%; suspects: %d O(1) by the level index, %d full probes@."
      (100.0 *. s.Obs.Summary.cnt_backward_s /. Float.max tot 1e-9)
      s.Obs.Summary.cnt_o1_hits s.Obs.Summary.cnt_full_probes;
    s
  in
  maintain_count_json (List.rev !rows) headline breakdown
    (if smoke then "BENCH_maintain_count_smoke.json" else "BENCH_maintain_count.json")

let maintain_count () = maintain_count_core ~smoke:false ()

let maintain_count_smoke () = maintain_count_core ~smoke:true ()

(* ---------------------------------------------------------------- *)
(* serve: sustained update-server throughput (open-loop replay)      *)
(* ---------------------------------------------------------------- *)

(* The epoch-server benchmark: a driver replays a Synthetic.Update_stream
   against Server.Engine at a fixed arrival rate — open loop, so a slow
   commit cannot slow the offered load, only grow its own latency. Sync
   rows commit every batch in the driver thread (one epoch per batch:
   commit count, ops and net change are deterministic and parity-checked
   against the baseline). Async rows commit on the background domain with
   coalescing on, so the number of actual maintenance runs is timing-
   dependent — those rows report it under non-whitelisted keys and the
   correctness claim rests on [databases_agree] against a plain per-step
   Incr_sched.update twin of the same stream (both walks go through the
   stream cursor, so neither side can drift). *)

type sv_row = {
  sv_mode : string;  (* "sync" | "async" *)
  sv_maint : string;
  sv_batches : int;
  sv_ops : int;  (* operations admitted over the whole run *)
  sv_runs : int;  (* maintenance runs published (= batches when sync) *)
  sv_changed : int;  (* net tuple churn over all commits *)
  sv_wall_s : float;
  sv_p50_ms : float;
  sv_p99_ms : float;
  sv_agree : bool;
}

let sv_rules = "path(X,Y) :- edge(X,Y).\npath(X,Z) :- path(X,Y), edge(Y,Z).\n"

let sv_stream ~smoke =
  Workload.Synthetic.Update_stream.generate
    {
      Workload.Synthetic.Update_stream.nodes = (if smoke then 36 else 220);
      span = (if smoke then 4 else 12);
      base_edges = (if smoke then 110 else 1500);
      batches = (if smoke then 12 else 120);
      batch_ops = (if smoke then 10 else 32);
      delete_fraction = 0.5;
      seed = 7177;
    }

let sv_materialize stream =
  Incr_sched.materialize
    (String.concat ""
       (List.map (fun f -> f ^ ".\n")
          stream.Workload.Synthetic.Update_stream.base)
    ^ sv_rules)

(* per-step Incr_sched.update twin — the reference the server database
   must agree with *)
let sv_reference ~maint stream =
  let twin = sv_materialize stream in
  let cur = Workload.Synthetic.Update_stream.cursor stream in
  let rec loop () =
    match Workload.Synthetic.Update_stream.next cur with
    | None -> ()
    | Some (additions, deletions) ->
      ignore (Incr_sched.update ~maint twin ~additions ~deletions);
      loop ()
  in
  loop ();
  twin

let sv_submit engine side fact =
  match Server.Engine.submit engine side fact with
  | Ok () -> ()
  | Error m -> failwith ("serve: stream fact rejected: " ^ m)

(* Open-loop replay: batch i is offered at t0 + i/rate regardless of
   how the server is doing; pacing gaps poll for finished background
   commits. Returns every commit published plus the driver wall time. *)
let sv_drive ~mode ~rate engine stream =
  let cur = Workload.Synthetic.Update_stream.cursor stream in
  let stats = ref [] in
  let collect more = stats := !stats @ more in
  let t0 = Prelude.Mclock.now () in
  let i = ref 0 in
  let rec loop () =
    match Workload.Synthetic.Update_stream.next cur with
    | None -> ()
    | Some (additions, deletions) ->
      let arrival = t0 +. (float_of_int !i /. rate) in
      while Prelude.Mclock.now () < arrival do
        collect (Server.Engine.drain engine)
      done;
      incr i;
      List.iter (sv_submit engine `Insert) additions;
      List.iter (sv_submit engine `Remove) deletions;
      (match mode with
      | `Sync -> collect (Server.Engine.commit engine)
      | `Async ->
        ignore (Server.Engine.commit_async engine);
        collect (Server.Engine.drain engine));
      loop ()
  in
  loop ();
  collect (Server.Engine.await engine);
  (!stats, Prelude.Mclock.now () -. t0)

let sv_run ~smoke ~mode ~maint ?obs () =
  let stream = sv_stream ~smoke in
  let session = sv_materialize stream in
  let engine =
    Server.Engine.create ~maint ?obs session
  in
  let rate = if smoke then 400.0 else 150.0 in
  let stats, wall = sv_drive ~mode ~rate engine stream in
  let twin = sv_reference ~maint:Datalog.Incremental.Dred stream in
  let agree =
    match
      Datalog.Eval.databases_agree (Server.Engine.db engine) twin.Incr_sched.db
    with
    | Ok () -> true
    | Error e ->
      Format.printf "  *** SERVER DIVERGED from the one-shot run: %s ***@." e;
      failwith "serve: parity violation"
  in
  let ops =
    List.fold_left (fun a (s : Server.Engine.commit_stats) -> a + s.ops) 0 stats
  in
  let changed =
    List.fold_left
      (fun a (s : Server.Engine.commit_stats) -> a + s.changed)
      0 stats
  in
  let lat =
    Array.of_list
      (List.map
         (fun (s : Server.Engine.commit_stats) -> 1000.0 *. s.latency_s)
         stats)
  in
  {
    sv_mode = (match mode with `Sync -> "sync" | `Async -> "async");
    sv_maint =
      (match maint with
      | Datalog.Incremental.Dred -> "dred"
      | Datalog.Incremental.Counting -> "counting"
      | Datalog.Incremental.Auto -> "auto");
    sv_batches =
      List.length stream.Workload.Synthetic.Update_stream.steps;
    sv_ops = ops;
    sv_runs = List.length stats;
    sv_changed = changed;
    sv_wall_s = wall;
    sv_p50_ms = Prelude.Stats.percentile lat 50.0;
    sv_p99_ms = Prelude.Stats.percentile lat 99.0;
    sv_agree = agree;
  }

let sv_json rows rate breakdown path =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"benchmark\": \"serve\",\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"host_cores\": %d,\n  \"workload\": \"tc-mix50\",\n  \"rate\": %.1f,\n"
       (Domain.recommended_domain_count ())
       rate);
  Buffer.add_string b
    (Printf.sprintf "  \"breakdown\": %s,\n" (Obs.Summary.json breakdown));
  Buffer.add_string b "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      (* sync rows: op/run/changed counts are deterministic —
         parity-checked keys. Async rows: coalescing makes all three
         timing-dependent (merged batches dedup facts across steps), so
         they travel under non-whitelisted names. *)
      let counts =
        if r.sv_mode = "sync" then
          Printf.sprintf "\"ops\": %d, \"commits\": %d, \"changed\": %d"
            r.sv_ops r.sv_runs r.sv_changed
        else
          Printf.sprintf "\"admitted\": %d, \"runs\": %d, \"net_changed\": %d"
            r.sv_ops r.sv_runs r.sv_changed
      in
      Buffer.add_string b
        (Printf.sprintf
           "    {\"mode\": \"%s\", \"maint\": \"%s\", \"batches\": %d, %s, \
            \"databases_agree\": %b, \"seconds\": %.6f, \
            \"commits_per_s\": %.1f, \"updates_per_s\": %.1f, \"p50_ms\": \
            %.3f, \"p99_ms\": %.3f}%s\n"
           r.sv_mode r.sv_maint r.sv_batches counts r.sv_agree
           r.sv_wall_s
           (float_of_int r.sv_runs /. Float.max r.sv_wall_s 1e-9)
           (float_of_int r.sv_ops /. Float.max r.sv_wall_s 1e-9)
           r.sv_p50_ms r.sv_p99_ms
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.printf "@.wrote %s@." path

let serve_core ~smoke () =
  banner "Sustained update-server throughput (open-loop stream replay)";
  let rate = if smoke then 400.0 else 150.0 in
  Format.printf "offered load: %.0f commits/s, workload tc-mix50@.@." rate;
  Format.printf "%-7s %-10s %8s %8s %6s %10s %10s %9s %9s@." "mode" "maint"
    "batches" "ops" "runs" "commits/s" "updates/s" "p50 ms" "p99 ms";
  let rows =
    List.concat_map
      (fun mode ->
        List.map
          (fun maint ->
            let r = sv_run ~smoke ~mode ~maint () in
            Format.printf "%-7s %-10s %8d %8d %6d %10.1f %10.1f %9.3f %9.3f@."
              r.sv_mode r.sv_maint r.sv_batches r.sv_ops r.sv_runs
              (float_of_int r.sv_runs /. Float.max r.sv_wall_s 1e-9)
              (float_of_int r.sv_ops /. Float.max r.sv_wall_s 1e-9)
              r.sv_p50_ms r.sv_p99_ms;
            r)
          [ Datalog.Incremental.Dred; Datalog.Incremental.Counting ])
      [ `Sync; `Async ]
  in
  (* traced sync/dred rerun: the commit spans and epoch lifetimes land
     in the summary's srv section, attached as the (skipped) breakdown *)
  let breakdown =
    let obs = Obs.Trace.create ~domains:1 () in
    let _r = sv_run ~smoke ~mode:`Sync ~maint:Datalog.Incremental.Dred ~obs () in
    let s = Obs.Summary.of_trace obs in
    Format.printf "@.measured breakdown (sync dred, traced rerun):@.@[<v>%a@]@."
      Obs.Summary.pp s;
    s
  in
  sv_json rows rate breakdown
    (if smoke then "BENCH_serve_smoke.json" else "BENCH_serve.json")

let serve () = serve_core ~smoke:false ()

let serve_smoke () = serve_core ~smoke:true ()

(* ---------------------------------------------------------------- *)
(* Ablations: design choices called out in DESIGN.md                 *)
(* ---------------------------------------------------------------- *)

let ablation () =
  banner "Ablation 1: hybrid co-scheduler scan batch (broom 2000x2000)";
  let t = Workload.Pathological.broom ~spine:2000 ~fan:2000 in
  Format.printf "%12s %16s %14s %14s@." "scan batch" "total ops" "overhead" "makespan";
  List.iter
    (fun scan_batch ->
      let config = { Simulator.Engine.procs = 8; op_cost = 1e-7; record_log = false } in
      let m =
        (Simulator.Engine.run ~config
           ~sched:(Sched.Hybrid.factory_batched ~scan_batch)
           t)
          .Simulator.Engine.metrics
      in
      Format.printf "%12d %16d %14.4f %14.3f@." scan_batch
        (Sched.Intf.total_ops m.Simulator.Metrics.ops)
        m.Simulator.Metrics.sched_overhead m.Simulator.Metrics.makespan)
    [ 1; 8; 32; 128; 1024; max_int ];
  Format.printf
    "@.(smaller batches amortize the scan across completions; unbounded@.\
     degenerates to LogicBlox-plus-LevelBased cost.)@.";
  banner "Ablation 2: Theorem 10 meta-scheduler under a memory budget";
  let t = Workload.Pathological.interval_blowup ~width:150 ~layers:4 ~density:0.5 ~seed:5 in
  let config = { Simulator.Engine.procs = 8; op_cost = 1e-7; record_log = false } in
  let lbx_mem = Sched.Logicblox.precomputed_memory_words t.Workload.Trace.graph in
  Format.printf "LogicBlox precomputed footprint: %d words@." lbx_mem;
  List.iter
    (fun budget ->
      let r = Simulator.Meta.run ~config ~budget_words:budget ~a:Sched.Logicblox.factory t in
      Format.printf "  budget %10d: winner=%-12s aborted=%b makespan=%.3f memory=%d@."
        budget r.Simulator.Meta.winner r.Simulator.Meta.a_aborted
        r.Simulator.Meta.makespan r.Simulator.Meta.memory_words)
    [ lbx_mem / 2; 2 * lbx_mem; 8 * lbx_mem ];
  Format.printf
    "@.(with the budget below A's footprint the meta-scheduler drops A and@.\
     gives LevelBased every processor — Theorem 10's overflow arm.)@."

(* ---------------------------------------------------------------- *)
(* Real multicore execution (OCaml 5 domains)                        *)
(* ---------------------------------------------------------------- *)

let parallel () =
  banner "Real multicore execution: simulator prediction vs wall clock";
  Format.printf "host exposes %d core(s) (Domain.recommended_domain_count)@.@."
    (Domain.recommended_domain_count ());
  let work_unit = 1e-4 in
  let cases =
    [
      ("unit-layers 16x10", Workload.Pathological.unit_layers ~width:16 ~layers:10 ~fanout:2 ~seed:3);
      ("tight example L=24", Workload.Pathological.tight_example ~levels:24);
      ("broom 50x200", Workload.Pathological.broom ~spine:50 ~fan:200);
    ]
  in
  Format.printf "%-22s %-12s %12s %12s %8s@." "trace" "scheduler" "predicted s"
    "measured s" "ratio";
  List.iter
    (fun (name, trace) ->
      List.iter
        (fun sname ->
          let factory = Sched.Registry.find_exn sname in
          let domains = 4 in
          let sim =
            (Simulator.Engine.run
               ~config:{ Simulator.Engine.procs = domains; op_cost = 0.0; record_log = false }
               ~sched:factory trace)
              .Simulator.Engine.metrics
              .Simulator.Metrics.makespan
          in
          let predicted = sim *. work_unit in
          let r = Parallel.Executor.run ~domains ~work_unit ~sched:factory trace in
          (match Parallel.Executor.check trace r with
          | Ok () -> ()
          | Error e -> Format.printf "  INVALID (%s): %s@." sname e);
          Format.printf "%-22s %-12s %12.4f %12.4f %8.2f@." name sname predicted
            r.Parallel.Executor.wall_makespan
            (r.Parallel.Executor.wall_makespan /. Float.max predicted 1e-9))
        [ "levelbased"; "hybrid" ])
    cases;
  Format.printf
    "@.(measured/predicted ~ 1 on multicore hosts; on a single-core container@.\
     the wall clock serializes everything, so expect ratios near the@.\
     domains count for parallel traces. The point: the same online@.\
     protocol drives real domains, with the scheduler under the dispatch@.\
     lock, and the schedule validates against the Section II model.)@."

(* ---------------------------------------------------------------- *)
(* Dispatch throughput of the low-contention executor                *)
(* ---------------------------------------------------------------- *)

(* Scheduler-throughput benchmark for the multicore executor rebuild.
   Zero-work tasks ([work_unit = 0]) make the measurement pure
   dispatch: status CAS traffic, ready-buffer refills, batched
   completion delivery, and the scheduler critical sections, under the
   LevelBased scheduler; [wall_makespan] runs from the post-spawn
   barrier epoch. *)

type drow = {
  d_trace : string;
  d_domains : int;
  d_tasks : int;
  d_makespan : float;
  d_rate : float;
}

let dispatch_traces ~smoke =
  (* (name, full_check, trace): [full_check] runs [Executor.check] on
     every configuration — cheap now that precedence validation is a
     linear topological DP rather than a per-task ancestor BFS. *)
  if smoke then
    [
      ("wide", true, Workload.Pathological.unit_layers ~width:120 ~layers:6 ~fanout:3 ~seed:7);
      ("deep", true, Workload.Pathological.deep_chain ~n:1_500);
      ("pathological", true, Workload.Pathological.broom ~spine:150 ~fan:150);
    ]
  else
    [
      ("wide-paper11", true, paper_trace 11);
      ("deep-chain", true, Workload.Pathological.deep_chain ~n:100_000);
      ("pathological-broom", true, Workload.Pathological.broom ~spine:20_000 ~fan:20_000);
    ]

let dispatch_run ~domains ~reps trace =
  let sched = Sched.Registry.find_exn "levelbased" in
  let best = ref None in
  for _ = 1 to reps do
    let r = Parallel.Executor.run ~domains ~work_unit:0.0 ~batch:256 ~sched trace in
    match !best with
    | Some b when b.Parallel.Executor.wall_makespan <= r.Parallel.Executor.wall_makespan -> ()
    | _ -> best := Some r
  done;
  Option.get !best

let dispatch_json rows (tname, domains, measured, ops, modeled, util) path =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"benchmark\": \"dispatch\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"host_cores\": %d,\n  \"work_unit\": 0.0,\n  \"batch\": 256,\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string b
    (Printf.sprintf
       "  \"sched_overhead\": {\"trace\": \"%s\", \"domains\": %d, \
        \"measured_sched_s\": %.6f, \"ops\": %d, \"modeled_s\": %.6f, \
        \"measured_over_modeled\": %.3f, \"utilization\": %.4f},\n"
       tname domains measured ops modeled
       (measured /. Float.max modeled 1e-12)
       util);
  Buffer.add_string b "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"trace\": \"%s\", \"domains\": %d, \"tasks\": %d, \"wall_makespan_s\": %.6f, \"tasks_per_sec\": %.0f}%s\n"
           r.d_trace r.d_domains r.d_tasks r.d_makespan r.d_rate
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.printf "@.wrote %s@." path

let dispatch_core ~smoke () =
  banner "Dispatch throughput: Executor (work_unit = 0)";
  Format.printf "host exposes %d core(s); best of several reps per cell@.@."
    (Domain.recommended_domain_count ());
  let traces = dispatch_traces ~smoke in
  let domain_counts = [ 1; 2; 4; 8 ] in
  let rows = ref [] in
  Format.printf "%-20s %8s %10s %14s %12s@." "trace" "domains" "tasks" "makespan s"
    "tasks/s";
  List.iter
    (fun (tname, full_check, trace) ->
      List.iter
        (fun domains ->
          (* best-of-7: on a shared host a single rep can land on a
             descheduled interval; the max is the stable statistic *)
          let reps = if smoke then 2 else 7 in
          let r = dispatch_run ~domains ~reps trace in
          let tasks = r.Parallel.Executor.tasks_executed in
          if tasks <> r.Parallel.Executor.tasks_activated then
            Format.printf "  COUNT MISMATCH: %d executed, %d activated@." tasks
              r.Parallel.Executor.tasks_activated;
          (* wide paper trace: full check once, on the 8-domain
             configuration, below; everything else every time *)
          if full_check then (
            match Parallel.Executor.check trace r with
            | Ok () -> ()
            | Error e -> Format.printf "  INVALID (d=%d): %s@." domains e);
          let m = r.Parallel.Executor.wall_makespan in
          let rate = float_of_int tasks /. Float.max m 1e-9 in
          rows :=
            { d_trace = tname; d_domains = domains; d_tasks = tasks; d_makespan = m;
              d_rate = rate }
            :: !rows;
          Format.printf "%-20s %8d %10d %14.6f %12.0f@." tname domains tasks m rate)
        domain_counts)
    traces;
  let rows = List.rev !rows in
  (* full check of the 8-domain configuration on the wide trace *)
  (if not smoke then
     let _, _, trace = List.find (fun (n, _, _) -> n = "wide-paper11") traces in
     let r = dispatch_run ~domains:8 ~reps:1 trace in
     match Parallel.Executor.check trace r with
     | Ok () -> Format.printf "@.Executor.check (wide, d=8): OK@."
     | Error e -> Format.printf "@.Executor.check (wide, d=8): INVALID: %s@." e);
  let wide_name = if smoke then "wide" else "wide-paper11" in
  (* traced rerun on the wide trace: measured scheduler-lock seconds
     (wait + hold, from the ring timeline) against the paper's abstract
     op-count model at the default 1e-7 s/op — the quantity Tables
     II/III call "overhead", finally measured instead of charged *)
  let sched_overhead =
    let _, _, trace = List.find (fun (n, _, _) -> n = wide_name) traces in
    let domains = 8 in
    let obs = Obs.Trace.create ~domains () in
    let sched = Sched.Registry.find_exn "levelbased" in
    let r = Parallel.Executor.run ~domains ~work_unit:0.0 ~batch:256 ~obs ~sched trace in
    let s = Obs.Summary.of_trace obs in
    let ops = Sched.Intf.total_ops r.Parallel.Executor.ops in
    let measured = Obs.Summary.sched_overhead_s s in
    let modeled = float_of_int ops *. 1e-7 in
    Format.printf
      "@.scheduler overhead (wide, d=%d, traced): measured %.6f s over %d ops; \
       op-count model at 1e-7 s/op: %.6f s (measured/modeled %.2fx); \
       utilization %.1f%%@."
      domains measured ops modeled
      (measured /. Float.max modeled 1e-12)
      (100.0 *. s.Obs.Summary.utilization);
    (wide_name, domains, measured, ops, modeled, s.Obs.Summary.utilization)
  in
  dispatch_json rows sched_overhead
    (if smoke then "BENCH_executor_smoke.json" else "BENCH_executor.json")

let dispatch () = dispatch_core ~smoke:false ()

let dispatch_smoke () = dispatch_core ~smoke:true ()

(* ---------------------------------------------------------------- *)
(* Update streams: amortized incremental maintenance + scheduling     *)
(* ---------------------------------------------------------------- *)

let stream () =
  banner "Update stream: incremental maintenance vs from-scratch, 60 updates";
  let n_nodes = 120 in
  let rng = Prelude.Rng.create 414 in
  let fact () =
    Printf.sprintf {|edge("v%d","v%d")|} (Prelude.Rng.int rng n_nodes)
      (Prelude.Rng.int rng n_nodes)
  in
  let base = List.init 500 (fun _ -> fact ()) |> List.sort_uniq compare in
  let rules =
    "path(X,Y) :- edge(X,Y).\npath(X,Z) :- path(X,Y), edge(Y,Z).\n\
     node(X) :- edge(X,Y).\nnode(Y) :- edge(X,Y).\n\
     indeg(Y, cnt(X)) :- edge(X, Y).\n"
  in
  let src = String.concat ".\n" base ^ ".\n" ^ rules in
  let session = Incr_sched.materialize src in
  (* precompute the schedulers once: the DAG is stable across updates *)
  let probe =
    Incr_sched.update session ~additions:[] ~deletions:[]
  in
  let graph = probe.Datalog.To_trace.trace.Workload.Trace.graph in
  let prep = Sched.Prepared.prepare graph in
  let incr_time = ref 0.0 in
  let insert_time = ref 0.0 in
  let insert_count = ref 0 in
  let delete_time = ref 0.0 in
  let delete_count = ref 0 in
  let scratch_time = ref 0.0 in
  let sched_rows = Hashtbl.create 4 in
  let updates = 60 in
  let current = ref base in
  for _ = 1 to updates do
    let adds =
      List.init 2 (fun _ -> fact ()) |> List.filter (fun f -> not (List.mem f !current))
    in
    (* retail-style stream: mostly inserts; deletions are rare (and are
       DRed's expensive case — dense TC overdeletes broadly) *)
    let dels =
      match !current with
      | f :: _ when Prelude.Rng.int rng 6 = 0 -> [ f ]
      | _ -> []
    in
    current := adds @ List.filter (fun f -> not (List.mem f dels)) !current;
    (* incremental *)
    let t0 = Unix.gettimeofday () in
    let tt = Incr_sched.update session ~additions:adds ~deletions:dels in
    let dt = Unix.gettimeofday () -. t0 in
    incr_time := !incr_time +. dt;
    if dels = [] then begin
      insert_time := !insert_time +. dt;
      incr insert_count
    end
    else begin
      delete_time := !delete_time +. dt;
      incr delete_count
    end;
    (* from-scratch reference *)
    let t0 = Unix.gettimeofday () in
    let scratch = Incr_sched.materialize (String.concat ".\n" !current ^ ".\n" ^ rules) in
    ignore scratch;
    scratch_time := !scratch_time +. (Unix.gettimeofday () -. t0);
    (* schedule the revealed DAG with prepared (precompute-free) factories *)
    let trace = tt.Datalog.To_trace.trace in
    List.iter
      (fun (name, factory) ->
        let config = { Simulator.Engine.procs = 4; op_cost = 1e-7; record_log = false } in
        let m = (Simulator.Engine.run ~config ~sched:factory trace).Simulator.Engine.metrics in
        let tot, pre =
          Option.value (Hashtbl.find_opt sched_rows name) ~default:(0.0, 0.0)
        in
        Hashtbl.replace sched_rows name
          ( tot +. m.Simulator.Metrics.makespan,
            pre +. m.Simulator.Metrics.precompute_wallclock ))
      [
        ("levelbased", Sched.Prepared.level_based_factory prep);
        ("logicblox", Sched.Prepared.logicblox_factory prep);
        ("hybrid", Sched.Prepared.hybrid_factory prep);
      ]
  done;
  Format.printf "maintenance: incremental %.3fs vs from-scratch %.3fs (%.1fx faster)@."
    !incr_time !scratch_time (!scratch_time /. !incr_time);
  Format.printf
    "  insert-only updates: %d at %.1f ms avg; updates with a deletion: %d at %.1f ms avg@."
    !insert_count
    (1000.0 *. !insert_time /. float_of_int (max 1 !insert_count))
    !delete_count
    (1000.0 *. !delete_time /. float_of_int (max 1 !delete_count));
  Format.printf
    "(deletions are DRed's worst case on dense closures — overdeletion@.\
     touches most of `path` — so delete-heavy streams approach recompute@.\
     cost while insert-heavy streams win big.)@.";
  Format.printf "scheduling with shared precomputation (totals over %d updates):@." updates;
  Hashtbl.iter
    (fun name (makespan, precompute) ->
      Format.printf "  %-12s sum makespan %.6f s, sum precompute wallclock %.4f s@."
        name makespan precompute)
    sched_rows;
  Format.printf
    "@.(the DAG is stable across the stream, so levels and interval lists@.\
     are built once; per-update scheduler setup is then near-free, which@.\
     is how the paper accounts precomputation.)@."

(* ---------------------------------------------------------------- *)
(* Bechamel micro-benchmarks: one per table/figure                   *)
(* ---------------------------------------------------------------- *)

let estimate_ns tests =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (ns :: _) -> (name, ns) :: acc
      | Some [] | None -> (name, nan) :: acc)
    results []

let micro () =
  banner "Bechamel micro-benchmarks (ns per full scheduling pass, small instances)";
  let t5 = paper_trace 5 in
  let broom = Workload.Pathological.broom ~spine:150 ~fan:150 in
  let tight = Workload.Pathological.tight_example ~levels:40 in
  let run_of trace factory () =
    let config = { Simulator.Engine.procs = 8; op_cost = 0.0; record_log = false } in
    ignore (Simulator.Engine.run ~config ~sched:factory trace)
  in
  let open Bechamel in
  let tests =
    Test.make_grouped ~name:"tables"
      [
        Test.make ~name:"table1/levels-precompute"
          (Staged.stage (fun () -> ignore (Dag.Levels.compute t5.Workload.Trace.graph)));
        Test.make ~name:"table2/levelbased-pass"
          (Staged.stage (run_of t5 Sched.Level_based.factory));
        Test.make ~name:"table2/lbl15-pass"
          (Staged.stage (run_of t5 (Sched.Lookahead.factory ~k:15)));
        Test.make ~name:"table3/hybrid-pass"
          (Staged.stage (run_of broom Sched.Hybrid.factory));
        Test.make ~name:"table3/logicblox-pass"
          (Staged.stage (run_of broom Sched.Logicblox.factory));
        Test.make ~name:"fig1/active-closure"
          (Staged.stage (fun () -> ignore (Workload.Trace.active_set t5)));
        Test.make ~name:"fig2/tight-example-lbl"
          (Staged.stage (run_of tight (Sched.Lookahead.factory ~k:40)));
      ]
  in
  List.iter
    (fun (name, ns) -> Format.printf "  %-32s %14.0f ns/run@." name ns)
    (List.sort compare (estimate_ns tests))

(* ---------------------------------------------------------------- *)

let sections =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("fig1", fig1);
    ("fig2", fig2);
    ("overhead", overhead);
    ("memory", memory);
    ("bounds", bounds);
    ("rescue", rescue);
    ("datalog", datalog);
    ("datalog-smoke", datalog_smoke);
    ("maintain-par", maintain_par);
    ("maintain-par-smoke", maintain_par_smoke);
    ("maintain-shard", maintain_shard);
    ("maintain-shard-smoke", maintain_shard_smoke);
    ("maintain-count", maintain_count);
    ("maintain-count-smoke", maintain_count_smoke);
    ("serve", serve);
    ("serve-smoke", serve_smoke);
    ("ablation", ablation);
    ("parallel", parallel);
    ("dispatch", dispatch);
    ("dispatch-smoke", dispatch_smoke);
    ("stream", stream);
    ("micro", micro);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst sections
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
        Format.eprintf "unknown section %S; known: %s@." name
          (String.concat " " (List.map fst sections));
        exit 1)
    requested;
  Format.printf "@.done.@."
