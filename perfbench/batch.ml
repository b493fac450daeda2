(* Batch workloads: a fixed set of programs, compiled once, then run pass
   after pass on a 1-domain session and on an nproc-domain session.
   [iterative] and [relational] are two instances. *)

open Common
module Value = Emma.Value
module Expr = Emma.Expr
module W = Emma_workloads
module Pr = Emma_programs

type prog = {
  name : string;
  program : Expr.program;
  tables : (string * Value.t list) list;
  tol : Oracle.tol;
  native : bool;  (** check the first result against [Emma.run_native] *)
  reference : (unit -> Value.t) option;  (** an independent hand-written oracle *)
}

type spec = {
  dop : int;
  gen : seed:int -> prog list;
  facts : (string * string) list;
}

(* ---- the two instances ---- *)

let n_vertices = 500
let n_points = 2_000

(* Degrees follow Pareto(2.5) rather than the generator's default 1.8:
   still skewed, but the edge count and the largest hub, and with them a
   pass's work, stay within a few percent from seed to seed. k-means runs
   a fixed number of Lloyd iterations (a negative epsilon never stops it
   early) for the same reason. *)
let graph_alpha = 2.5
let kmeans_iters = 10

(* Out-degrees are drawn up to n_vertices - 1, and one vertex with a few
   hundred out-neighbours makes pagerank take up to three times as long
   (seed 33: one vertex of out-degree 478, pagerank 0.29 s against about
   0.1 s at 1 domain), and out-degrees near 100 still add about a fifth:
   work the seed should not move. So pagerank's graph keeps at most
   [max_out_degree] out-neighbours of each vertex, the lowest numbered
   (about half the graphs have a vertex above it). The skew this leaves
   is the in-degree of the hubs. (cc's symmetric graph is left whole: its
   time follows its edge count.) *)
let max_out_degree = 50

let cap_out_degree rows =
  List.map
    (fun r ->
      let ns = Value.to_bag (Value.field r "neighbors") in
      if List.length ns <= max_out_degree then r
      else
        Value.record
          [ ("id", Value.field r "id");
            ("neighbors", Value.bag (List.filteri (fun i _ -> i < max_out_degree) ns)) ])
    rows

let iterative =
  let gcfg = { (W.Graph_gen.default ~n_vertices) with alpha = graph_alpha } in
  let pcfg = W.Points_gen.default ~n_points ~k:3 in
  let km_params = { Pr.Kmeans.default_params with epsilon = -1.0; max_iters = kmeans_iters } in
  let gen ~seed =
    let pr_params = Pr.Pagerank.default_params ~n_pages:n_vertices in
    let vertices = cap_out_degree (W.Graph_gen.adjacency ~seed gcfg) in
    let undirected = W.Graph_gen.undirected_adjacency ~seed:(seed + 1) gcfg in
    let points = W.Points_gen.points ~seed:(seed + 2) pcfg in
    let centroids0 = W.Points_gen.initial_centroids ~seed:(seed + 2) pcfg in
    [ { name = "pagerank"; program = Pr.Pagerank.program pr_params;
        tables = [ ("vertices", vertices) ]; tol = { abs = 1e-9; rel = 0.0 };
        native = true; reference = None };
      { name = "cc";
        program = Pr.Connected_components.program Pr.Connected_components.default_params;
        tables = [ ("vertices", undirected) ]; tol = Oracle.exact; native = true;
        reference = None };
      { name = "kmeans"; program = Pr.Kmeans.program km_params;
        tables = [ ("points", points); ("centroids0", centroids0) ];
        tol = { abs = 1e-6; rel = 0.0 }; native = true; reference = None } ]
  in
  { dop = 320; gen;
    facts =
      [ ("vertices", string_of_int n_vertices); ("degree_alpha", string_of_float graph_alpha);
        ("max_out_degree", string_of_int max_out_degree);
        ("points", string_of_int n_points); ("kmeans_iterations", string_of_int kmeans_iters);
        ("programs", "pagerank,cc,kmeans") ] }

let scale_factor = 0.005
let n_tuples = 50_000

let relational =
  let gen ~seed =
    let cfg = W.Tpch_gen.of_scale_factor scale_factor in
    let lineitem = W.Tpch_gen.lineitem ~seed cfg in
    let orders = W.Tpch_gen.orders ~seed cfg in
    let customer = W.Tpch_gen.customer ~seed cfg in
    let dataset =
      W.Keyed_gen.tuples ~seed:(seed + 1)
        (W.Keyed_gen.paper_config ~n_tuples (W.Keyed_gen.pareto ~n_keys:100))
    in
    let tpch = { Oracle.abs = 1e-6; rel = 1e-6 } in
    [ { name = "q1"; program = Pr.Tpch_q1.program Pr.Tpch_q1.default_params;
        tables = [ ("lineitem", lineitem) ]; tol = tpch; native = true;
        reference = Some (fun () -> Value.bag (Emma_tpch.Reference.q1 lineitem)) };
      (* Q3 and Q4 run natively as nested loops (tens of seconds at this
         scale), so the hand-written reference is their only oracle. *)
      { name = "q3"; program = Pr.Tpch_q3.program Pr.Tpch_q3.default_params;
        tables = [ ("customer", customer); ("orders", orders); ("lineitem", lineitem) ];
        tol = tpch; native = false;
        reference =
          Some
            (fun () ->
              Value.bag
                (Emma_tpch.Reference.q3 ~customer ~orders ~lineitem
                   Pr.Tpch_q3.default_params)) };
      { name = "q4"; program = Pr.Tpch_q4.program Pr.Tpch_q4.default_params;
        tables = [ ("orders", orders); ("lineitem", lineitem) ]; tol = tpch; native = false;
        reference = Some (fun () -> Value.bag (Emma_tpch.Reference.q4 ~orders ~lineitem)) };
      { name = "group-min"; program = Pr.Group_min.program Pr.Group_min.default_params;
        tables = [ ("dataset", dataset) ]; tol = Oracle.exact; native = true;
        reference = Some (fun () -> Value.bag (Pr.Group_min.reference dataset)) } ]
  in
  { dop = 320; gen;
    facts =
      [ ("scale_factor", string_of_float scale_factor);
        ("tuples", string_of_int n_tuples); ("key_dist", "pareto/100");
        ("programs", "q1,q3,q4,group-min") ] }

(* ---- one run ---- *)

let run spec ctx =
  List.iter (fun (k, v) -> fact ctx k v) spec.facts;
  fact ctx "dop" (string_of_int spec.dop);
  let sessions () = (session ~dop:spec.dop ~domains:1 (), session ~dop:spec.dop ~domains:ctx.nproc ()) in
  let release (s1, sn) = Session.close s1; Session.close sn in
  let progs, ss =
    record_setup ctx
      ~release:(fun (_, ss) -> release ss)
      (fun () ->
        let gen, progs = time (fun () -> spec.gen ~seed:ctx.seed) in
        (gen, (progs, sessions ())))
  in
  (* compiles are timed with no idle pool domains around: every minor
     collection would have to synchronise with them *)
  release ss;
  record_compile ctx (List.map (fun p -> p.program) progs);
  let s1, sn = Affinity.spawning sessions in
  let algos = List.map (fun p -> (p, Emma.parallelize p.program)) progs in
  (* the first result of each program; every later one must equal it bit
     for bit, values and cost-model fields alike *)
  let firsts = Hashtbl.create 8 in
  let run_prog ?tr session (p, algo) =
    let go () = Session.run session algo ~tables:p.tables in
    let wall, outcome =
      time (fun () -> match tr with None -> go () | Some tr -> span tr "session.run" go)
    in
    match outcome with
    | Session.Finished r ->
        (match Hashtbl.find_opt firsts p.name with
        | None -> Hashtbl.replace firsts p.name r
        | Some (first : Session.run_result) ->
            Oracle.check ctx.oracle (p.name ^ " value") (Oracle.value first.value r.value);
            Oracle.check ctx.oracle (p.name ^ " cost") (Oracle.cost first.metrics r.metrics));
        Some (wall, run_of ~call_s:wall r.metrics)
    | o ->
        Oracle.check ctx.oracle p.name (Error (outcome_status o));
        None
  in
  let one_pass ?tr session () =
    let body () =
      pool_delta (Session.pool session) (fun () -> List.filter_map (run_prog ?tr session) algos)
    in
    let wall, (pool, done_) =
      time (fun () -> match tr with None -> body () | Some tr -> span tr "pass" body)
    in
    pass ~pool ~wall ~lat:[] ~runs:(List.map snd done_) ()
  in
  (* timed units are single program runs, taken round-robin, so each is
     scaled by the host speed measured right around it *)
  let unit_of session =
    let next = ref 0 in
    fun () ->
      let p, algo = List.nth algos (!next mod List.length algos) in
      incr next;
      let pool, r = pool_delta (Session.pool session) (fun () -> run_prog session (p, algo)) in
      match r with
      | Some (wall, run) -> pass ~group:p.name ~pool ~wall ~lat:[ (p.name, wall) ] ~runs:[ run ] ()
      | None -> pass ~group:p.name ~pool ~wall:0.0 ~lat:[] ~runs:[] ()
  in
  ignore (one_pass s1 ());
  ignore (Affinity.with_main (one_pass sn));
  let p1, pn =
    timed_passes ~min_passes:(3 * List.length algos) ~collect_every:(2 * List.length algos) ctx
      ~one:(unit_of s1)
      ~many:(let u = unit_of sn in fun () -> Affinity.with_main u)
  in
  record_passes ctx p1 pn;
  ignore (record_traced ctx ~pass:(fun ?tr () -> Affinity.with_main (one_pass ?tr sn)));
  (* the compile-phase spans: one traced cold compile of every program *)
  let k = speed () in
  let tr = Emma_util.Trace.create () in
  List.iter (fun p -> ignore (Emma.Pipeline.compile ~trace:tr p.program)) progs;
  Hashtbl.iter
    (fun key v ->
      if String.starts_with ~prefix:"compiler.phase_self_s." key then set_layer ctx key (k *. v))
    (Spans.self_by_layer (Spans.build (Emma_util.Trace.events tr)));
  (* the oracle: first results against native runs and references *)
  List.iter
    (fun (p, algo) ->
      match Hashtbl.find_opt firsts p.name with
      | None -> ()
      | Some (first : Session.run_result) ->
          if p.native then
            Oracle.check ctx.oracle (p.name ^ " vs native")
              (Oracle.value ~tol:p.tol (fst (Emma.run_native algo ~tables:p.tables)) first.value);
          Option.iter
            (fun r ->
              Oracle.check ctx.oracle (p.name ^ " vs reference")
                (Oracle.value ~tol:p.tol (r ()) first.value))
            p.reference)
    algos;
  probe_pool ctx ~width:spec.dop;
  Session.close s1;
  Session.close sn
