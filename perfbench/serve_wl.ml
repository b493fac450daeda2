(* [serve]: real-mode Serve.run_concurrent over a seeded trace of short
   queries with Zipf popularity, a fixed share of them parameter variants
   that miss the plan cache. Closed loop: one lane domain per tenant over
   a 1-domain pool, so lanes plus pool workers never exceed nproc. Each
   pass starts from a fresh session, so every pass does the same cold
   compiles.

   The query mix is the E13 serve experiment's (bench/exp_serve.ml): the
   same four queries in the same popularity order under Zipf(1.1), with
   arrivals at rate 4/s (recorded, not honoured: real mode ignores
   arrival times). E13 has no parameter variants; their share here is
   this benchmark's own choice, and the run reports how much of the
   service time the cold compiles take (serve.cold_compile_share). The
   trace length sizes one pass, not the mix: long enough for every query
   to recur, short enough for at least five passes per configuration in
   a run, and together those passes leave more than ten latencies above
   the p95. *)

open Common
module Serve = Emma_serve.Serve
module Arrival = Emma_serve.Arrival
module Prng = Emma_util.Prng
module W = Emma_workloads
module Pr = Emma_programs

let dop = 32
let scale_factor = 0.0005
let n_events = 60
let variant_share = 0.2

(* E13's popularity exponent and arrival rate *)
let zipf_alpha = 1.1
let rate = 4.0

let docs ~seed n =
  let g = Prng.create seed in
  let vocab =
    [| "emma"; "bag"; "fold"; "join"; "group"; "plan"; "wal"; "crash"; "replay"; "snap" |]
  in
  Pr.Wordcount.docs_of_strings
    (List.init n (fun _ ->
         String.concat " "
           (List.init (Prng.int_in g 4 12) (fun _ ->
                vocab.(Prng.int_in g 0 (Array.length vocab - 1))))))

(* most popular first, as in E13 *)
let query_names = [ "q1"; "wordcount"; "group-min"; "q3" ]

(* The four short queries over tiny tables, and parameter variants of q1
   and q3 ([days] shifts the date cutoff). *)
let queries ~seed ~sf =
  let cfg = W.Tpch_gen.of_scale_factor sf in
  let lineitem = W.Tpch_gen.lineitem ~seed cfg in
  let orders = W.Tpch_gen.orders ~seed cfg in
  let customer = W.Tpch_gen.customer ~seed cfg in
  let dataset =
    W.Keyed_gen.tuples ~seed:(seed + 1)
      (W.Keyed_gen.paper_config ~n_tuples:2_000 (W.Keyed_gen.pareto ~n_keys:64))
  in
  let q1 days =
    ( Pr.Tpch_q1.program
        { Pr.Tpch_q1.default_params with
          cutoff = W.Tpch_gen.date_add_days Pr.Tpch_q1.default_params.cutoff (-days) },
      [ ("lineitem", lineitem) ] )
  in
  let q3 days =
    ( Pr.Tpch_q3.program
        { Pr.Tpch_q3.default_params with
          cutoff = W.Tpch_gen.date_add_days Pr.Tpch_q3.default_params.cutoff days },
      [ ("customer", customer); ("orders", orders); ("lineitem", lineitem) ] )
  in
  let base : Serve.workload =
    [ ("q1", q1 0); ("q3", q3 0);
      ( "wordcount",
        (Pr.Wordcount.program Pr.Wordcount.default_params, [ ("docs", docs ~seed:(seed + 2) 200) ]) );
      ("group-min", (Pr.Group_min.program Pr.Group_min.default_params, [ ("dataset", dataset) ])) ]
  in
  (base, q1, q3)

(* [n] submissions, [n_variants] of them distinct parameter variants of q1
   and q3 (half each) and the rest the four queries in exact Zipf(alpha)
   proportions, shuffled by [seed]. Each kind of query is dealt to
   [tenants] in turn, each kind starting one tenant further on, so the
   tenants get the same number of queries and of each kind at most one
   more than another, whatever the order. The seed moves the order and the data, never the mix or
   a tenant's share of it, so every seed asks for the same work of every
   lane. *)
let trace ~seed ~n ~n_variants ~tenants =
  let weights = List.mapi (fun r _ -> float_of_int (r + 1) ** -.zipf_alpha) query_names in
  let total = sum weights in
  let n_base = n - n_variants in
  let counts = List.map (fun w -> int_of_float (Float.round (w /. total *. float_of_int n_base))) weights in
  (* rounding slack goes to the most popular query *)
  let counts =
    match counts with c :: rest -> (c + n_base - List.fold_left ( + ) 0 counts) :: rest | [] -> []
  in
  let names =
    List.concat (List.map2 (fun q c -> List.init c (fun _ -> q)) query_names counts)
    @ List.init n_variants (fun i -> Printf.sprintf "%s@%d" (if i mod 2 = 0 then "q1" else "q3") i)
  in
  let names = Array.of_list names in
  let g = Prng.create seed in
  Prng.shuffle g names;
  let tn = Array.of_list tenants in
  let kinds = query_names @ [ "q1@"; "q3@" ] in
  let dealt = Hashtbl.create 8 in
  let clock = ref 0.0 in
  Array.to_list
    (Array.map
       (fun query ->
         let kind =
           match String.index_opt query '@' with Some i -> String.sub query 0 (i + 1) | None -> query
         in
         let i = Option.value ~default:0 (Hashtbl.find_opt dealt kind) in
         Hashtbl.replace dealt kind (i + 1);
         let i = i + Option.get (List.find_index (String.equal kind) kinds) in
         clock := !clock +. Prng.exponential g ~rate;
         { Arrival.at_s = !clock; tenant = tn.(i mod Array.length tn); query })
       names)

let workload ~seed ~tenants =
  let base, q1, q3 = queries ~seed ~sf:scale_factor in
  let n_variants = int_of_float (Float.round (variant_share *. float_of_int n_events)) in
  let events = trace ~seed ~n:n_events ~n_variants ~tenants in
  let variants =
    List.init n_variants (fun i ->
        (Printf.sprintf "%s@%d" (if i mod 2 = 0 then "q1" else "q3") i,
         (if i mod 2 = 0 then q1 else q3) (i + 1)))
  in
  (base @ variants, events)

(* ---- shared with [journal] ---- *)

(* Each query's answer from a standalone run on its own session. *)
let standalone ctx (workload : Serve.workload) =
  let s = session ~dop ~domains:1 () in
  let expected = Hashtbl.create 64 in
  List.iter
    (fun (q, (p, tables)) ->
      match Session.run s (Emma.parallelize p) ~tables with
      | Session.Finished r -> Hashtbl.replace expected q r
      | o -> Oracle.check ctx.oracle ("standalone " ^ q) (Error (outcome_status o)))
    workload;
  Session.close s;
  expected

(* Every submission accounted for by id exactly once, and every executed
   query equal to its standalone run in value and cost-model fields. An
   outcome replayed from a journal carries no value; the fingerprint
   covers it. *)
let check ctx expected ~n (c : Serve.counters) =
  let ids =
    List.map (fun r -> r.Serve.qr_sub) c.sv_results @ List.map (fun s -> s.Serve.sh_sub) c.sv_shed
  in
  Oracle.check ctx.oracle "submissions accounted by id"
    (if List.sort compare ids = List.init n Fun.id then Ok ()
     else Error (Printf.sprintf "%d ids for %d submissions" (List.length ids) n));
  List.iter
    (fun (r : Serve.query_result) ->
      match (r.qr_outcome, Hashtbl.find_opt expected r.qr_query) with
      | Session.Finished res, _ when res.metrics.recovery_replayed = 1 -> ()
      | Session.Finished res, Some (e : Session.run_result) ->
          Oracle.check ctx.oracle (r.qr_query ^ " value") (Oracle.value e.value res.value);
          Oracle.check ctx.oracle (r.qr_query ^ " cost") (Oracle.cost e.metrics res.metrics)
      | o, _ -> Oracle.check ctx.oracle r.qr_query (Error (outcome_status o)))
    c.sv_results

(* What a pass keeps of its counters: the serve-layer figures, in host
   seconds. Results themselves are dropped once checked. *)
type summary = {
  waits : float list;  (** admission wait per query *)
  services : float list;  (** service time per query *)
  cache : Emma.Plan_cache.stats option;
  max_queue : int;
  shed : int;
}

let summarize (c : Serve.counters) =
  { waits = List.map (fun r -> r.Serve.qr_start_s -. r.qr_arrival_s) c.sv_results;
    services = List.map (fun r -> r.Serve.qr_service_s) c.sv_results;
    cache = c.sv_cache;
    max_queue = List.fold_left (fun acc t -> max acc t.Serve.tc_max_queue) 0 c.sv_tenants;
    shed = List.length c.sv_shed }

let record_summary ctx s =
  Option.iter
    (fun (st : Emma.Plan_cache.stats) ->
      let subs = st.hits + st.misses in
      set_layer ctx "plan_cache.hit_ratio"
        (if subs = 0 then 0.0 else float_of_int st.hits /. float_of_int subs);
      set_layer ctx "plan_cache.misses" (float_of_int st.misses);
      set_layer ctx "plan_cache.evictions" (float_of_int st.evictions))
    s.cache;
  set_layer ctx "serve.max_queue" (float_of_int s.max_queue);
  set_layer ctx "serve.shed" (float_of_int s.shed)

(* The query a result ran, a parameter variant counted with its base. *)
let kind (r : Serve.query_result) =
  match String.index_opt r.qr_query '@' with
  | Some i -> String.sub r.qr_query 0 i
  | None -> r.qr_query

(* Pass wall time not spent inside the engine. *)
let sched_s (p : _ pass) = p.wall -. sum (List.map (fun r -> r.engine_s) p.runs)

let runs_of (c : Serve.counters) ~call =
  List.map
    (fun r ->
      let m = Session.metrics_of_outcome r.Serve.qr_outcome in
      if call then run_of ~call_s:r.Serve.qr_service_s m else run_of m)
    c.sv_results

(* ---- the workload ---- *)

let tenant_names n = List.init n (Printf.sprintf "t%d")

let run ctx =
  fact ctx "dop" (string_of_int dop);
  fact ctx "scale_factor" (string_of_float scale_factor);
  fact ctx "events" (string_of_int n_events);
  fact ctx "variant_share" (string_of_float variant_share);
  fact ctx "zipf_alpha" (string_of_float zipf_alpha);
  fact ctx "query_popularity" (String.concat ">" query_names);
  fact ctx "plan_cache" "lru:64, fresh per pass";
  fact ctx "loop" (Printf.sprintf "closed; 1 or %d lanes over a 1-domain pool" ctx.nproc);
  let workload, events =
    record_setup ctx ~release:ignore (fun () ->
        time (fun () -> workload ~seed:ctx.seed ~tenants:(tenant_names ctx.nproc)))
  in
  record_compile ctx (List.map (fun (_, (p, _)) -> p) workload);
  let expected = standalone ctx workload in
  let single = List.map (fun (e : Arrival.event) -> { e with tenant = "t0" }) events in
  let one_pass ?tr ~lanes () =
    let s = session ~plan_cache:(Some 64) ~dop ~domains:1 () in
    let tenants = List.map Serve.tenant (tenant_names lanes) in
    let evs = if lanes = 1 then single else events in
    let go () = Serve.run_concurrent s tenants workload evs in
    let wall, c =
      time (fun () ->
          match tr with
          | None -> go ()
          | Some tr -> span tr "pass" (fun () -> span tr "serve.run_concurrent" go))
    in
    Session.close s;
    check ctx expected ~n:n_events c;
    pass ~wall
      ~lat:(List.map (fun r -> (kind r, r.Serve.qr_finish_s -. r.Serve.qr_arrival_s)) c.sv_results)
      ~runs:(runs_of c ~call:true) (summarize c)
  in
  let p1, pn =
    timed_passes ~min_passes:5 ctx ~one:(one_pass ~lanes:1) ~many:(one_pass ~lanes:ctx.nproc)
  in
  record_passes ctx p1 pn;
  (match Stats.tail_percentile 0.95 (List.concat_map (fun p -> List.map snd p.lat) pn) with
  | Ok v -> set_layer ctx "serve.p95_s" v
  | Error e -> Oracle.check ctx.oracle "serve p95" (Error e));
  let each f = List.concat_map (fun p -> List.map (( *. ) p.k) (f p.extra)) pn in
  set_layer ctx "serve.wait_p50_s" (median (each (fun s -> s.waits)));
  set_layer ctx "serve.service_p50_s" (median (each (fun s -> s.services)));
  (* one lane: the pass is a sequence, so its time outside the engine is
     the lane's own overhead *)
  set_layer ctx "serve.sched_s" (median (List.map sched_s p1));
  record_summary ctx (List.hd pn).extra;
  let h, traced = record_traced ctx ~pass:(fun ?tr () -> one_pass ?tr ~lanes:ctx.nproc ()) in
  (* compile-phase self time over the lanes' summed service time, both in
     host seconds over the traced passes *)
  let compile_s =
    Hashtbl.fold
      (fun key v acc ->
        if String.starts_with ~prefix:"compiler.phase_self_s." key then acc +. v else acc)
      h 0.0
  in
  set_layer ctx "serve.cold_compile_share"
    (compile_s /. sum (List.concat_map (fun p -> p.extra.services) traced));
  probe_pool ctx ~width:dop
