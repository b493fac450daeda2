(* The benchmark's own tests: self time on hand-built span trees, the
   percentile rule, the oracle catching perturbed outputs, pagerank's
   degree cap and thread placement. *)

open Perfbench
module Trace = Emma_util.Trace
module Value = Emma_value.Value
module Metrics = Emma_engine.Metrics

let failures = ref 0

let expect name ok =
  if ok then Printf.printf "ok   %s\n" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let near a b = Float.abs (a -. b) < 1e-9

(* events at microsecond timestamps, in emission order *)
let ev ph tid ts cat name =
  { Trace.ev_name = name; ev_cat = cat; ev_ph = ph; ev_ts_us = ts *. 1e6; ev_tid = tid;
    ev_args = [] }

let b = ev Trace.B
let e = ev Trace.E

let find spans name =
  match List.find_opt (fun s -> s.Spans.name = name) (Array.to_list spans) with
  | Some s -> s
  | None -> failwith ("no span " ^ name)

let test_nested () =
  (* pass [0,10] > job [1,9] > stage [2,6] > task [3,5]; job also covers [7,8] *)
  let spans =
    Spans.build
      [ b 0 0. "bench" "pass"; b 0 1. "job" "job"; b 0 2. "stage" "map";
        b 0 3. "task" "task"; e 0 5. "task" "task"; e 0 6. "stage" "map";
        b 0 7. "stage" "fold"; e 0 8. "stage" "fold"; e 0 9. "job" "job";
        e 0 10. "bench" "pass" ]
  in
  expect "nested: pass self = 2" (near (find spans "pass").self 2.0);
  expect "nested: job self = 3" (near (find spans "job").self 3.0);
  expect "nested: stage self = 2" (near (find spans "map").self 2.0);
  expect "nested: task self = 2" (near (find spans "task").self 2.0);
  let h = Spans.self_by_layer spans in
  expect "nested: layers sum to the root's wall"
    (near (Hashtbl.fold (fun _ v acc -> acc +. v) h 0.0) 10.0);
  expect "nested: unattributed is the root's self"
    (near (Hashtbl.find h "trace.unattributed_s") 2.0)

let test_workers () =
  (* a barrier on the caller [0,100]; worker tasks on tids 1 and 2 overlap
     each other ([10,50] and [30,80]); the caller runs its own task
     [20,40] meanwhile, which must not adopt the workers' tasks *)
  let spans =
    Spans.build
      [ b 0 0. "stage" "barrier"; b 1 10. "task" "task"; b 0 20. "task" "own";
        b 3 22. "task" "task"; b 2 30. "task" "task"; e 3 38. "task" "task";
        e 0 40. "task" "own"; e 1 50. "task" "task"; e 2 80. "task" "task";
        e 0 100. "stage" "barrier" ]
  in
  let barrier = find spans "barrier" in
  expect "workers: barrier self = 100 - |[10,80]| = 30" (near barrier.self 30.0);
  expect "workers: caller task keeps its whole interval" (near (find spans "own").self 20.0);
  expect "workers: worker tasks hang under the barrier, even inside the caller's task"
    (Array.for_all
       (fun s -> s.Spans.name <> "task" || s.Spans.parent = barrier.id)
       spans);
  let h = Spans.self_by_layer spans in
  expect "workers: task time counts every worker's task once"
    (near (Hashtbl.find h "engine.task_s") (40.0 +. 50.0 +. 16.0 +. 20.0))

let test_lanes () =
  (* two serve lanes' jobs on tids 1 and 2 under the benchmark's call *)
  let spans =
    Spans.build
      [ b 0 0. "bench" "pass"; b 1 1. "job" "job"; b 2 2. "job" "job2";
        b 2 3. "stage" "map"; e 2 4. "stage" "map"; e 1 5. "job" "job";
        e 2 6. "job" "job2"; e 0 10. "bench" "pass" ]
  in
  let pass = find spans "pass" in
  expect "lanes: a lane's job never adopts the other lane's job"
    ((find spans "job2").parent = pass.id && (find spans "job").parent = pass.id);
  expect "lanes: pass self = 10 - |[1,6]| = 5" (near pass.self 5.0)

let test_percentile () =
  let xs n = List.init n float_of_int in
  expect "p95 refused with 100 samples (5 above)"
    (Result.is_error (Stats.tail_percentile 0.95 (xs 100)));
  expect "p95 refused with 199 samples (9 above)"
    (Result.is_error (Stats.tail_percentile 0.95 (xs 199)));
  expect "p95 of 0..199 is 189 with 10 above"
    (Stats.tail_percentile 0.95 (xs 200) = Ok 189.0);
  expect "p50 of 20 samples is allowed" (Stats.tail_percentile 0.5 (xs 20) = Ok 9.0);
  expect "median of an even count" (Stats.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5)

let test_oracle () =
  let row id rank = Value.record [ ("id", Value.int id); ("rank", Value.float rank) ] in
  let ranks = Value.bag [ row 2 0.25; row 1 0.75 ] in
  let tol = { Oracle.abs = 1e-9; rel = 0.0 } in
  expect "oracle: same bag in another order passes"
    (Oracle.value ~tol ranks (Value.bag [ row 1 (0.75 +. 1e-12); row 2 0.25 ]) = Ok ());
  expect "oracle: a perturbed value is flagged"
    (Result.is_error (Oracle.value ~tol ranks (Value.bag [ row 1 0.75; row 2 (0.25 +. 1e-6) ])));
  expect "oracle: a missing row is flagged"
    (Result.is_error (Oracle.value ~tol ranks (Value.bag [ row 1 0.75 ])));
  let m = Metrics.create () in
  m.sim_time_s <- 12.5;
  m.shuffle_bytes <- 4096.0;
  let m' = Metrics.create () in
  m'.sim_time_s <- 12.5;
  m'.shuffle_bytes <- 4096.0;
  m'.wall_time_s <- 3.0;
  expect "oracle: wall time is not a cost field" (Oracle.cost m m' = Ok ());
  m'.shuffle_bytes <- Float.succ 4096.0;
  expect "oracle: a perturbed cost field is flagged" (Result.is_error (Oracle.cost m m'));
  expect "oracle: equal fingerprints pass" (Oracle.fingerprint "a=1;b=2" "a=1;b=2" = Ok ());
  expect "oracle: a perturbed fingerprint is flagged"
    (Result.is_error (Oracle.fingerprint "a=1;b=2" "a=1;b=3"));
  let o = Oracle.create () in
  Oracle.check o "x" (Ok ());
  Oracle.check o "y" (Error "bad");
  expect "oracle: failures count against attempts" (o.attempted = 2 && o.failed = 1)

let test_clear_units () =
  let unit group wall all_cores =
    { (Common.pass ~group ~wall ~lat:[] ~runs:[] ()) with Common.all_cores }
  in
  let units =
    [ unit "a" 1.0 true; unit "a" 2.0 false; unit "a" 1.1 true; unit "a" 1.2 true;
      unit "b" 5.0 true; unit "b" 9.0 false; unit "b" 9.5 false ]
  in
  let walls g =
    List.sort compare
      (List.filter_map
         (fun (p : _ Common.pass) -> if p.group = g then Some p.wall else None)
         (Common.clear_units units))
  in
  expect "clear units: a group with three clear units keeps only those"
    (walls "a" = [ 1.0; 1.1; 1.2 ]);
  expect "clear units: a group with fewer keeps all of its units" (walls "b" = [ 5.0; 9.0; 9.5 ]);
  expect "clear units: not enough until every group has three"
    (not (Common.clear_enough units))

let test_serve_trace () =
  let events ~seed = Serve_wl.trace ~seed ~n:60 ~n_variants:12 ~tenants:[ "t0"; "t1" ] in
  let share evs t =
    List.sort compare
      (List.filter_map
         (fun (e : Emma_serve.Arrival.event) ->
           if e.tenant = t then
             Some (match String.index_opt e.query '@' with Some i -> String.sub e.query 0 i ^ "@" | None -> e.query)
           else None)
         evs)
  in
  let a = events ~seed:1 and b = events ~seed:2 in
  let count q l = List.length (List.filter (String.equal q) l) in
  expect "serve trace: both lanes get as many queries, and of each kind within one"
    (List.length (share a "t0") = List.length (share a "t1")
    && List.for_all
         (fun q -> abs (count q (share a "t0") - count q (share a "t1")) <= 1)
         (share a "t0" @ share a "t1"));
  expect "serve trace: another seed keeps each lane's queries" (share a "t0" = share b "t0");
  expect "serve trace: another seed moves the order"
    (List.map (fun (e : Emma_serve.Arrival.event) -> e.query) a
    <> List.map (fun (e : Emma_serve.Arrival.event) -> e.query) b)

(* pagerank's graph: no vertex above the cap, each kept neighbour list a
   prefix of the generated one, the other vertices untouched *)
let test_degree_cap () =
  let gcfg = { (Emma_workloads.Graph_gen.default ~n_vertices:500) with alpha = 2.5 } in
  (* seed 33 draws a vertex with 478 out-neighbours *)
  let raw = Emma_workloads.Graph_gen.adjacency ~seed:33 gcfg in
  let capped = Batch.cap_out_degree raw in
  let ns r = Value.to_bag (Value.field r "neighbors") in
  let max_degree g = List.fold_left (fun m r -> max m (List.length (ns r))) 0 g in
  expect "degree cap: the generated graph has a vertex above the cap"
    (max_degree raw > Batch.max_out_degree);
  expect "degree cap: no vertex above the cap after it" (max_degree capped = Batch.max_out_degree);
  expect "degree cap: every vertex keeps its id and a prefix of its neighbours"
    (List.for_all2
       (fun r c ->
         Value.field r "id" = Value.field c "id"
         && List.filteri (fun i _ -> i < Batch.max_out_degree) (ns r) = ns c)
       raw capped)

(* The CPUs a thread of this process may run on, from /proc. *)
let allowed_list tid =
  let status =
    In_channel.with_open_text
      (Printf.sprintf "/proc/self/task/%d/status" tid)
      In_channel.input_all
  in
  List.find_map
    (fun l ->
      match String.split_on_char ':' l with
      | [ "Cpus_allowed_list"; v ] -> Some (String.trim v)
      | _ -> None)
    (String.split_on_char '\n' status)

(* thread placement: an nproc-domain pool's threads go to the worker CPU,
   the main domain goes to its own CPU only inside [with_main] *)
let test_placement () =
  Affinity.init ~cpus:"-" ~nproc:2 ();
  expect "placement: off without CPUs"
    (Affinity.describe () = "off" && Affinity.with_main (fun () -> 7) = 7);
  if Affinity.threads () = [] || Array.length !Affinity.allowed < 2 then
    print_endline "skip placement: fewer than two CPUs or no /proc"
  else begin
    let worker = !Affinity.allowed.(0) and main_cpu = !Affinity.allowed.(1) in
    Affinity.init ~cpus:(Printf.sprintf "%d,%d" worker main_cpu) ~nproc:2 ();
    let before = Affinity.threads () @ !Affinity.main_threads in
    let main = Unix.getpid () in
    let main_before = allowed_list main in
    let pool = Affinity.spawning (fun () -> Emma_util.Pool.create ~domains:2 ()) in
    let fresh = List.filter (fun t -> not (List.mem t before) && t <> main) (Affinity.threads ()) in
    let inside = Affinity.with_main (fun () -> allowed_list main) in
    expect "placement: the pool's new threads run on the worker CPU"
      (fresh <> []
      && List.for_all (fun t -> allowed_list t = Some (string_of_int worker)) fresh);
    expect "placement: the main domain is on its CPU only inside with_main"
      (inside = Some (string_of_int main_cpu) && allowed_list main = main_before);
    expect "placement: nothing refused" (!Affinity.refused = 0);
    Emma_util.Pool.shutdown pool;
    Affinity.init ~cpus:"-" ~nproc:2 ()
  end

let () =
  test_degree_cap ();
  test_placement ();
  test_nested ();
  test_workers ();
  test_lanes ();
  test_percentile ();
  test_oracle ();
  test_clear_units ();
  test_serve_trace ();
  if !failures > 0 then begin
    Printf.printf "%d selftest failure(s)\n" !failures;
    exit 1
  end
