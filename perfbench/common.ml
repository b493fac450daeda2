(* What every workload shares: the run context, host-speed scaling,
   sessions, the timed pass loop, the tracer switch and the pool dispatch
   probe. *)

module Trace = Emma_util.Trace
module Pool = Emma_util.Pool
module Session = Emma.Session
module Config = Emma.Config
module Metrics = Emma.Metrics

type ctx = {
  seed : int;
  seconds : float;  (** length of the timed phase *)
  nproc : int;  (** domain count of the parallel configuration *)
  work_dir : string;  (** scratch space inside the checkout *)
  oracle : Oracle.t;
  e2e : (string, float) Hashtbl.t;
  layer : (string, float) Hashtbl.t;
  mutable facts : (string * string) list;  (** the run record, newest first *)
}

let set_e2e ctx k v = Hashtbl.replace ctx.e2e k v
let set_layer ctx k v = Hashtbl.replace ctx.layer k v
let fact ctx k v = ctx.facts <- (k, v) :: ctx.facts

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

let median = Stats.median
let sum = List.fold_left ( +. ) 0.0

(* ---- host speed ---- *)

(* A fixed piece of allocation-heavy single-domain work that touches no
   repository code: lists, a sort and a hash table, like the engine's
   partition tasks. On a shared host its time swings with the host's
   speed, and the program's times swing with it. *)
let calib_work () =
  let xs = List.init 20_000 (fun i -> (i * 7919) mod 10_007) in
  let h = Hashtbl.create 1024 in
  List.iter
    (fun k -> Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k)))
    xs;
  List.fold_left ( + ) 0 (List.sort compare xs) + Hashtbl.length h

(* A fixed piece of arithmetic that neither allocates nor touches memory:
   its time depends only on the core it runs on getting to run. *)
let cpu_work () =
  let x = ref 0x2545F491 in
  for _ = 1 to 1_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  !x

(* [cpu_work]'s time on [domains] domains at once: each domain runs it
   three times in lock step, and a round takes as long as its slowest
   domain. The median round. *)
let cpu_time ~domains =
  let reps = 3 in
  let arrived = Atomic.make 0 in
  let worker i () =
    Affinity.pin_self i;
    List.init reps (fun r ->
        Atomic.incr arrived;
        while Atomic.get arrived < domains * (r + 1) do Domain.cpu_relax () done;
        fst (time (fun () -> ignore (Sys.opaque_identity (cpu_work ())))))
  in
  let others = List.init (domains - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  let mine = worker 0 () in
  median (List.fold_left (List.map2 Float.max) mine (List.map Domain.join others))

(* The calibration loop's time at reference speed. *)
let reference_s = 0.008

(* The calibration runs in a process of its own ([main.exe calib-child
   NPROC CPUS]), so neither this process's heap nor its pool domains can
   move it; this process waits while it runs. For each request the child
   collects its own small heap and answers with the median of three runs
   of [calib_work]; for a request ['n'], placed like nproc-domain work
   ([Affinity]), it adds the time of [cpu_work] on NPROC domains at once
   over its time on one. *)
let calib_child ~nproc ~cpus =
  Affinity.init ~cpus ~nproc ();
  let measure () =
    Gc.full_major ();
    median
      (List.init 3 (fun _ -> fst (time (fun () -> ignore (Sys.opaque_identity (calib_work ()))))))
  in
  try
    while true do
      if input_char stdin = 'n' then
        Affinity.with_main (fun () ->
            let t = measure () in
            Printf.printf "%.9f %.9f\n%!" t (cpu_time ~domains:nproc /. cpu_time ~domains:1))
      else Printf.printf "%.9f\n%!" (measure ())
    done
  with End_of_file -> exit 0

let calibrator : (in_channel * out_channel) option ref = ref None

let start_calibrator exe ~nproc =
  calibrator :=
    Some
      (Unix.open_process_args exe
         [| exe; "calib-child"; string_of_int nproc; Affinity.to_arg () |])

(* Closes the child's input, so it exits, and waits for it. *)
let stop_calibrator () =
  Option.iter (fun ch -> ignore (Unix.close_process ch)) !calibrator;
  calibrator := None

(* Calibration times taken around 1-domain units ("1d"), around
   nproc-domain units ("nd") and elsewhere ("other"), and the core ratios
   measured around nproc-domain units. *)
let calib_log : (string, float list) Hashtbl.t = Hashtbl.create 4

let calib_logged tag = Option.value ~default:[] (Hashtbl.find_opt calib_log tag)
let log_calib tag x = Hashtbl.replace calib_log tag (x :: calib_logged tag)

(* A core ratio above this means the host did not run all nproc domains
   at once: on a virtual machine whose other tenants take turns on its
   cores, nproc-domain work is then slower for reasons outside the
   program. Without contention the ratio sits within a few percent of 1;
   with a core taken it is near 2. *)
let max_core_ratio = 1.25

(* One request to the child: its calibration time and, with [~nd:true],
   the core ratio (1.0 otherwise). *)
let ask ~nd =
  match !calibrator with
  | None -> invalid_arg "Common.ask: no calibrator running"
  | Some (ic, oc) -> (
      output_char oc (if nd then 'n' else '1');
      flush oc;
      match List.map float_of_string (String.split_on_char ' ' (input_line ic)) with
      | [ c ] -> (c, 1.0)
      | [ c; r ] -> (c, r)
      | _ -> failwith "calibrator: malformed answer")

(* Reference seconds per host second right now: [reference_s] over the
   child's calibration time. Every time the benchmark reports is a host
   time multiplied by this factor, measured around the work it scales.
   Multi-domain work is scaled by the same one-domain factor, so 1-domain
   and nproc-domain times stay in one unit. *)
let speed ?(tag = "other") () =
  let c, _ = ask ~nd:false in
  log_calib tag c;
  reference_s /. c

(* [f ()] repeated until [budget] seconds have passed and at least
   [min_reps] samples are in. *)
let samples ?(min_reps = 15) ~budget f =
  let stop = now () +. budget in
  let rec go n acc = if n >= min_reps && now () >= stop then acc else go (n + 1) (f () :: acc) in
  go 0 []

(* Cold compiles of [progs] through the whole pipeline, summed per round;
   the front end alone is timed separately. A sample is the median of
   [rounds] rounds under one host-speed factor: a round takes well under
   a millisecond, so one round alone would mostly measure timer and cache
   noise. *)
let record_compile ?(rounds = 10) ctx progs =
  Gc.full_major ();
  let round () =
    List.fold_left
      (fun (front, total) p ->
        let tf, _ = time (fun () -> Emma.Pipeline.normalized p) in
        let ta, _ = time (fun () -> Emma.parallelize p) in
        (front +. tf, total +. ta))
      (0.0, 0.0) progs
  in
  let s =
    samples ~min_reps:30 ~budget:1.0 (fun () ->
        let k = speed () in
        let rs = List.init rounds (fun _ -> round ()) in
        (k, median (List.map fst rs), median (List.map snd rs)))
  in
  let hs = List.map (fun (_, f, t) -> (f, t)) s in
  let s = List.map (fun (k, f, t) -> (k *. f, k *. t)) s in
  set_e2e ctx "compile_s" (median (List.map snd s));
  fact ctx "compile_host_s" (Printf.sprintf "%.6g" (median (List.map (fun (_, t) -> t) hs)));
  set_layer ctx "compiler.front_s" (median (List.map fst s));
  set_layer ctx "compiler.back_s" (median (List.map (fun (f, t) -> t -. f) s));
  let count f = float_of_int (List.fold_left (fun acc p -> acc + f p) 0 progs) in
  set_layer ctx "compiler.nodes_in" (count Emma.Pipeline.program_size);
  set_layer ctx "compiler.nodes_out"
    (count (fun p -> Emma.Pipeline.cprog_size (Emma.parallelize p).Emma.compiled))

(* Runs [setup] at least [reps] times and for at least [budget] seconds,
   and keeps the last environment, releasing the earlier ones and
   collecting their garbage before the next set-up is timed. [setup ()]
   returns the host seconds its input generation took and the
   environment. Records setup_s and workloads.gen_s as medians. *)
let record_setup ?(reps = 9) ?(budget = 0.5) ctx ~release setup =
  let stop = now () +. budget in
  let rec go i acc last =
    Option.iter release last;
    Gc.full_major ();
    let k = speed () in
    let dt, (gen, env) = time setup in
    let acc = (k *. dt, k *. gen) :: acc in
    if i + 1 >= reps && now () >= stop then (acc, env) else go (i + 1) acc (Some env)
  in
  let times, env = go 0 [] None in
  set_e2e ctx "setup_s" (median (List.map fst times));
  set_layer ctx "workloads.gen_s" (median (List.map snd times));
  env

(* The paper's evaluation cluster at [dop] slots, Spark-like profile — the
   CLI's default runtime. *)
let runtime ~dop =
  Emma.
    { cluster = Cluster.paper_cluster ~dop ();
      profile = Cluster.spark_like;
      timeout_s = None }

let session ?(plan_cache = None) ~dop ~domains () =
  Session.create
    ~config:Config.(default |> with_domains (Some domains) |> with_plan_cache plan_cache)
    (runtime ~dop)

(* ---- pool counters around a call ---- *)

type pool_delta = { steals : int; misses : int; tasks : int }

let zero_delta = { steals = 0; misses = 0; tasks = 0 }

let pool_delta pool f =
  let a = Pool.stats pool in
  let r = f () in
  let b = Pool.stats pool in
  ( { steals = b.steals - a.steals; misses = b.steal_misses - a.steal_misses;
      tasks = b.tasks_run - a.tasks_run },
    r )

(* ---- passes ---- *)

(* One engine run inside a pass: its metrics, the engine's own wall time
   and, where the benchmark can see the session call, that call's wall
   time. *)
type run = { m : Metrics.t; engine_s : float; call_s : float option }

let run_of ?call_s (m : Metrics.t) = { m; engine_s = m.wall_time_s; call_s }

(* One timed unit of a workload, every time in reference seconds once
   scaled; [extra] is the workload's own record of it, in host seconds.
   A pass over the workload is one unit of every [group]: the serve
   workloads time the whole trace as one unit, the batch workloads time
   each program as its own unit (and group). *)
type 'a pass = {
  group : string;
  wall : float;
  lat : (string * float) list;  (** per-operation latencies, by kind of operation *)
  runs : run list;
  pool : pool_delta;
  k : float;  (** the host-speed factor applied *)
  all_cores : bool;  (** no core ratio around the unit above [max_core_ratio] *)
  extra : 'a;
}

let pass ?(group = "") ?(pool = zero_delta) ~wall ~lat ~runs extra =
  { group; wall; lat; runs; pool; k = 1.0; all_cores = true; extra }

(* A per-pass figure from units: the median of [f] over each group's
   units, summed over the groups. *)
let per_pass f units =
  let groups = List.sort_uniq compare (List.map (fun p -> p.group) units) in
  sum
    (List.map
       (fun g -> median (List.filter_map (fun p -> if p.group = g then Some (f p) else None) units))
       groups)

(* Scales a pass measured in host seconds by [k]. *)
let scale k p =
  { p with k; wall = k *. p.wall; lat = List.map (fun (q, l) -> (q, k *. l)) p.lat;
    runs =
      List.map
        (fun r -> { r with engine_s = k *. r.engine_s; call_s = Option.map (( *. ) k) r.call_s })
        p.runs }

(* The largest major heap so far. *)
let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int st.Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* Warm-up, then passes on the 1-domain and the nproc-domain
   configuration in turn for [ctx.seconds] (at least [min_passes] each).
   peak_heap_mb is taken after the first [min_passes] timed units of each
   configuration: a fixed amount of work, whatever the host speed lets the
   rest of the timed phase add.
   The heap is collected before every [collect_every] timed units, so no
   pass pays for the garbage of the one before. Every unit is scaled by
   the mean of the host speed measured just before and just after it.
   Around an nproc-domain unit the child also measures the core ratio;
   when it shows a core taken by the host the unit is marked, and the
   timed phase runs on, by up to half its length, until every
   group has [min_clear] unmarked nproc-domain units. *)
let min_clear = 3

let clear_enough pn =
  let groups = List.sort_uniq compare (List.map (fun p -> p.group) pn) in
  List.for_all
    (fun g -> List.length (List.filter (fun p -> p.group = g && p.all_cores) pn) >= min_clear)
    groups

let timed_passes ?(min_passes = 3) ?(collect_every = 1) ctx ~one ~many =
  let units = ref 0 in
  let run nd f =
    if !units mod collect_every = 0 then Gc.full_major ();
    incr units;
    let tag = if nd then "nd" else "1d" in
    let c0, r0 = ask ~nd in
    let p = f () in
    let c1, r1 = ask ~nd in
    List.iter (log_calib tag) [ c0; c1 ];
    if nd then List.iter (log_calib "core_ratio") [ r0; r1 ];
    let p = scale ((reference_s /. c0 +. (reference_s /. c1)) /. 2.0) p in
    { p with all_cores = Float.max r0 r1 <= max_core_ratio }
  in
  ignore (one ());
  ignore (many ());
  let deadline = now () +. ctx.seconds in
  let cutoff = deadline +. (ctx.seconds /. 2.0) in
  let rec go p1 pn =
    if List.length pn = min_passes then set_e2e ctx "peak_heap_mb" (peak_heap_mb ());
    let t = now () in
    if t >= deadline && List.length pn >= min_passes && (t >= cutoff || clear_enough pn) then
      (p1, pn)
    else
      let a = run false one in
      let b = run true many in
      go (a :: p1) (b :: pn)
  in
  go [] []

(* The nproc-domain units a pass time is taken from: in each group the
   units with all cores, if there are [min_clear] of them, else all. *)
let clear_units pn =
  let groups = List.sort_uniq compare (List.map (fun p -> p.group) pn) in
  List.concat_map
    (fun g ->
      let us = List.filter (fun p -> p.group = g) pn in
      let clear = List.filter (fun p -> p.all_cores) us in
      if List.length clear >= min_clear then clear else us)
    groups

(* Records the pass times and latencies, the run record's unit lists and,
   from [counters] (the nproc-domain units by default), the engine, UDF
   and pool counters per pass. *)
let record_passes ?counters ctx (p1 : _ pass list) (pn : _ pass list) =
  let all_nd = pn in
  let pn = clear_units pn in
  fact ctx "nd_units_with_all_cores"
    (Printf.sprintf "%d of %d (used %d)"
       (List.length (List.filter (fun p -> p.all_cores) all_nd))
       (List.length all_nd) (List.length pn));
  let wall p = p.wall in
  set_e2e ctx "pass_1d_s" (per_pass wall p1);
  set_e2e ctx "pass_nd_s" (per_pass wall pn);
  let lat = List.concat_map (fun p -> p.lat) pn in
  (* one median per kind of operation, combined by geometric mean: the
     programs and queries differ too much in length for one median over
     all of them, which would sit on the edge between two of them *)
  let kinds = List.sort_uniq compare (List.map fst lat) in
  set_e2e ctx "op_p50_s"
    (Float.exp
       (sum
          (List.map
             (fun q -> Float.log (median (List.filter_map (fun (k, l) -> if k = q then Some l else None) lat)))
             kinds)
       /. float_of_int (List.length kinds)));
  fact ctx "timed_units"
    (Printf.sprintf "%d at 1 domain, %d at %d" (List.length p1) (List.length pn) ctx.nproc);
  fact ctx "operations_nd" (string_of_int (List.length lat));
  let show f ps = String.concat " " (List.rev_map (fun p -> Printf.sprintf "%.4f" (f p)) ps) in
  fact ctx "unit_1d_s" (show wall p1);
  fact ctx "unit_nd_s" (show wall all_nd);
  fact ctx "unit_nd_all_cores"
    (String.concat " " (List.rev_map (fun p -> if p.all_cores then "1" else "0") all_nd));
  fact ctx "unit_1d_host_s" (show (fun p -> p.wall /. p.k) p1);
  fact ctx "unit_nd_host_s" (show (fun p -> p.wall /. p.k) all_nd);
  let calls =
    List.concat_map
      (fun p -> List.filter_map (fun r -> Option.map (fun c -> (c, r.engine_s)) r.call_s) p.runs)
      pn
  in
  if calls <> [] then begin
    set_layer ctx "session.submit_s" (median (List.map fst calls));
    set_layer ctx "session.overhead_s" (median (List.map (fun (c, e) -> c -. e) calls))
  end;
  (* engine counters per pass *)
  let per_pass f = per_pass f (Option.value ~default:pn counters) in
  let total f p = sum (List.map (fun r -> f r.m) p.runs) in
  let count name f = set_layer ctx name (per_pass (total f)) in
  set_layer ctx "engine.run_s" (per_pass (fun p -> sum (List.map (fun r -> r.engine_s) p.runs)));
  count "engine.jobs" (fun m -> float_of_int m.jobs);
  count "engine.stages" (fun m -> float_of_int m.stages);
  count "engine.tasks" (fun m -> float_of_int m.par_tasks);
  count "engine.chunks" (fun m -> float_of_int m.par_chunks);
  count "engine.shuffle_bytes" (fun m -> m.shuffle_bytes);
  count "engine.collect_bytes" (fun m -> m.collect_bytes);
  count "engine.recomputes" (fun m -> float_of_int m.recomputes);
  count "udf.invocations" (fun m -> float_of_int m.udf_invocations);
  let stages = per_pass (total (fun m -> float_of_int m.par_stages)) in
  set_layer ctx "engine.tasks_per_stage"
    (if stages > 0.0 then Hashtbl.find ctx.layer "engine.tasks" /. stages else 0.0);
  set_layer ctx "pool.tasks_run" (per_pass (fun p -> float_of_int p.pool.tasks));
  let steals = per_pass (fun p -> float_of_int p.pool.steals) in
  let misses = per_pass (fun p -> float_of_int p.pool.misses) in
  set_layer ctx "pool.steals" steals;
  set_layer ctx "pool.steal_hit_ratio"
    (if steals +. misses > 0.0 then steals /. (steals +. misses) else 0.0)

(* ---- tracing ---- *)

let span tr name f = Trace.span tr ~cat:"bench" name f

(* Two traced passes on the nproc-domain configuration, each right after
   an untraced one. A fresh in-memory tracer is installed as the ambient
   one for the traced passes only, so the compile-phase and job/stage/task
   spans the program already emits land next to the benchmark's own.
   Nothing is serialized. [pass ?tr ()] runs one pass, inside a root
   "pass" span when traced. Records trace_overhead as the median traced
   over untraced ratio of the pairs, and the layer self times per pass.
   A layer with no spans is left unset, except the stage groups, which
   depend on the programs. Returns the self times per layer, in host
   seconds over both traced passes, and the traced passes. *)
let record_traced ctx ~(pass : ?tr:Trace.t -> unit -> _ pass) =
  let n = 2 in
  let tr = Trace.create () in
  let traced () =
    Trace.set_global tr;
    Fun.protect ~finally:(fun () -> Trace.set_global Trace.disabled) (fun () -> pass ~tr ())
  in
  let pairs =
    List.init n (fun _ ->
        let k = speed () in
        let plain = (pass ()).wall in
        let t = traced () in
        (k, t, t.wall /. plain))
  in
  let k = median (List.map (fun (k, _, _) -> k) pairs) in
  let traced_passes = List.map (fun (_, t, _) -> t) pairs in
  let wall = k *. median (List.map (fun (t : _ pass) -> t.wall) traced_passes) in
  set_layer ctx "trace.overhead_ratio" (median (List.map (fun (_, _, r) -> r) pairs));
  let spans = Spans.build (Trace.events tr) in
  let h = Spans.self_by_layer spans in
  let get key = Option.map (fun v -> k *. v /. float_of_int n) (Hashtbl.find_opt h key) in
  let set key = Option.iter (set_layer ctx key) (get key) in
  Hashtbl.iter
    (fun key _ -> if String.starts_with ~prefix:"compiler.phase_self_s." key then set key)
    h;
  List.iter set [ "engine.job_self_s"; "engine.task_s"; "trace.unattributed_s" ];
  List.iter
    (fun g ->
      let key = "engine.stage_self_s." ^ g in
      set_layer ctx key (Option.value ~default:0.0 (get key)))
    Spans.stage_groups;
  Option.iter
    (fun u -> set_layer ctx "trace.unattributed_share" (u /. wall))
    (get "trace.unattributed_s");
  Option.iter
    (fun task_s ->
      let jobs = k *. Spans.sum_durations ~cat:"job" spans /. float_of_int n in
      set_layer ctx "pool.idle_s" (Float.max 0.0 ((float_of_int ctx.nproc *. jobs) -. task_s));
      let inv = Hashtbl.find ctx.layer "udf.invocations" in
      set_layer ctx "udf.ns_per_call" (if inv > 0.0 then task_s /. inv *. 1e9 else 0.0))
    (get "engine.task_s");
  (h, traced_passes)

(* ---- pool dispatch probe ---- *)

(* Microseconds per task of [Pool.parmap] over [width] no-op tasks: the
   fixed cost behind every engine stage of that width. *)
let dispatch_us ~domains ~width =
  let pool = Affinity.spawning (fun () -> Pool.create ~domains ()) in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let xs = Array.init width Fun.id in
      for _ = 1 to 20 do ignore (Pool.parmap pool Fun.id xs) done;
      let k = speed () in
      k
      *. median
           (List.init 30 (fun _ ->
                let dt, _ =
                  time (fun () -> for _ = 1 to 10 do ignore (Pool.parmap pool Fun.id xs) done)
                in
                dt /. 10.0 /. float_of_int width *. 1e6)))

let probe_pool ctx ~width =
  set_layer ctx "pool.dispatch_us_1d" (dispatch_us ~domains:1 ~width);
  set_layer ctx "pool.dispatch_us_nd"
    (Affinity.with_main (fun () -> dispatch_us ~domains:ctx.nproc ~width))

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let outcome_status = function
  | Session.Finished _ -> "finished"
  | Session.Failed { reason; _ } -> "failed: " ^ reason
  | Session.Timed_out _ -> "timed out"
  | Session.Cancelled { reason; _ } -> "cancelled: " ^ reason
