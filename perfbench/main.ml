(* The benchmark's entry point: one workload per invocation.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints a table and a run record, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. Exits 1 when any
   output check failed, 2 on bad arguments. *)

open Perfbench
open Common

let end_to_end =
  [ ("setup_s", "s"); ("compile_s", "s"); ("pass_1d_s", "s"); ("pass_nd_s", "s");
    ("op_p50_s", "s"); ("peak_heap_mb", "MB") ]

let phases =
  List.map
    (fun ph -> "compiler.phase_self_s." ^ ph)
    [ "inline"; "normalize"; "fusion"; "translate"; "caching"; "partition"; "broadcasts";
      "udf-compile" ]

let per_layer =
  [ ("workloads.gen_s", "s"); ("compiler.front_s", "s"); ("compiler.back_s", "s");
    ("compiler.nodes_in", "count"); ("compiler.nodes_out", "count") ]
  @ List.map (fun ph -> (ph, "s")) phases
  @ [ ("session.submit_s", "s"); ("session.overhead_s", "s"); ("plan_cache.hit_ratio", "ratio");
      ("plan_cache.misses", "count"); ("plan_cache.evictions", "count"); ("engine.run_s", "s");
      ("engine.jobs", "count"); ("engine.stages", "count"); ("engine.tasks", "count");
      ("engine.chunks", "count"); ("engine.tasks_per_stage", "ratio");
      ("engine.shuffle_bytes", "B"); ("engine.collect_bytes", "B");
      ("engine.recomputes", "count"); ("engine.job_self_s", "s") ]
  @ List.map (fun g -> ("engine.stage_self_s." ^ g, "s")) Spans.stage_groups
  @ [ ("engine.task_s", "s"); ("pool.tasks_run", "count"); ("pool.steals", "count");
      ("pool.steal_hit_ratio", "ratio"); ("pool.idle_s", "s"); ("pool.dispatch_us_1d", "us");
      ("pool.dispatch_us_nd", "us"); ("udf.invocations", "count"); ("udf.ns_per_call", "ns");
      ("serve.wait_p50_s", "s"); ("serve.service_p50_s", "s"); ("serve.p95_s", "s");
      ("serve.max_queue", "count"); ("serve.shed", "count"); ("serve.sched_s", "s");
      ("serve.cold_compile_share", "ratio"); ("wal.appends", "count"); ("wal.bytes_per_query", "B"); ("wal.fsyncs", "count");
      ("wal.overhead_s", "s"); ("recovery.wall_s", "s"); ("recovery.replayed", "count");
      ("recovery.reexecuted", "count"); ("trace.overhead_ratio", "ratio");
      ("trace.unattributed_s", "s"); ("trace.unattributed_share", "ratio") ]

let workloads = [ "iterative"; "relational"; "serve"; "journal" ]

(* The per-layer metrics a workload always measures. One that is missing
   after the run is a failed check, not a 0. The rest read 0 where a
   workload does not exercise the layer. *)
let required workload =
  let every =
    [ "workloads.gen_s"; "compiler.front_s"; "compiler.back_s"; "compiler.nodes_in";
      "compiler.nodes_out" ]
    @ phases
    @ [ "engine.run_s"; "engine.jobs"; "engine.stages"; "engine.tasks"; "engine.chunks";
        "engine.tasks_per_stage"; "engine.shuffle_bytes"; "engine.collect_bytes";
        "engine.recomputes"; "engine.job_self_s"; "engine.task_s"; "pool.tasks_run";
        "pool.steals"; "pool.steal_hit_ratio"; "pool.idle_s"; "pool.dispatch_us_1d";
        "pool.dispatch_us_nd"; "udf.invocations"; "udf.ns_per_call"; "trace.overhead_ratio";
        "trace.unattributed_s"; "trace.unattributed_share" ]
  in
  let session = [ "session.submit_s"; "session.overhead_s" ] in
  let serve =
    [ "plan_cache.hit_ratio"; "plan_cache.misses"; "plan_cache.evictions"; "serve.max_queue";
      "serve.shed"; "serve.sched_s" ]
  in
  every
  @
  match workload with
  | "serve" ->
      session @ serve
      @ [ "serve.wait_p50_s"; "serve.service_p50_s"; "serve.p95_s"; "serve.cold_compile_share" ]
  | "journal" ->
      serve
      @ [ "wal.appends"; "wal.bytes_per_query"; "wal.fsyncs"; "wal.overhead_s";
          "recovery.wall_s"; "recovery.replayed"; "recovery.reexecuted" ]
  | _ -> session

let usage () =
  prerr_endline
    "usage: main.exe --workload iterative|relational|serve|journal --seed N --seconds S --trace 0|1";
  exit 2

let parse argv =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] argv in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let w = get "workload" in
  if not (List.mem w workloads) then usage ();
  let trace = int "trace" in
  if trace <> 0 && trace <> 1 then usage ();
  let seconds = int "seconds" in
  if seconds < 1 then usage ();
  (w, int "seed", float_of_int seconds, trace = 1)

let json_num v = Printf.sprintf "%.17g" v
let json_str s = "\"" ^ Emma_util.Json.escape s ^ "\""

let () =
  match Array.to_list Sys.argv with
  | [ _; "journal-child"; seed; dir; crash_after ] ->
      Journal_wl.child ~seed:(int_of_string seed) ~dir ~crash_after:(int_of_string crash_after)
  | [ _; "calib-child"; nproc; cpus ] -> calib_child ~nproc:(int_of_string nproc) ~cpus
  | [ _; "journal-worker"; seed; dir ] -> Journal_wl.worker ~seed:(int_of_string seed) ~dir
  | _ :: argv ->
      let workload, seed, seconds, trace = parse argv in
      let work_dir =
        Filename.concat ".bench_work" (Printf.sprintf "%s-%d" workload (Unix.getpid ()))
      in
      if not (Sys.file_exists ".bench_work") then Sys.mkdir ".bench_work" 0o755;
      rm_rf work_dir;
      Sys.mkdir work_dir 0o755;
      let ctx =
        { seed; seconds; nproc = Domain.recommended_domain_count (); work_dir;
          oracle = Oracle.create (); e2e = Hashtbl.create 16; layer = Hashtbl.create 64;
          facts = [] }
      in
      let exe =
        if Filename.is_relative Sys.executable_name then
          Filename.concat (Sys.getcwd ()) Sys.executable_name
        else Sys.executable_name
      in
      (* the batch workloads' nproc-domain sessions are placed; serve's
         lanes cannot be, and journal's workers are processes *)
      if workload = "iterative" || workload = "relational" then
        Affinity.init ~nproc:ctx.nproc ();
      start_calibrator exe ~nproc:ctx.nproc;
      let wall, () =
        Fun.protect ~finally:stop_calibrator (fun () ->
            time (fun () ->
                match workload with
                | "iterative" -> Batch.run Batch.iterative ctx
                | "relational" -> Batch.run Batch.relational ctx
                | "serve" -> Serve_wl.run ctx
                | _ -> Journal_wl.run ctx ~exe))
      in
      rm_rf work_dir;
      List.iter
        (fun name ->
          Oracle.check ctx.oracle name
            (if Hashtbl.mem ctx.layer name then Ok () else Error "layer metric not measured"))
        (required workload);
      let calib tag = match calib_logged tag with [] -> Float.nan | xs -> median xs in
      let record =
        [ ("workload", workload); ("seed", string_of_int seed);
          ("seconds", string_of_float seconds); ("trace", if trace then "1" else "0");
          ("nproc", string_of_int ctx.nproc);
          ("domains", Printf.sprintf "1,%d" ctx.nproc);
          ("ocaml", Sys.ocaml_version);
          ("calibration_1d_ms", Printf.sprintf "%.4f" (1000.0 *. calib "1d"));
          ("calibration_nd_ms", Printf.sprintf "%.4f" (1000.0 *. calib "nd"));
          ("calibration_other_ms", Printf.sprintf "%.4f" (1000.0 *. calib "other"));
          ("calibration_nd_over_1d", Printf.sprintf "%.4f" (calib "nd" /. calib "1d"));
          ("reference_calibration_ms", Printf.sprintf "%.4f" (1000.0 *. reference_s));
          ("core_ratio_median", Printf.sprintf "%.4f" (calib "core_ratio"));
          ("placement", Affinity.describe ());
          ("run_wall_s", Printf.sprintf "%.3f" wall) ]
        @ List.rev ctx.facts
      in
      let chosen, table = if trace then (per_layer, ctx.layer) else (end_to_end, ctx.e2e) in
      let metrics =
        List.map
          (fun (name, unit) ->
            let v =
              match Hashtbl.find_opt table name with
              | Some v -> v
              (* a layer this workload does not exercise; a required one
                 has already failed its check above *)
              | None when trace -> 0.0
              | None ->
                  Oracle.check ctx.oracle name (Error "metric not measured");
                  1.0
            in
            if not (Float.is_finite v) then Oracle.check ctx.oracle name (Error "not finite");
            (name, unit, if Float.is_finite v then v else 0.0))
          chosen
      in
      let o = ctx.oracle in
      Printf.printf "workload %s  seed %d  nproc %d\n" workload seed ctx.nproc;
      List.iter
        (fun (title, names, table) ->
          Printf.printf "%s\n" title;
          List.iter
            (fun (n, u) ->
              match Hashtbl.find_opt table n with
              | Some v -> Printf.printf "  %-34s %14.6g %s\n" n v u
              | None -> Printf.printf "  %-34s %14s\n" n "-")
            names)
        [ ("end-to-end", end_to_end, ctx.e2e); ("per-layer", per_layer, ctx.layer) ];
      Printf.printf "  %-34s %14.6g ratio\n" "error_rate"
        (float_of_int o.failed /. float_of_int (max 1 o.attempted));
      List.iter (fun n -> Printf.printf "  FAIL %s\n" n) (List.rev o.notes);
      Printf.printf "record {%s}\n"
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_str k) (json_str v)) record));
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
        (o.failed = 0) (max 1 o.attempted) o.failed
        (String.concat ", "
           (List.map
              (fun (n, u, v) ->
                Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str n) (json_num v)
                  (json_str u))
              metrics));
      exit (if o.failed = 0 then 0 else 1)
  | [] -> usage ()
