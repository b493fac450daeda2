(* [journal]: sim-mode Serve.run_sim with a write-ahead journal (batch:8
   fsyncs, a snapshot every 8 outcomes) over tiny tables, then a crash
   scripted with Wal.set_crash at mid-trace in a child process and
   Serve.recover_sim in this one. Each run of the trace starts from a
   fresh 1-domain session and an empty journal directory.

   The 1-domain configuration is one run in this process. The
   nproc-domain one is nproc runs at once, each in a worker process of its
   own: nproc journaled schedulers sharing the host. The sim scheduler
   runs queries one by one and their engine work is tiny, so a wider pool
   under one scheduler would mostly time the pool's barriers, which on a
   host that preempts a core now and then swing by tens of percent from
   run to run. Workers are processes, not domains, because two sessions
   compiling at once in one process do not agree on plan keys (the
   compiler's fresh-name counter is global). *)

open Common
module Serve = Emma_serve.Serve
module Arrival = Emma_serve.Arrival
module Wal = Emma_util.Wal

let dop = Serve_wl.dop
let scale_factor = 0.0005
let n_events = 40
let sync = Wal.Sync_batch 8
let snapshot_every = 8
let crash_cycles = 3

let tenants = [ Serve.tenant ~weight:2 "acme"; Serve.tenant "beta" ]

let workload ~seed =
  let base, _, _ = Serve_wl.queries ~seed ~sf:scale_factor in
  (base, Serve_wl.trace ~seed ~n:n_events ~n_variants:0 ~tenants:[ "acme"; "beta" ])

let durability dir =
  { Serve.du_wal = Wal.create ~sync ~dir (); du_snapshot_every = Some snapshot_every }

let sim_session ~domains = session ~plan_cache:(Some 64) ~dop ~domains ()

(* The child half of a crash cycle: the journaled run, until the scripted
   crash kills this process after [crash_after] appends. *)
let child ~seed ~dir ~crash_after =
  let base, events = workload ~seed in
  let du = durability dir in
  Wal.set_crash du.du_wal (Wal.Crash_after crash_after);
  ignore (Serve.run_sim ~durability:du (sim_session ~domains:1) tenants base events);
  (* reaching this line means the crash never fired *)
  exit 3

(* The latency of each query of a run: run_sim executes queries back to
   back inside one call, so it is the engine's own wall time. *)
let latencies (c : Serve.counters) =
  List.map2
    (fun r (run : run) -> (Serve_wl.kind r, run.engine_s))
    c.sv_results (Serve_wl.runs_of c ~call:false)

(* A worker of the nproc-domain configuration. It checks its own runs
   against standalone ones, prints "ready", and for each line "go N" on
   its standard input runs the journaled trace once on a fresh session
   with the journal in [dir]-N, then prints one line: the run's wall time,
   the digest of its replay fingerprint, the checks attempted and failed,
   and each query's kind and latency. It exits at the end of its input. *)
let worker ~seed ~dir =
  let base, events = workload ~seed in
  let ctx =
    { seed; seconds = 0.0; nproc = 1; work_dir = dir; oracle = Oracle.create ();
      e2e = Hashtbl.create 1; layer = Hashtbl.create 1; facts = [] }
  in
  let expected = Serve_wl.standalone ctx base in
  print_endline "ready";
  try
    while true do
      let n = Scanf.sscanf (input_line stdin) "go %d" Fun.id in
      let s = sim_session ~domains:1 in
      let du = durability (Printf.sprintf "%s-%d" dir n) in
      let wall, c = time (fun () -> Serve.run_sim ~durability:du s tenants base events) in
      Wal.close du.du_wal;
      Session.close s;
      let o = ctx.oracle in
      let attempted = o.attempted and failed = o.failed in
      Serve_wl.check ctx expected ~n:n_events c;
      Printf.printf "%.9f %s %d %d %s\n%!" wall
        (Digest.to_hex (Digest.string (Serve.fingerprint c)))
        (o.attempted - attempted) (o.failed - failed)
        (String.concat " "
           (List.map (fun (k, l) -> Printf.sprintf "%s=%.9f" k l) (latencies c)))
    done
  with End_of_file -> exit 0

let run ctx ~exe =
  fact ctx "dop" (string_of_int dop);
  fact ctx "scale_factor" (string_of_float scale_factor);
  fact ctx "events" (string_of_int n_events);
  fact ctx "wal_policy"
    (Printf.sprintf "sync %s, snapshot every %d" (Wal.sync_policy_to_string sync) snapshot_every);
  fact ctx "plan_cache" "lru:64, fresh per pass";
  let dirs = ref 0 in
  let fresh_dir () =
    incr dirs;
    let d = Filename.concat ctx.work_dir (Printf.sprintf "wal-%d" !dirs) in
    rm_rf d;
    d
  in
  let base, events, _ =
    record_setup ctx
      ~release:(fun (_, _, d) -> rm_rf d)
      (fun () ->
        let gen, (base, events) = time (fun () -> workload ~seed:ctx.seed) in
        let d = fresh_dir () in
        Sys.mkdir d 0o755;
        (gen, (base, events, d)))
  in
  record_compile ctx (List.map (fun (_, (p, _)) -> p) base);
  let expected = Serve_wl.standalone ctx base in
  (* every run of the trace, journaled or not, recovered or not, must
     replay to the first run's fingerprint *)
  let reference = ref None in
  let check what (c : Serve.counters) =
    let fp = Serve.fingerprint c in
    (match !reference with
    | None -> reference := Some fp
    | Some r -> Oracle.check ctx.oracle (what ^ " fingerprint") (Oracle.fingerprint r fp));
    Serve_wl.check ctx expected ~n:n_events c
  in
  let one_pass ?tr ?(journal = true) () =
    let s = sim_session ~domains:1 in
    let du = if journal then Some (durability (fresh_dir ())) else None in
    let go () = Serve.run_sim ?durability:du s tenants base events in
    let wall, c =
      time (fun () ->
          match tr with
          | None -> go ()
          | Some tr -> span tr "pass" (fun () -> span tr "serve.run_sim" go))
    in
    let wal =
      match du with
      | Some du ->
          let st = Wal.stats du.du_wal in
          Wal.close du.du_wal;
          st
      | None -> { Wal.wa_appends = 0; wa_bytes = 0; wa_fsyncs = 0 }
    in
    Session.close s;
    check "run" c;
    pass ~wall ~lat:(latencies c) ~runs:(Serve_wl.runs_of c ~call:false)
      (Some (Serve_wl.summarize c, wal))
  in
  (* the nproc-domain configuration: one run in each of nproc workers *)
  let workers = ref [] in
  let stop_workers () =
    List.iter (fun ch -> ignore (Unix.close_process ch)) !workers;
    workers := []
  in
  let reference_digest () = Digest.to_hex (Digest.string (Option.get !reference)) in
  let go = ref 0 in
  let many_pass () =
    if !workers = [] then begin
      workers :=
        List.init ctx.nproc (fun i ->
            Unix.open_process_args exe
              [| exe; "journal-worker"; string_of_int ctx.seed;
                 Filename.concat ctx.work_dir (Printf.sprintf "worker-%d" i) |]);
      List.iter
        (fun (ic, _) -> if input_line ic <> "ready" then failwith "journal worker did not start")
        !workers
    end;
    incr go;
    let wall, replies =
      time (fun () ->
          List.iter (fun (_, oc) -> Printf.fprintf oc "go %d\n%!" !go) !workers;
          List.map (fun (ic, _) -> input_line ic) !workers)
    in
    let lat =
      List.concat_map
        (fun reply ->
          match String.split_on_char ' ' reply with
          | _wall :: digest :: attempted :: failed :: lat ->
              let attempted = int_of_string attempted and failed = int_of_string failed in
              Oracle.check ctx.oracle "worker fingerprint"
                (if digest = reference_digest () then Ok ()
                 else Error "differs from the in-process run");
              Oracle.add ctx.oracle "worker checks against standalone runs" ~attempted ~failed;
              List.map
                (fun kv ->
                  match String.split_on_char '=' kv with
                  | [ k; l ] -> (k, float_of_string l)
                  | _ -> failwith "journal worker: malformed latency")
                lat
          | _ -> failwith "journal worker: malformed reply")
        replies
    in
    pass ~wall ~lat ~runs:[] None
  in
  let p1, pn =
    Fun.protect ~finally:stop_workers (fun () ->
        timed_passes ~min_passes:5 ctx ~one:one_pass ~many:many_pass)
  in
  (* the workers report no engine counters: take them from one run *)
  record_passes ~counters:p1 ctx p1 pn;
  (* one run: the pass is that scheduler's own sequence *)
  set_layer ctx "serve.sched_s" (median (List.map Serve_wl.sched_s p1));
  let first = List.hd p1 in
  let summary, wal = Option.get first.extra in
  Serve_wl.record_summary ctx summary;
  set_layer ctx "wal.appends" (float_of_int wal.wa_appends);
  set_layer ctx "wal.bytes_per_query"
    (float_of_int wal.wa_bytes /. float_of_int (max 1 (List.length first.runs)));
  set_layer ctx "wal.fsyncs" (float_of_int wal.wa_fsyncs);
  (* journaled minus plain run of the same trace, in adjacent pairs *)
  set_layer ctx "wal.overhead_s"
    (median
       (List.init 3 (fun _ ->
            let k = speed () in
            let plain = (one_pass ~journal:false ()).wall in
            k *. ((one_pass ()).wall -. plain))));
  (* crash cycles: a child dies mid-trace, this process recovers *)
  let crash_after = max 1 (wal.wa_appends / 2) in
  fact ctx "crash_after_appends" (string_of_int crash_after);
  let recoveries =
    List.init crash_cycles (fun _ ->
        let dir = fresh_dir () in
        let pid =
          Unix.create_process exe
            [| exe; "journal-child"; string_of_int ctx.seed; dir; string_of_int crash_after |]
            Unix.stdin Unix.stderr Unix.stderr
        in
        let _, status = Unix.waitpid [] pid in
        Oracle.check ctx.oracle "scripted crash"
          (match status with
          | Unix.WSIGNALED sg when sg = Sys.sigkill -> Ok ()
          | Unix.WEXITED n -> Error (Printf.sprintf "child exited %d" n)
          | _ -> Error "child stopped without the scripted crash");
        let s = sim_session ~domains:ctx.nproc in
        let du = durability dir in
        let k = speed () in
        let wall, c = time (fun () -> Serve.recover_sim ~durability:du s tenants base events) in
        Wal.close du.du_wal;
        Session.close s;
        check "recovered" c;
        let replayed =
          List.length
            (List.filter
               (fun r -> (Session.metrics_of_outcome r.Serve.qr_outcome).recovery_replayed = 1)
               c.sv_results)
        in
        (k *. wall, replayed, List.length c.sv_results - replayed))
  in
  set_layer ctx "recovery.wall_s" (median (List.map (fun (w, _, _) -> w) recoveries));
  let _, replayed, reexecuted = List.hd recoveries in
  set_layer ctx "recovery.replayed" (float_of_int replayed);
  set_layer ctx "recovery.reexecuted" (float_of_int reexecuted);
  (* the traced pass runs in this process, where the tracer is *)
  ignore (record_traced ctx ~pass:(fun ?tr () -> one_pass ?tr ()));
  probe_pool ctx ~width:dop
