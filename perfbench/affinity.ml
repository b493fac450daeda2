(* Where the threads of the batch workloads' nproc-domain work run. On a
   small virtual machine the guest scheduler can keep two busy threads on
   one CPU for minutes while another CPU idles. An nproc-domain unit then
   runs on one core, and every minor collection waits until the thread of
   an idle pool domain gets a turn on the busy CPU: allocation-heavy work
   on one domain, next to a second domain blocked on a lock, took 1.5-2.6
   times as long as alone, and nproc-domain times swung by a third
   between runs. So the benchmark places these threads itself: the main
   domain (with its backup thread) on one CPU while it runs nproc-domain
   work, and each worker domain of an nproc-domain pool (with its backup
   thread) on one of the others from its start. The calibration child
   places itself the same way while it measures for nproc-domain work.
   1-domain work runs wherever the OS puts it. Nothing is placed before
   [init], nor where the process may use fewer than nproc CPUs; the run
   record says so. *)

external pin_stub : int -> int array -> int = "perfbench_pin"
external allowed_stub : unit -> int array = "perfbench_allowed_cpus"

(* The CPUs the process may use, and those in use: the first nproc of
   them, the main domain's last ([] when nothing is placed). *)
let allowed = ref [||]
let cpus = ref []

(* The main domain's thread and its backup thread. *)
let main_threads = ref []

let refused = ref 0

(* A thread that has ended in the meantime (a joined domain's thread can
   linger in /proc for a moment) is not a refusal. *)
let pin tid cs = if pin_stub tid cs = 2 then incr refused

let threads () =
  match Sys.readdir "/proc/self/task" with
  | ts -> List.sort compare (List.filter_map int_of_string_opt (Array.to_list ts))
  | exception Sys_error _ -> []

(* Chooses the CPUs ([cpus], from a parent's [to_arg], or the first
   nproc the process may use) and records the main domain's threads. The
   main domain's backup thread appears with the first domain spawned, so
   one is spawned and joined here. Call it before anything else starts a
   domain. *)
let init ?cpus:arg ~nproc () =
  allowed := allowed_stub ();
  (match arg with
  | Some "-" -> ()
  | Some s -> cpus := List.map int_of_string (String.split_on_char ',' s)
  | None ->
      if nproc > 1 && Array.length !allowed >= nproc then
        cpus := List.filteri (fun i _ -> i < nproc) (Array.to_list !allowed));
  Domain.join (Domain.spawn ignore);
  main_threads := threads ()

(* The same choice, handed to a child process on its command line. *)
let to_arg () = match !cpus with [] -> "-" | l -> String.concat "," (List.map string_of_int l)

let main_cpu () = match List.rev !cpus with [] -> None | c :: _ -> Some c
let worker_cpus () = match List.rev !cpus with [] -> [] | _ :: ws -> List.rev ws

(* [f ()] with the main domain on its CPU. *)
let with_main f =
  match main_cpu () with
  | None -> f ()
  | Some c ->
      List.iter (fun t -> pin t [| c |]) !main_threads;
      Fun.protect ~finally:(fun () -> List.iter (fun t -> pin t !allowed) !main_threads) f

(* The calling domain, domain [i] (from 1) of a group started with the
   main domain, onto worker CPU [i - 1]. *)
let pin_self i =
  if i >= 1 then Option.iter (fun c -> pin 0 [| c |]) (List.nth_opt (worker_cpus ()) (i - 1))

(* [f ()], then its new threads onto the worker CPUs. A domain's thread
   and its backup thread start one after the other, so the new threads,
   in the order they started, go two by two to the worker CPUs in
   turn. *)
let spawning f =
  let before = threads () in
  let r = f () in
  (match Array.of_list (worker_cpus ()) with
  | [||] -> ()
  | ws ->
      List.iteri
        (fun i t -> pin t [| ws.(i / 2 mod Array.length ws) |])
        (List.filter (fun t -> not (List.mem t before)) (threads ())));
  r

let describe () =
  match main_cpu () with
  | None -> "off"
  | Some m ->
      Printf.sprintf "nproc-domain work: main domain on cpu %d, workers on %s%s" m
        (String.concat "," (List.map string_of_int (worker_cpus ())))
        (if !refused > 0 then Printf.sprintf " (%d placements refused)" !refused else "")
