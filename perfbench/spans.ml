(* Span trees and self time, rebuilt from the in-memory events of an
   Emma_util.Trace.

   A span's parent is the innermost span open on the same domain when it
   began. A span with no such parent (a pool worker's task, a serve lane's
   job) is attached to the deepest span on another domain that contains
   its interval and sits higher in the layer order (bench > compile, job >
   stage > task), so a worker task lands under the barrier that waited for
   it, never under a sibling task the caller ran at the same time.

   Self time is a span's duration minus the part of its interval covered
   by the union of its children's intervals. Children on different
   domains may overlap; the union counts the covered time once. *)

module Trace = Emma_util.Trace

type span = {
  id : int;
  name : string;
  cat : string;
  tid : int;
  t0 : float;  (** seconds *)
  t1 : float;
  parent : int;  (** -1 for a root *)
  self : float;
}

(* Layer order: a cross-domain parent must have a strictly lower rank. *)
let rank = function
  | "bench" -> 0
  | "compile" | "job" | "session" -> 1
  | "task" -> 3
  | _ -> 2

type open_span = {
  o_id : int;
  o_name : string;
  o_cat : string;
  o_tid : int;
  o_t0 : float;
  o_parent : int;
}

let build (events : Trace.event list) : span array =
  let stacks : (int, open_span list) Hashtbl.t = Hashtbl.create 8 in
  let closed = ref [] in
  let next = ref 0 in
  let last_ts = ref 0.0 in
  let close o t1 =
    closed :=
      (o.o_id, o.o_name, o.o_cat, o.o_tid, o.o_t0, t1, o.o_parent) :: !closed
  in
  List.iter
    (fun (e : Trace.event) ->
      let ts = e.ev_ts_us /. 1e6 in
      last_ts := ts;
      let stack =
        Option.value ~default:[] (Hashtbl.find_opt stacks e.ev_tid)
      in
      match e.ev_ph with
      | Trace.B ->
          let parent = match stack with o :: _ -> o.o_id | [] -> -1 in
          let o =
            { o_id = !next; o_name = e.ev_name; o_cat = e.ev_cat;
              o_tid = e.ev_tid; o_t0 = ts; o_parent = parent }
          in
          incr next;
          Hashtbl.replace stacks e.ev_tid (o :: stack)
      | Trace.E -> (
          match stack with
          | o :: rest ->
              close o ts;
              Hashtbl.replace stacks e.ev_tid rest
          | [] -> ())
      | Trace.I | Trace.C -> ())
    events;
  (* a span still open when the trace ends closes at the last timestamp *)
  Hashtbl.iter (fun _ stack -> List.iter (fun o -> close o !last_ts) stack) stacks;
  let n = !next in
  let name = Array.make n "" and cat = Array.make n "" and tid = Array.make n 0 in
  let t0 = Array.make n 0.0 and t1 = Array.make n 0.0 in
  let parent = Array.make n (-1) in
  List.iter
    (fun (i, nm, c, td, a, b, p) ->
      name.(i) <- nm; cat.(i) <- c; tid.(i) <- td; t0.(i) <- a; t1.(i) <- b;
      parent.(i) <- p)
    !closed;
  (* same-domain children, in start order (ids are allocated in begin order) *)
  let kids = Array.make n [] in
  for i = n - 1 downto 0 do
    if parent.(i) >= 0 then kids.(parent.(i)) <- i :: kids.(parent.(i))
  done;
  let kids = Array.map Array.of_list kids in
  let roots_by_tid = Hashtbl.create 8 in
  for i = n - 1 downto 0 do
    if parent.(i) < 0 then
      Hashtbl.replace roots_by_tid tid.(i)
        (i :: Option.value ~default:[] (Hashtbl.find_opt roots_by_tid tid.(i)))
  done;
  let roots_by_tid =
    Hashtbl.fold (fun k v acc -> (k, Array.of_list v) :: acc) roots_by_tid []
  in
  let contains p i = t0.(p) <= t0.(i) && t1.(i) <= t1.(p) in
  (* last span in [arr] (sorted by start) starting no later than [i] *)
  let last_before arr i =
    let lo = ref 0 and hi = ref (Array.length arr - 1) and found = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if t0.(arr.(mid)) <= t0.(i) then begin
        found := arr.(mid);
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    !found
  in
  (* deepest span of one domain's tree containing [i] with rank below r *)
  let rec descend arr i r best =
    let c = last_before arr i in
    if c >= 0 && contains c i then
      let best = if rank cat.(c) < r then c else best in
      descend kids.(c) i r best
    else best
  in
  let xparent = Array.make n (-1) in
  for i = 0 to n - 1 do
    if parent.(i) < 0 then begin
      let r = rank cat.(i) in
      let best = ref (-1) in
      List.iter
        (fun (td, roots) ->
          if td <> tid.(i) then begin
            let c = descend roots i r (-1) in
            if c >= 0
               && (!best < 0 || t1.(c) -. t0.(c) < t1.(!best) -. t0.(!best))
            then best := c
          end)
        roots_by_tid;
      xparent.(i) <- !best
    end
  done;
  let all_kids = Array.map Array.to_list kids in
  for i = n - 1 downto 0 do
    let p = xparent.(i) in
    if p >= 0 then all_kids.(p) <- i :: all_kids.(p)
  done;
  let self i =
    let ivs =
      List.map (fun c -> (Float.max t0.(c) t0.(i), Float.min t1.(c) t1.(i))) all_kids.(i)
      |> List.sort compare
    in
    let covered, _ =
      List.fold_left
        (fun (acc, reach) (a, b) ->
          let a = Float.max a reach in
          if b > a then (acc +. (b -. a), b) else (acc, reach))
        (0.0, Float.neg_infinity) ivs
    in
    t1.(i) -. t0.(i) -. covered
  in
  Array.init n (fun i ->
      { id = i; name = name.(i); cat = cat.(i); tid = tid.(i); t0 = t0.(i);
        t1 = t1.(i);
        parent = (if parent.(i) >= 0 then parent.(i) else xparent.(i));
        self = Float.max 0.0 (self i) })

(* Operator kinds grouped by what dominates them. *)
let stage_group = function
  | "map" | "flatMap" | "filter" -> "map"
  | "join" | "semijoin" | "antijoin" | "cross" -> "join"
  | "groupBy" | "aggBy" | "fold" | "distinct" | "minus" -> "agg"
  | "statefulCreate" | "statefulRead" | "statefulUpdate" | "statefulUpdateMsgs" ->
      "stateful"
  | "barrier" -> "barrier"
  | _ -> "source"

let stage_groups = [ "map"; "join"; "agg"; "stateful"; "barrier"; "source" ]

(* The per-layer key a span's self time counts toward. The benchmark's
   own root span ("pass") keeps the time no layer span covers. *)
let layer_of s =
  match s.cat with
  | "compile" -> "compiler.phase_self_s." ^ s.name
  | "job" -> "engine.job_self_s"
  | "stage" -> "engine.stage_self_s." ^ stage_group s.name
  | "task" -> "engine.task_s"
  | "bench" when s.name = "pass" -> "trace.unattributed_s"
  | "bench" -> "bench." ^ s.name
  | c -> c ^ ".self_s"

let self_by_layer spans =
  let h = Hashtbl.create 32 in
  Array.iter
    (fun s ->
      let k = layer_of s in
      Hashtbl.replace h k (s.self +. Option.value ~default:0.0 (Hashtbl.find_opt h k)))
    spans;
  h

let sum_durations ~cat spans =
  Array.fold_left
    (fun acc s -> if s.cat = cat then acc +. (s.t1 -. s.t0) else acc)
    0.0 spans
