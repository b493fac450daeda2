(* The output oracle. Every check is one attempted operation; a mismatch
   counts as failed and keeps its message, and the run then reports
   correct = false and exits non-zero. *)

module Value = Emma_value.Value
module Metrics = Emma_engine.Metrics

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** first failures, newest first *)
}

let create () = { attempted = 0; failed = 0; notes = [] }

let check t what = function
  | Ok () -> t.attempted <- t.attempted + 1
  | Error msg ->
      t.attempted <- t.attempted + 1;
      t.failed <- t.failed + 1;
      if List.length t.notes < 20 then t.notes <- (what ^ ": " ^ msg) :: t.notes

(* Checks made elsewhere, by a worker process: [attempted] of them, of
   which [failed] failed. *)
let add t what ~attempted ~failed =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed;
  if failed > 0 && List.length t.notes < 20 then
    t.notes <- Printf.sprintf "%s: %d failed" what failed :: t.notes

(* ---- values within a float tolerance ---- *)

(* |a - b| <= abs + rel * |a| *)
type tol = { abs : float; rel : float }

let exact = { abs = 0.0; rel = 0.0 }

let close tol a b = Float.abs (a -. b) <= tol.abs +. (tol.rel *. Float.abs a)

(* The value with every number blanked: bag elements are ordered by it
   first, so float noise cannot reorder rows before they are paired. *)
let rec erase = function
  | Value.Int _ | Value.Float _ -> Value.Unit
  | Value.Vector _ -> Value.Unit
  | Value.Tuple a -> Value.Tuple (Array.map erase a)
  | Value.Record fs -> Value.Record (Array.map (fun (k, v) -> (k, erase v)) (sorted_fields fs))
  | Value.Option o -> Value.Option (Option.map erase o)
  | Value.Bag vs -> Value.Bag (List.sort Value.compare (List.map erase vs))
  | v -> v

and sorted_fields fs =
  let fs = Array.copy fs in
  Array.sort (fun (a, _) (b, _) -> String.compare a b) fs;
  fs

let canon_bag vs =
  List.map (fun v -> (erase v, v)) vs
  |> List.stable_sort (fun (ea, a) (eb, b) ->
         match Value.compare ea eb with 0 -> Value.compare a b | c -> c)
  |> List.map snd

let rec approx tol path (a : Value.t) (b : Value.t) =
  let fail fmt = Printf.ksprintf (fun m -> Error (path ^ ": " ^ m)) fmt in
  let num = function Value.Int i -> Some (float_of_int i) | Value.Float f -> Some f | _ -> None in
  match (a, b) with
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
      let x = Option.get (num a) and y = Option.get (num b) in
      if close tol x y then Ok () else fail "%.17g vs %.17g" x y
  | Value.Vector x, Value.Vector y ->
      if Array.length x <> Array.length y then fail "vector lengths differ"
      else
        let d = ref 0.0 in
        Array.iteri (fun i xi -> d := !d +. ((xi -. y.(i)) ** 2.0)) x;
        let norm = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 x in
        if Float.sqrt !d <= tol.abs +. (tol.rel *. norm) then Ok ()
        else fail "vectors %.3g apart" (Float.sqrt !d)
  | Value.Tuple x, Value.Tuple y ->
      if Array.length x <> Array.length y then fail "tuple arity differs"
      else all tol path (Array.to_list x) (Array.to_list y)
  | Value.Record x, Value.Record y ->
      let x = sorted_fields x and y = sorted_fields y in
      if Array.map fst x <> Array.map fst y then fail "record fields differ"
      else
        Array.to_list x
        |> List.mapi (fun i (k, v) -> approx tol (path ^ "." ^ k) v (snd y.(i)))
        |> List.fold_left (fun acc r -> match acc with Error _ -> acc | Ok () -> r) (Ok ())
  | Value.Option (Some x), Value.Option (Some y) -> approx tol path x y
  | Value.Bag x, Value.Bag y ->
      if List.length x <> List.length y then
        fail "bag sizes differ (%d vs %d)" (List.length x) (List.length y)
      else all tol path (canon_bag x) (canon_bag y)
  | _ -> if Value.compare a b = 0 then Ok () else fail "values differ"

and all tol path xs ys =
  let rec go i = function
    | x :: xs, y :: ys -> (
        match approx tol (Printf.sprintf "%s[%d]" path i) x y with
        | Ok () -> go (i + 1) (xs, ys)
        | e -> e)
    | _ -> Ok ()
  in
  go 0 (xs, ys)

let value ?(tol = exact) expected actual = approx tol "value" expected actual

(* ---- cost-model fields, bit for bit ---- *)

(* Every field the cost model charges. Host-execution fields (wall time,
   pool tasks, chunks, steals), plan-cache counters and journal counters
   are left out: they describe the run, not the model. *)
let cost_fields (m : Metrics.t) =
  [ ("sim_time_s", m.sim_time_s); ("shuffle_bytes", m.shuffle_bytes);
    ("broadcast_bytes", m.broadcast_bytes); ("dfs_read_bytes", m.dfs_read_bytes);
    ("dfs_write_bytes", m.dfs_write_bytes); ("collect_bytes", m.collect_bytes);
    ("parallelize_bytes", m.parallelize_bytes); ("spilled_bytes", m.spilled_bytes);
    ("jobs", float_of_int m.jobs); ("stages", float_of_int m.stages);
    ("recomputes", float_of_int m.recomputes); ("cache_hits", float_of_int m.cache_hits);
    ("cache_losses", float_of_int m.cache_losses);
    ("udf_invocations", float_of_int m.udf_invocations);
    ("retries", float_of_int m.retries); ("fetch_failures", float_of_int m.fetch_failures);
    ("executor_losses", float_of_int m.executor_losses);
    ("blacklisted_nodes", float_of_int m.blacklisted_nodes);
    ("recomputed_partitions", float_of_int m.recomputed_partitions);
    ("speculative_launches", float_of_int m.speculative_launches);
    ("speculative_wins", float_of_int m.speculative_wins);
    ("checkpoints", float_of_int m.checkpoints); ("checkpoint_bytes", m.checkpoint_bytes);
    ("loop_restores", float_of_int m.loop_restores);
    ("checkpoint_corruptions", float_of_int m.checkpoint_corruptions);
    ("mem_peak_bytes", m.mem_peak_bytes); ("mem_spills", float_of_int m.mem_spills);
    ("mem_spill_bytes", m.mem_spill_bytes); ("oom_kills", float_of_int m.oom_kills);
    ("cache_evictions", float_of_int m.cache_evictions); ("evicted_bytes", m.evicted_bytes);
    ("jobs_queued", float_of_int m.jobs_queued); ("queue_wait_s", m.queue_wait_s);
    ("cancellations", float_of_int m.cancellations) ]

let cost expected actual =
  let rec go = function
    | [], [] -> Ok ()
    | (k, x) :: xs, (_, y) :: ys ->
        if Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) then go (xs, ys)
        else Error (Printf.sprintf "cost field %s: %.17g vs %.17g" k x y)
    | _ -> Error "cost field lists differ"
  in
  go (cost_fields expected, cost_fields actual)

let fingerprint expected actual =
  if String.equal expected actual then Ok ()
  else
    let n = min (String.length expected) (String.length actual) in
    let i = ref 0 in
    while !i < n && expected.[!i] = actual.[!i] do incr i done;
    Error (Printf.sprintf "fingerprints differ from byte %d" !i)
