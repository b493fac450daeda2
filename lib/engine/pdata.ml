module Value = Emma_value.Value
module Plan = Emma_dataflow.Plan
module Pool = Emma_util.Pool

type size = { records : int; bytes : int; largest : int }

let zero = { records = 0; bytes = 0; largest = 0 }

let add a b =
  { records = a.records + b.records;
    bytes = a.bytes + b.bytes;
    largest = Int.max a.largest b.largest }

let measure vs =
  let rec go records bytes largest = function
    | [] -> { records; bytes; largest }
    | v :: rest ->
        let b = Value.byte_size v in
        go (records + 1) (bytes + b) (Int.max largest b) rest
  in
  go 0 0 0 vs

(* Per-partition bytes (the per-slot memory needs) and bag totals; the
   per-partition record counts and maxima are summed away at once, so a bag
   at dop 320 carries about 2.6 KB of statistics. *)
type stats = { part_bytes : int array; total : size }

type t = {
  parts : Value.t list array;
  part_key : Plan.udf option;
  rmult : float;
  bmult : float;
  mutable stats : stats option;
}

type counters = { built : int; measured : int }

let built = Atomic.make 0
let measured = Atomic.make 0
let counters () = { built = Atomic.get built; measured = Atomic.get measured }

let stats_of_sizes sizes =
  Atomic.incr measured;
  { part_bytes = Array.map (fun s -> s.bytes) sizes; total = Array.fold_left add zero sizes }

let make ?part_key ?(rmult = 1.0) ?(bmult = 1.0) ?sizes parts =
  Atomic.incr built;
  let stats =
    match sizes with
    | None -> None
    | Some s when Array.length s = Array.length parts -> Some (stats_of_sizes s)
    | Some _ -> invalid_arg "Pdata.make: one size per partition"
  in
  { parts; part_key; rmult; bmult; stats }

let nparts t = Array.length t.parts

(* Lazy fill, on the coordinator: partition tasks never ask a bag for its
   sizes (and two domains racing here would only store equal values). *)
let stats t =
  match t.stats with
  | Some s -> s
  | None ->
      let s = stats_of_sizes (Array.map measure t.parts) in
      t.stats <- Some s;
      s

let of_list ?pool ?rmult ?bmult ~nparts vs =
  let n = max 1 nparts in
  match pool with
  | Some p when Pool.size p > 1 && n > 1 && vs <> [] ->
      (* same round-robin layout as the sequential path, but each partition
         extracts its residue class by index stride on the pool, and
         measures it there *)
      let arr = Array.of_list vs in
      let len = Array.length arr in
      let slice r =
        let last = if len > r then r + ((len - 1 - r) / n * n) else -1 in
        let rec go i acc = if i < r then acc else go (i - n) (arr.(i) :: acc) in
        let part = if last < 0 then [] else go last [] in
        (part, measure part)
      in
      let ps = Pool.parmap p slice (Array.init n Fun.id) in
      make ?rmult ?bmult ~sizes:(Array.map snd ps) (Array.map fst ps)
  | _ ->
      let parts = Array.make n [] in
      List.iteri (fun i v -> parts.(i mod n) <- v :: parts.(i mod n)) vs;
      make ?rmult ?bmult (Array.map List.rev parts)

(* Table layouts, keyed on the physical identity of the row list. The
   ephemeron does not keep its key alive, so an entry dies with its table;
   each entry holds one measured bag per partition count. *)
module Tables = Ephemeron.K1.Make (struct
  type t = Value.t list

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let tables : (int * t) list Tables.t = Tables.create 16
let tables_lock = Mutex.create ()

let cached_layout rows n =
  Mutex.protect tables_lock (fun () ->
      Option.bind (Tables.find_opt tables rows) (List.assoc_opt n))

let of_table ?pool ~nparts rows =
  let n = max 1 nparts in
  match rows with
  | [] ->
      (* not a heap block, so as an ephemeron key it would never die; and
         an empty layout costs nothing to build *)
      (of_list ~nparts:n rows, false)
  | _ -> (
      match cached_layout rows n with
      | Some pd -> (pd, true)
      | None ->
          (* built outside the lock, since the build may run on the pool;
             measured before publishing, so no domain ever fills [stats] of
             a shared bag *)
          let pd = of_list ?pool ~nparts:n rows in
          ignore (stats pd);
          Mutex.protect tables_lock (fun () ->
              let layouts = Option.value ~default:[] (Tables.find_opt tables rows) in
              match List.assoc_opt n layouts with
              | Some winner -> (winner, false)
              | None ->
                  Tables.replace tables rows ((n, pd) :: layouts);
                  (pd, false)))

let live_tables () =
  Mutex.protect tables_lock (fun () -> (Tables.stats_alive tables).Hashtbl.num_bindings)

(* The new bag shares the partitions, so it shares their statistics:
   measure once here rather than once per copy. *)
let with_mult ~rmult ~bmult t = { t with rmult; bmult; stats = Some (stats t) }

let to_list t = List.concat (Array.to_list t.parts)

(* Byte sizes are exact integers below 2^53, so their floats equal left
   folds of the per-record floats bit for bit. *)
let records t = (stats t).total.records
let bytes t = float_of_int (stats t).total.bytes
let largest_record t = float_of_int (stats t).total.largest
let part_bytes t = Array.map float_of_int (stats t).part_bytes
let logical_records t = float_of_int (records t) *. t.rmult
let logical_bytes t = bytes t *. t.bmult

let repartition ~nparts ~key keyfn t =
  let parts = Array.make (max 1 nparts) [] in
  Array.iter
    (List.iter (fun v ->
         let i = abs (Value.hash (keyfn v)) mod Array.length parts in
         parts.(i) <- v :: parts.(i)))
    t.parts;
  make ~part_key:key ~rmult:t.rmult ~bmult:t.bmult (Array.map List.rev parts)

let co_partitioned t key =
  match t.part_key with
  | Some k -> Plan.udf_alpha_equal k key
  | None -> false

let map_parts f t = make ~rmult:t.rmult ~bmult:t.bmult (Array.map f t.parts)

let map_parts_preserving f t =
  make ?part_key:t.part_key ~rmult:t.rmult ~bmult:t.bmult (Array.map f t.parts)

let union a b =
  let n = max (nparts a) (nparts b) in
  let part x i = if i < nparts x then x.parts.(i) else [] in
  let parts = Array.init n (fun i -> part a i @ part b i) in
  (* zipped partitions add up exactly, so measured sides need no new walk *)
  let u = make ~rmult:(Float.max a.rmult b.rmult) ~bmult:(Float.max a.bmult b.bmult) parts in
  (match (a.stats, b.stats) with
  | Some sa, Some sb ->
      let part_bytes s i = if i < Array.length s.part_bytes then s.part_bytes.(i) else 0 in
      Atomic.incr measured;
      u.stats <-
        Some
          { part_bytes = Array.init n (fun i -> part_bytes sa i + part_bytes sb i);
            total = add sa.total sb.total }
  | _ -> ());
  u
