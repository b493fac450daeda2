module Value = Emma_value.Value
module Expr = Emma_lang.Expr
module P = Emma_dataflow.Plan
module Cprog = Emma_dataflow.Cprog
module Pdata = Emma_engine.Pdata

(* ---- Plan helpers ---------------------------------------------------- *)

let key_udf field = P.udf_of_expr (Expr.Lam ("x", Expr.Field (Expr.Var "x", field)))

let test_udf_alpha_equal () =
  let a = P.udf_of_expr (Expr.Lam ("x", Expr.Field (Expr.Var "x", "ip"))) in
  let b = P.udf_of_expr (Expr.Lam ("y", Expr.Field (Expr.Var "y", "ip"))) in
  let c = P.udf_of_expr (Expr.Lam ("x", Expr.Field (Expr.Var "x", "id"))) in
  Alcotest.(check bool) "alpha-equal keys" true (P.udf_alpha_equal a b);
  Alcotest.(check bool) "different fields differ" false (P.udf_alpha_equal a c)

let test_udf_eta_expansion () =
  (* a non-lambda UDF argument is eta-expanded *)
  let u = P.udf_of_expr (Expr.Var "f") in
  match u.P.body with
  | Expr.App (Expr.Var "f", Expr.Var p) when p = u.P.param -> ()
  | _ -> Alcotest.fail "expected eta expansion"

let test_result_kind () =
  let fold_fns =
    Expr.
      { f_empty = Const (Value.Int 0);
        f_single = Lam ("x", Var "x");
        f_union = Lam ("a", Lam ("b", Prim (Emma_lang.Prim.Add, [ Var "a"; Var "b" ])));
        f_tag = Tag_sum }
  in
  Alcotest.(check bool) "read is a bag" true (P.result_kind (P.Read "t") = P.Rbag);
  Alcotest.(check bool) "fold is scalar" true
    (P.result_kind (P.Fold (fold_fns, P.Read "t")) = P.Rscalar);
  Alcotest.(check bool) "cache preserves kind" true
    (P.result_kind (P.Cache (P.Read "t")) = P.Rbag);
  Alcotest.(check bool) "stateful create" true
    (P.result_kind (P.Stateful_create { key = key_udf "id"; init = P.Read "t" }) = P.Rstateful)

let test_scanned_and_counts () =
  let p =
    P.Union (P.Scan "a", P.Filter (key_udf "f", P.Scan "b"))
  in
  Alcotest.(check (list string)) "scans collected" [ "a"; "b" ]
    (List.sort compare (P.scanned_vars p));
  Alcotest.(check int) "node count" 4 (P.node_count p)

let test_plan_pp_total () =
  (* the printer must handle every constructor without raising *)
  let fns =
    Expr.
      { f_empty = Const (Value.Int 0);
        f_single = Lam ("x", Var "x");
        f_union = Lam ("a", Lam ("b", Var "a"));
        f_tag = Tag_generic }
  in
  let plans =
    [ P.Read "t"; P.Scan "x"; P.Local (Expr.BagOf []);
      P.Map (key_udf "f", P.Read "t");
      P.Flat_map (key_udf "f", P.Read "t");
      P.Filter (key_udf "f", P.Read "t");
      P.Eq_join { lkey = key_udf "k"; rkey = key_udf "k"; left = P.Read "a"; right = P.Read "b" };
      P.Semi_join { lkey = key_udf "k"; rkey = key_udf "k"; left = P.Read "a"; right = P.Read "b" };
      P.Cross (P.Read "a", P.Read "b");
      P.Group_by (key_udf "k", P.Read "t");
      P.Agg_by { key = key_udf "k"; fold = fns; input = P.Read "t" };
      P.Fold (fns, P.Read "t");
      P.Union (P.Read "a", P.Read "b");
      P.Minus (P.Read "a", P.Read "b");
      P.Distinct (P.Read "t");
      P.Cache (P.Read "t");
      P.Partition_by (key_udf "k", P.Read "t");
      P.Stateful_create { key = key_udf "id"; init = P.Read "t" };
      P.Stateful_read "s";
      P.Stateful_update { state = "s"; udf = key_udf "f" };
      P.Stateful_update_msgs
        { state = "s";
          msg_key = key_udf "id";
          messages = P.Read "m";
          udf = P.udf2_of_expr (Expr.Lam ("a", Expr.Lam ("b", Expr.Var "a"))) } ]
  in
  List.iter (fun p -> Alcotest.(check bool) "prints" true (String.length (P.to_string p) > 0)) plans

let test_cprog_pp_and_helpers () =
  let rhs = Cprog.rhs_of_plan (P.Read "t") in
  Alcotest.(check bool) "plan_of_rhs round trip" true
    (match Cprog.plan_of_rhs rhs with Some (P.Read "t") -> true | _ -> false);
  let prog =
    Cprog.
      { cbody =
          [ CLet ("x", rhs);
            CWhile (rhs_of_expr (Expr.Const (Value.Bool false)), [ CAssign ("x", rhs) ]) ];
        cret = Cprog.rhs_of_expr (Expr.Var "x") }
  in
  Alcotest.(check bool) "cprog prints" true (String.length (Cprog.to_string prog) > 0);
  let depths = ref [] in
  Cprog.iter_stmts_with_depth (fun d _ -> depths := d :: !depths) prog;
  Alcotest.(check (list int)) "loop body depth" [ 0; 0; 1 ] (List.sort compare !depths)

(* ---- Pdata ----------------------------------------------------------- *)

let test_pdata_roundtrip () =
  let vs = List.init 10 Value.int in
  let pd = Pdata.of_list ~nparts:4 vs in
  Alcotest.(check int) "4 partitions" 4 (Pdata.nparts pd);
  Alcotest.(check int) "records" 10 (Pdata.records pd);
  Helpers.check_bag "round trip" vs (Pdata.to_list pd)

let test_pdata_repartition () =
  let vs = List.init 20 Value.int in
  let key = P.udf_of_expr (Expr.Lam ("x", Expr.Var "x")) in
  let pd = Pdata.repartition ~nparts:4 ~key Fun.id (Pdata.of_list ~nparts:4 vs) in
  Alcotest.(check bool) "co-partitioned after repartition" true (Pdata.co_partitioned pd key);
  (* element placement matches the hash *)
  Array.iteri
    (fun part vs ->
      List.iter
        (fun v -> Alcotest.(check int) "placement" part (abs (Value.hash v) mod 4))
        vs)
    pd.Pdata.parts;
  Helpers.check_bag "content preserved" vs (Pdata.to_list pd)

let test_pdata_mult_propagation () =
  let vs = List.init 8 Value.int in
  let pd = Pdata.of_list ~rmult:10.0 ~bmult:20.0 ~nparts:2 vs in
  Alcotest.(check (float 1e-9)) "logical records" 80.0 (Pdata.logical_records pd);
  Alcotest.(check (float 1e-9)) "logical bytes" (20.0 *. Pdata.bytes pd) (Pdata.logical_bytes pd);
  let filtered = Pdata.map_parts_preserving (List.filter (fun _ -> true)) pd in
  Alcotest.(check (float 1e-9)) "mult preserved" 10.0 filtered.Pdata.rmult;
  let u = Pdata.union pd (Pdata.of_list ~nparts:2 vs) in
  Alcotest.(check (float 1e-9)) "union takes max" 10.0 u.Pdata.rmult

let test_pdata_key_property () =
  let key = P.udf_of_expr (Expr.Lam ("x", Expr.Var "x")) in
  let pd = Pdata.repartition ~nparts:2 ~key Fun.id (Pdata.of_list ~nparts:2 [ Value.int 1 ]) in
  Alcotest.(check bool) "map_parts clears key" false
    (Pdata.co_partitioned (Pdata.map_parts Fun.id pd) key);
  Alcotest.(check bool) "preserving keeps key" true
    (Pdata.co_partitioned (Pdata.map_parts_preserving Fun.id pd) key);
  Alcotest.(check bool) "union clears key" false
    (Pdata.co_partitioned (Pdata.union pd pd) key)

(* ---- Pdata size statistics ------------------------------------------- *)

module Exec = Emma_engine.Exec

(* The naive walks the statistics replace, as the engine computed them
   before they were memoised: float left folds of [Value.byte_size]. *)
let naive_part_bytes pd =
  Array.map
    (List.fold_left (fun acc v -> acc +. float_of_int (Value.byte_size v)) 0.0)
    pd.Pdata.parts

let naive_largest pd =
  Array.fold_left
    (List.fold_left (fun acc v -> Float.max acc (float_of_int (Value.byte_size v))))
    0.0 pd.Pdata.parts

let naive_records pd = Array.fold_left (fun acc p -> acc + List.length p) 0 pd.Pdata.parts

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Every memoised size equals the naive walk bit for bit. *)
let stats_match pd =
  let same = bits_equal in
  let parts = naive_part_bytes pd in
  let bytes = Array.fold_left ( +. ) 0.0 parts in
  let records = naive_records pd in
  Pdata.records pd = records
  && same (Pdata.bytes pd) bytes
  && Array.length (Pdata.part_bytes pd) = Array.length parts
  && Array.for_all2 same (Pdata.part_bytes pd) parts
  && same (Pdata.logical_records pd) (float_of_int records *. pd.Pdata.rmult)
  && same (Pdata.logical_bytes pd) (bytes *. pd.Pdata.bmult)
  && same (Pdata.largest_record pd) (naive_largest pd)

let value_gen =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [ map Value.int (int_range (-50) 50);
        map (fun n -> Value.string (String.make n 'x')) (int_bound 30);
        map Value.bool bool;
        pure Value.unit ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [ (3, leaf);
            (1, map Value.tuple (list_size (int_bound 3) (self (depth - 1))));
            (1, map Value.bag (list_size (int_bound 5) (self (depth - 1))));
            (1, map (fun v -> Value.record [ ("k", v) ]) (self (depth - 1))) ])
    2

let bag_case_gen =
  QCheck2.Gen.(
    tup5
      (list_size (int_bound 40) value_gen)
      (int_range 1 7)
      (int_range 1 5)
      (pair (float_range 1.0 1e3) (float_range 1.0 1e3))
      (list_size (int_bound 12) value_gen))

let pool2 = lazy (Emma_util.Pool.create ~domains:2 ())
let () = at_exit (fun () -> if Lazy.is_val pool2 then Emma_util.Pool.shutdown (Lazy.force pool2))

let prop_stats_match_naive_walk =
  let key = P.udf_of_expr (Expr.Lam ("x", Expr.Var "x")) in
  Helpers.qcheck_case "memoised sizes = naive walk" ~count:150 bag_case_gen
    (fun (vs, nparts, chunk, (rmult, bmult), extra) ->
      let pool = Lazy.force pool2 in
      let engine =
        Exec.create
          ~config:
            { Emma_engine.Config.default with pool = Some pool; chunk = Exec.Chunk_fixed chunk }
          ~cluster:(Emma_engine.Cluster.laptop ()) ~profile:Emma_engine.Cluster.spark_like
          (Emma_lang.Eval.create_ctx ())
      in
      let serial = Pdata.of_list ~rmult ~bmult ~nparts vs in
      let pooled = Pdata.of_list ~pool ~rmult ~bmult ~nparts vs in
      let other = Pdata.of_list ~nparts:(nparts + 1) extra in
      let measured_other = Pdata.of_list ~pool ~nparts extra in
      ignore (Pdata.bytes measured_other);
      let double v = [ v; Value.tuple [ v; v ] ] in
      let small v = Value.byte_size v < 24 in
      let bags =
        [ serial;
          pooled;
          Pdata.repartition ~nparts:(nparts + 2) ~key Fun.id pooled;
          Pdata.union serial other;
          Pdata.union pooled measured_other;
          Pdata.union measured_other pooled;
          Pdata.map_parts (List.concat_map double) pooled;
          Pdata.map_parts_preserving (List.filter small) pooled;
          Pdata.with_mult ~rmult:bmult ~bmult:rmult serial;
          Exec.par_map_parts_chunked engine (List.concat_map double) pooled;
          Exec.par_map_parts_preserving_chunked engine (List.filter small) serial;
          Exec.shuffle_by engine key Fun.id pooled ]
      in
      List.for_all stats_match bags)

let test_pdata_measured_once () =
  let delta (a : Pdata.counters) (b : Pdata.counters) =
    (b.Pdata.built - a.Pdata.built, b.Pdata.measured - a.Pdata.measured)
  in
  let c0 = Pdata.counters () in
  let pd = Pdata.of_list ~nparts:3 (List.init 10 Value.int) in
  Alcotest.(check (pair int int)) "serial bag starts unmeasured" (1, 0)
    (delta c0 (Pdata.counters ()));
  for _ = 1 to 3 do
    ignore (Pdata.records pd, Pdata.bytes pd, Pdata.logical_bytes pd, Pdata.largest_record pd)
  done;
  Alcotest.(check (pair int int)) "measured once on first use" (1, 1)
    (delta c0 (Pdata.counters ()));
  let scaled = Pdata.with_mult ~rmult:2.0 ~bmult:3.0 pd in
  ignore (Pdata.logical_bytes scaled);
  let u = Pdata.union pd scaled in
  ignore (Pdata.logical_bytes u);
  Alcotest.(check (pair int int)) "with_mult and union reuse the statistics" (2, 2)
    (delta c0 (Pdata.counters ()))

(* Running TPC-H Q3 on the engine measures each bag at most once, however
   often cost charging, memory accounting and chunking ask for its size. *)
let q3_tables ~seed =
  let cfg = Emma_workloads.Tpch_gen.of_scale_factor 0.0005 in
  [ ("lineitem", Emma_workloads.Tpch_gen.lineitem ~seed cfg);
    ("orders", Emma_workloads.Tpch_gen.orders ~seed cfg);
    ("customer", Emma_workloads.Tpch_gen.customer ~seed cfg) ]

let q3_algo =
  lazy (Emma.parallelize (Emma_programs.Tpch_q3.program Emma_programs.Tpch_q3.default_params))

let rt =
  Emma.
    { cluster = Emma_engine.Cluster.laptop ();
      profile = Emma_engine.Cluster.spark_like;
      timeout_s = None }

let test_q3_measures_each_bag_once () =
  let tables = q3_tables ~seed:5 in
  let algo = Lazy.force q3_algo in
  let before = Pdata.counters () in
  (match Emma.run_on rt algo ~tables with
  | Emma.Finished _ -> ()
  | _ -> Alcotest.fail "q3 did not finish");
  let after = Pdata.counters () in
  let built = after.Pdata.built - before.Pdata.built in
  let measured = after.Pdata.measured - before.Pdata.measured in
  Alcotest.(check bool) "bags were built and measured" true (built > 0 && measured > 0);
  if measured > built then
    Alcotest.failf "%d measurements for %d bags: some bag was measured twice" measured built

(* ---- Tables partitioned once ----------------------------------------- *)

module Metrics = Emma_engine.Metrics
module Session = Emma.Session
module Trace = Emma_util.Trace
module S = Emma_lang.Surface

(* Same layout and the same statistics, bit for bit. *)
let same_bag (a : Pdata.t) (b : Pdata.t) =
  Array.length a.Pdata.parts = Array.length b.Pdata.parts
  && Array.for_all2 (List.equal Value.equal) a.Pdata.parts b.Pdata.parts
  && Option.is_none a.Pdata.part_key = Option.is_none b.Pdata.part_key
  && bits_equal a.Pdata.rmult b.Pdata.rmult
  && bits_equal a.Pdata.bmult b.Pdata.bmult
  && Pdata.records a = Pdata.records b
  && bits_equal (Pdata.bytes a) (Pdata.bytes b)
  && Array.for_all2 bits_equal (Pdata.part_bytes a) (Pdata.part_bytes b)
  && bits_equal (Pdata.largest_record a) (Pdata.largest_record b)
  && bits_equal (Pdata.logical_records a) (Pdata.logical_records b)
  && bits_equal (Pdata.logical_bytes a) (Pdata.logical_bytes b)

(* Two fresh spines of the same rows, so the first [of_table] of each at
   each partition count is cold: one copy is built serially and read warm
   on the pool, the other the other way round. *)
let prop_of_table_is_of_list =
  Helpers.qcheck_case "of_table = of_list, cold and warm" ~count:60
    QCheck2.Gen.(list_size (int_bound 40) value_gen)
    (fun vs ->
      let pool = Lazy.force pool2 in
      let counts = [ 1; 7; 320 ] in
      let fresh = List.map (fun nparts -> Pdata.of_list ~nparts vs) counts in
      List.for_all
        (fun (cold_pool, warm_pool) ->
          let rows = List.map Fun.id vs in
          let shared = rows <> [] in
          let cold = List.map (fun nparts -> Pdata.of_table ?pool:cold_pool ~nparts rows) counts in
          let warm = List.map (fun nparts -> Pdata.of_table ?pool:warm_pool ~nparts rows) counts in
          List.for_all2
            (fun fresh ((cold, cold_reused), (warm, warm_reused)) ->
              same_bag fresh cold && same_bag fresh warm && (not cold_reused)
              && warm_reused = shared
              && ((not shared) || warm == cold))
            fresh (List.combine cold warm))
        [ (None, Some pool); (Some pool, None) ])

let cost_bits (m : Metrics.t) =
  List.map Int64.bits_of_float
    [ m.sim_time_s; m.shuffle_bytes; m.broadcast_bytes; m.dfs_read_bytes; m.dfs_write_bytes;
      m.collect_bytes; m.parallelize_bytes; m.spilled_bytes; m.mem_peak_bytes;
      float_of_int m.jobs; float_of_int m.stages; float_of_int m.recomputes;
      float_of_int m.cache_hits; float_of_int m.udf_invocations ]

(* The [parts_cached] flags of the traced read spans, in order. *)
let read_flags tracer =
  List.filter_map
    (fun (e : Trace.event) ->
      match (e.ev_ph, e.ev_name, List.assoc_opt "parts_cached" e.ev_args) with
      | Trace.E, "read", Some (Trace.A_bool b) -> Some b
      | _ -> None)
    (Trace.events tracer)

(* A second run of q3 in one session builds no bag for its reads, and
   neither its value nor any cost field moves; a structural copy of the
   tables is a miss and gives the same run again. *)
let test_q3_second_run_reuses_reads () =
  let tables = q3_tables ~seed:6 in
  let copy = List.map (fun (name, rows) -> (name, List.map Fun.id rows)) tables in
  let tracer = Trace.create () in
  let session =
    Session.create ~config:(Emma_engine.Config.(default |> with_trace (Some tracer))) rt
  in
  Fun.protect ~finally:(fun () -> Session.close session) @@ fun () ->
  let run tables =
    Trace.clear tracer;
    let c0 = Pdata.counters () in
    match Session.run session (Lazy.force q3_algo) ~tables with
    | Emma.Finished r -> (r, (Pdata.counters ()).Pdata.built - c0.Pdata.built, read_flags tracer)
    | _ -> Alcotest.fail "q3 did not finish"
  in
  let cold, cold_built, cold_flags = run tables in
  let warm, warm_built, warm_flags = run tables in
  let miss, miss_built, miss_flags = run copy in
  let reads = List.length cold_flags in
  Alcotest.(check int) "q3 reads its three tables" 3 reads;
  Alcotest.(check (list bool)) "cold reads slice" (List.init reads (fun _ -> false)) cold_flags;
  Alcotest.(check (list bool)) "warm reads reuse" (List.init reads (fun _ -> true)) warm_flags;
  Alcotest.(check (list bool)) "a copy is a miss" cold_flags miss_flags;
  Alcotest.(check int) "no bag built for warm reads" (cold_built - reads) warm_built;
  Alcotest.(check int) "the copy builds what the cold run did" cold_built miss_built;
  List.iter
    (fun (what, (r : Session.run_result)) ->
      Helpers.check_value (what ^ ": value") cold.Session.value r.Session.value;
      if cost_bits cold.Session.metrics <> cost_bits r.Session.metrics then
        Alcotest.failf "%s: cost fields moved" what)
    [ ("warm", warm); ("miss", miss) ]

(* Rows that differ under one table name are read as they are, even when
   the lists share a prefix (and so, most likely, a hash). *)
let test_same_name_new_rows () =
  let rows lo n = List.init n (fun i -> Value.record [ ("a", Value.Int (lo + i)) ]) in
  let first = rows 0 30 in
  let second = first @ rows 100 5 in
  let algo =
    Emma.parallelize
      (S.program ~ret:S.(sum (map (lam "x" (fun x -> field x "a")) (read "t"))) [])
  in
  let session = Session.create rt in
  Fun.protect ~finally:(fun () -> Session.close session) @@ fun () ->
  let sum rows =
    match Session.run session algo ~tables:[ ("t", rows) ] with
    | Emma.Finished r -> Value.to_int r.Session.value
    | _ -> Alcotest.fail "run did not finish"
  in
  Alcotest.(check (list int)) "each run reads its own rows" [ 435; 945; 435; 945 ]
    [ sum first; sum second; sum first; sum second ]

(* Two domains reading one table at once share one bag, equal to a fresh
   partitioning. *)
let test_concurrent_reads_share () =
  let pool = Lazy.force pool2 in
  for i = 1 to 10 do
    let rows = List.init (100 + i) Value.int in
    let ready = Atomic.make 0 in
    let read () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do Domain.cpu_relax () done;
      fst (Pdata.of_table ~pool ~nparts:7 rows)
    in
    let d1 = Domain.spawn read and d2 = Domain.spawn read in
    let a = Domain.join d1 and b = Domain.join d2 in
    Alcotest.(check bool) "one shared bag" true (a == b);
    Alcotest.(check bool) "= of_list" true (same_bag a (Pdata.of_list ~nparts:7 rows))
  done

(* The memo does not keep a table alive. *)
let test_dropped_table_released () =
  let read_and_count () =
    let rows = List.init 50 Value.int in
    ignore (Pdata.of_table ~nparts:4 rows);
    Pdata.live_tables ()
  in
  Gc.full_major ();
  let before = Pdata.live_tables () in
  let during = (Sys.opaque_identity read_and_count) () in
  Gc.full_major ();
  Alcotest.(check int) "an entry while the table lives" (before + 1) during;
  Alcotest.(check int) "released with the table" before (Pdata.live_tables ())

let suite =
  [ ( "plan",
      [ Alcotest.test_case "udf alpha equality" `Quick test_udf_alpha_equal;
        Alcotest.test_case "udf eta expansion" `Quick test_udf_eta_expansion;
        Alcotest.test_case "result kinds" `Quick test_result_kind;
        Alcotest.test_case "scans and counts" `Quick test_scanned_and_counts;
        Alcotest.test_case "plan printer total" `Quick test_plan_pp_total;
        Alcotest.test_case "cprog helpers" `Quick test_cprog_pp_and_helpers ] );
    ( "pdata",
      [ Alcotest.test_case "round trip" `Quick test_pdata_roundtrip;
        Alcotest.test_case "repartition" `Quick test_pdata_repartition;
        Alcotest.test_case "multiplier propagation" `Quick test_pdata_mult_propagation;
        Alcotest.test_case "key property" `Quick test_pdata_key_property;
        Alcotest.test_case "measured once" `Quick test_pdata_measured_once;
        Alcotest.test_case "q3 measures each bag once" `Quick test_q3_measures_each_bag_once;
        prop_stats_match_naive_walk;
        prop_of_table_is_of_list;
        Alcotest.test_case "q3 second run reuses its reads" `Quick
          test_q3_second_run_reuses_reads;
        Alcotest.test_case "same name, new rows" `Quick test_same_name_new_rows;
        Alcotest.test_case "concurrent reads share a bag" `Quick test_concurrent_reads_share;
        Alcotest.test_case "dropped table released" `Quick test_dropped_table_released ] ) ]
