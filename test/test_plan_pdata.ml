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

(* Every memoised size equals the naive walk bit for bit. *)
let stats_match pd =
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
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

let prop_stats_match_naive_walk =
  let key = P.udf_of_expr (Expr.Lam ("x", Expr.Var "x")) in
  let pool = lazy (Emma_util.Pool.create ~domains:2 ()) in
  at_exit (fun () -> if Lazy.is_val pool then Emma_util.Pool.shutdown (Lazy.force pool));
  Helpers.qcheck_case "memoised sizes = naive walk" ~count:150 bag_case_gen
    (fun (vs, nparts, chunk, (rmult, bmult), extra) ->
      let pool = Lazy.force pool in
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
let test_q3_measures_each_bag_once () =
  let cfg = Emma_workloads.Tpch_gen.of_scale_factor 0.0005 in
  let tables =
    [ ("lineitem", Emma_workloads.Tpch_gen.lineitem ~seed:5 cfg);
      ("orders", Emma_workloads.Tpch_gen.orders ~seed:5 cfg);
      ("customer", Emma_workloads.Tpch_gen.customer ~seed:5 cfg) ]
  in
  let algo =
    Emma.parallelize (Emma_programs.Tpch_q3.program Emma_programs.Tpch_q3.default_params)
  in
  let rt =
    Emma.
      { cluster = Emma_engine.Cluster.laptop ();
        profile = Emma_engine.Cluster.spark_like;
        timeout_s = None }
  in
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
        prop_stats_match_naive_walk ] ) ]
