(* Tests of the benchmark itself: seeded inputs, workload sizing, request
   class shares and the metric names BENCHMARK.json declares. *)

module I = Perfbench.Pb_inputs
module W = Perfbench.Pb_workloads
module Json = Vis_util.Json

let advise_digests seed =
  I.advise_requests ~seed ~blocks:2 |> Array.to_list |> Array.concat
  |> Array.map I.request_digest

let ingest_digest seed = I.groups_digest (I.ingest_inputs ~seed ~groups:2)

let test_seeds () =
  Alcotest.(check bool) "advise: same seed, same requests" true (advise_digests 1 = advise_digests 1);
  Alcotest.(check bool) "advise: other seed, other requests" false (advise_digests 1 = advise_digests 2);
  Alcotest.(check bool) "ingest: same seed, same batches" true (ingest_digest 1 = ingest_digest 1);
  Alcotest.(check bool) "ingest: other seed, other batches" false (ingest_digest 1 = ingest_digest 2);
  let serve seed = I.serve_digest ~seed ~ticks:50 in
  Alcotest.(check bool) "serve: same seed, same load" true (serve 1 = serve 1);
  Alcotest.(check bool) "serve: other seed, other load" false (serve 1 = serve 2)

let test_sizes () =
  let schema, _, data = I.ingest_data ~seed:1 in
  let w = Vis_maintenance.Warehouse.build ~checksums:true schema (W.ingest_design schema) data in
  let pages = Vis_maintenance.Warehouse.total_data_pages w in
  let pool = schema.Vis_catalog.Schema.mem_pages in
  Alcotest.(check bool)
    (Printf.sprintf "ingest: %d data pages >= 4 x %d-page pool" pages pool)
    true (pages >= 4 * pool);
  let svc = W.serve_start ~seed:1 ~jobs:1 in
  let sch = I.serve_schema () in
  List.iter
    (fun id ->
      let rng = Random.State.make [| id |] in
      let tw =
        Vis_maintenance.Warehouse.build sch (Vis_service.Service.incumbent svc id)
          (Vis_workload.Datagen.generate ~rng sch)
      in
      let p = Vis_maintenance.Warehouse.total_data_pages tw in
      Alcotest.(check bool)
        (Printf.sprintf "serve: tenant %d has %d pages <= %d-page pool" id p sch.Vis_catalog.Schema.mem_pages)
        true (p <= sch.Vis_catalog.Schema.mem_pages))
    (Vis_service.Service.tenant_ids svc);
  Vis_service.Service.shutdown svc

(* Classes sorted by latency: p50 and p90 must sit at least 0.10 inside
   a class, so a small shift in latencies cannot move them across the gap
   between two classes.  Packed and mined requests take about as long as
   each other, so both orders of the two are checked. *)
let test_class_shares () =
  let n = float_of_int I.block_size in
  let boundaries order =
    snd
      (List.fold_left
         (fun (acc, bs) c ->
           let acc = acc + I.class_count c in
           (acc, (float_of_int acc /. n) :: bs))
         (0, [ 0. ]) order)
  in
  let bounds =
    boundaries I.classes @ boundaries I.[ Small; Mined; Packed; Structural ]
  in
  List.iter
    (fun q ->
      List.iter
        (fun b ->
          Alcotest.(check bool)
            (Printf.sprintf "p%.0f is 0.10 away from boundary %.2f" (100. *. q) b)
            true
            (Float.abs (q -. b) >= 0.1 -. 1e-9))
        bounds)
    [ 0.5; 0.9 ];
  Array.iter
    (fun block ->
      List.iter
        (fun c ->
          let k = Array.fold_left (fun a r -> if r.I.rq_class = c then a + 1 else a) 0 block in
          Alcotest.(check int) ("requests of class " ^ I.class_name c) (I.class_count c) k)
        I.classes;
      Array.iter
        (fun r ->
          let p =
            Vis_core.Problem.make ~connected_only:r.I.rq_connected_only
              ?max_view_rels:r.I.rq_max_view_rels r.I.rq_schema
          in
          let packed = p.Vis_core.Problem.encoding <> None in
          match r.I.rq_class with
          | I.Packed -> Alcotest.(check bool) (r.I.rq_label ^ " is packed") true packed
          | I.Structural -> Alcotest.(check bool) (r.I.rq_label ^ " is structural") false packed
          | I.Small | I.Mined -> ())
        block)
    (I.advise_requests ~seed:3 ~blocks:2)

let declared key =
  let spec = Json.of_string (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all) in
  match Json.member key spec with
  | Json.List ms ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Json.String n, Json.String u -> (n, u)
          | _ -> Alcotest.fail "malformed metric")
        ms
  | _ -> Alcotest.fail ("BENCHMARK.json has no " ^ key)

let test_metric_names () =
  Alcotest.(check (list (pair string string))) "per-layer metrics" (declared "per_layer") W.per_layer;
  Alcotest.(check (list string))
    "end-to-end metrics"
    [ "latency_ms_p50"; "latency_ms_p90"; "peak_rss_mb"; "setup_s"; "throughput_per_s" ]
    (List.sort compare (List.map fst (declared "end_to_end")))

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "seeded digests" `Quick test_seeds;
          Alcotest.test_case "working set vs pool" `Quick test_sizes;
          Alcotest.test_case "advise class shares" `Quick test_class_shares;
        ] );
      ("metrics", [ Alcotest.test_case "names match BENCHMARK.json" `Quick test_metric_names ]);
    ]
