(* Pins the shapes of the generated star/snowflake workloads: relation
   counts, candidate-feature counts under the production candidate caps,
   and whether the problem stays in the benchmark's "packed" class (at
   most 62 features, [Problem.encoding]).  These numbers are
   load-bearing — the parallel-scaling study, the CI smoke and the sharded
   search tests all assume them — so a generator change that shifts them
   must show up here first.  Also checks that the generated schemas are
   executable: Datagen can realize their statistics and draw delta
   batches. *)

module Schema = Vis_catalog.Schema
module Problem = Vis_core.Problem
module Schemas = Vis_workload.Schemas
module Datagen = Vis_workload.Datagen

let checkb = Alcotest.(check bool)

let checki = Alcotest.(check int)

let shape name schema ~rels ~features ~packed =
  checki (name ^ ": relations") rels (Schema.n_relations schema);
  let p = Problem.make ~connected_only:true ~max_view_rels:2 schema in
  checki (name ^ ": features under cap 2") features
    (List.length p.Problem.features);
  checkb (name ^ ": feature encoding") packed (p.Problem.encoding <> None)

let test_star_shapes () =
  (* star ~n_dims:k is a fact table plus k dimensions *)
  shape "star-6" (Schemas.star ~n_dims:5 ()) ~rels:6 ~features:45 ~packed:true;
  shape "star-8" (Schemas.star ~n_dims:7 ()) ~rels:8 ~features:78 ~packed:false;
  shape "star-12"
    (Schemas.star ~n_dims:11 ())
    ~rels:12 ~features:165 ~packed:false

let test_snowflake_shapes () =
  (* snowflake ~arms ~depth is a fact table plus arms·depth dimensions *)
  shape "snowflake-7"
    (Schemas.snowflake ~arms:3 ~depth:2 ())
    ~rels:7 ~features:44 ~packed:true;
  (* 62 features — the largest packed problem *)
  shape "snowflake-9"
    (Schemas.snowflake ~arms:4 ~depth:2 ())
    ~rels:9 ~features:62 ~packed:true

let test_star_sized_like_issue () =
  (* The CLI accepts star3..star25 and snowflake5..snowflake25; spot-check
     the range endpoints the benchmark and CI use. *)
  List.iter
    (fun n ->
      checki
        (Printf.sprintf "star n_dims=%d relation count" n)
        (n + 1)
        (Schema.n_relations (Schemas.star ~n_dims:n ())))
    [ 2; 7; 11 ];
  List.iter
    (fun (arms, depth) ->
      checki
        (Printf.sprintf "snowflake %dx%d relation count" arms depth)
        (1 + (arms * depth))
        (Schema.n_relations (Schemas.snowflake ~arms ~depth ())))
    [ (2, 2); (3, 2); (4, 3) ]

let test_star_executable () =
  (* Foreign keys are separate attributes from the keys, so the generated
     schemas are realizable and refreshes can be drawn and executed. *)
  let schema = Schemas.star ~base_card:200. ~n_dims:4 () in
  let rng = Random.State.make [| 7 |] in
  let ds = Datagen.generate ~rng schema in
  checki "one tuple list per relation" (Schema.n_relations schema)
    (Array.length ds.Datagen.ds_tuples);
  Array.iteri
    (fun r tuples ->
      let card =
        int_of_float (Schema.relation schema r).Schema.card
      in
      checki (Printf.sprintf "relation %d realized cardinality" r) card
        (List.length tuples))
    ds.Datagen.ds_tuples;
  let batch = Datagen.deltas ~rng schema ds in
  let total_ins =
    Array.fold_left (fun acc l -> acc + List.length l) 0 batch.Datagen.b_ins
  in
  checkb "delta batch non-empty" true (total_ins > 0)

let test_snowflake_executable () =
  let schema = Schemas.snowflake ~base_card:200. ~arms:2 ~depth:2 () in
  let rng = Random.State.make [| 11 |] in
  let ds = Datagen.generate ~rng schema in
  let batch = Datagen.deltas ~rng schema ds in
  checki "one delete list per relation" (Schema.n_relations schema)
    (Array.length batch.Datagen.b_del)

let () =
  Alcotest.run "vis_datagen"
    [
      ( "generated workload shapes",
        [
          Alcotest.test_case "star shapes pinned" `Quick test_star_shapes;
          Alcotest.test_case "snowflake shapes pinned" `Quick
            test_snowflake_shapes;
          Alcotest.test_case "relation counts across sizes" `Quick
            test_star_sized_like_issue;
        ] );
      ( "executability",
        [
          Alcotest.test_case "star schema realizable" `Quick
            test_star_executable;
          Alcotest.test_case "snowflake schema realizable" `Quick
            test_snowflake_executable;
        ] );
    ]
