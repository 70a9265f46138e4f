(* Tests for the workload-driven candidate pipeline: the seeded query-log
   generator, the frequent-pattern miner, and [Problem.make ?candidates]
   running the searches on the mined subset. *)

module Bitset = Vis_util.Bitset
module Schema = Vis_catalog.Schema
module Config = Vis_costmodel.Config
module Problem = Vis_core.Problem
module Astar = Vis_core.Astar
module Schemas = Vis_workload.Schemas
module Querygen = Vis_workload.Querygen
module Miner = Vis_workload.Miner
module Stream = Vis_workload.Stream

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let schema1 () = Schemas.schema1 ()
let star8 () = Schemas.star ~n_dims:7 ()

let mem_attr universe a = Array.exists (fun b -> b = a) universe

(* ------------------------------------------------------------------ *)
(* Query-log generation. *)

let test_querygen_deterministic () =
  let s = star8 () in
  let l1 = Querygen.generate ~seed:42 ~n:200 s in
  let l2 = Querygen.generate ~seed:42 ~n:200 s in
  checkb "same seed, same log" true (l1 = l2);
  let l3 = Querygen.generate ~seed:43 ~n:200 s in
  checkb "different seed, different log" true (l1 <> l3)

let test_querygen_well_formed () =
  let s = star8 () in
  let universe = Querygen.attr_universe s in
  let log = Querygen.generate ~seed:7 ~n:300 s in
  checki "n queries" 300 (List.length log);
  List.iter
    (fun (q : Querygen.query) ->
      checkb "tick in range" true (q.Querygen.q_tick >= 0 && q.Querygen.q_tick < 64);
      checkb "some relation" true (not (Bitset.is_empty q.Querygen.q_rels));
      checkb "some attribute" true (q.Querygen.q_attrs <> []);
      List.iter
        (fun ((rel, _) as a) ->
          checkb "attr in universe" true (mem_attr universe a);
          checkb "attr's relation accessed" true (Bitset.mem rel q.Querygen.q_rels))
        q.Querygen.q_attrs)
    log;
  (* All four templates appear in a joined schema's log. *)
  let has t = List.exists (fun q -> q.Querygen.q_template = t) log in
  List.iter
    (fun t -> checkb (Querygen.template_name t) true (has t))
    [ Querygen.Point; Querygen.Range; Querygen.Star_join; Querygen.Aggregate ]

let test_querygen_drift_changes_log () =
  let s = star8 () in
  let flat = Querygen.generate ~seed:5 ~n:400 s in
  let drifted =
    Querygen.generate ~seed:5 ~n:400
      ~drift:(Stream.Ramp { from_tick = 8; over = 16; factor = 6. })
      s
  in
  checkb "drift alters the draw" true (flat <> drifted);
  (* Before the ramp starts both logs are identical draws. *)
  let before l =
    List.filter (fun (q : Querygen.query) -> q.Querygen.q_tick < 8) l
  in
  checkb "identical before drift onset" true (before flat = before drifted)

(* ------------------------------------------------------------------ *)
(* Mining. *)

let test_minsup_zero_bit_identical () =
  List.iter
    (fun s ->
      let log = Querygen.generate ~seed:11 ~n:100 s in
      let m = Miner.mine ~minsup:0. s log in
      let p_full = Problem.make s in
      let p_mined = Problem.make ~candidates:m.Miner.m_candidates s in
      checki "same feature count"
        (List.length p_full.Problem.features)
        (List.length p_mined.Problem.features);
      checkb "features bit-identical" true
        (List.for_all2 Problem.equal_feature p_full.Problem.features
           p_mined.Problem.features);
      checkb "views identical" true
        (List.for_all2 Bitset.equal p_full.Problem.candidate_views
           p_mined.Problem.candidate_views))
    [ schema1 (); Schemas.chain ~n:4 (); Schemas.two_relation () ]

let test_minsup_monotone_attrs () =
  let s = star8 () in
  let log = Querygen.generate ~seed:3 ~n:500 s in
  let attrs ms =
    (Miner.mine ~minsup:ms s log).Miner.m_candidates.Problem.cand_attrs
  in
  let a01 = attrs 0.1 and a03 = attrs 0.3 in
  checkb "higher minsup keeps fewer attrs" true
    (List.length a03 <= List.length a01);
  checkb "and is a subset" true (List.for_all (fun a -> List.mem a a01) a03)

let test_mined_features_subset () =
  let s = star8 () in
  let log = Querygen.generate ~seed:42 ~n:400 s in
  let m = Miner.mine ~minsup:0.1 s log in
  let p_full = Problem.make ~connected_only:true ~max_view_rels:2 s in
  let p_mined =
    Problem.make ~connected_only:true ~max_view_rels:2
      ~candidates:m.Miner.m_candidates s
  in
  checkb "pruned strictly" true
    (List.length p_mined.Problem.features < List.length p_full.Problem.features);
  List.iter
    (fun f ->
      checkb "mined feature is structural" true
        (List.exists (Problem.equal_feature f) p_full.Problem.features))
    p_mined.Problem.features

let test_maintenance_keys_survive () =
  (* Even an empty candidate set keeps the del/upd key indexes: pruning is
     query-driven, maintenance is not negotiable. *)
  let s = schema1 () in
  let p =
    Problem.make ~candidates:{ Problem.cand_views = []; cand_attrs = [] } s
  in
  checki "no views" 0 (List.length p.Problem.candidate_views);
  let base_r =
    Problem.candidate_indexes_on p (Vis_costmodel.Element.Base 0)
  in
  Alcotest.(check (list string))
    "R keeps its key (receives deletions), loses the join attr" [ "R0" ]
    (List.map
       (fun ix -> ix.Vis_costmodel.Element.ix_attr.Vis_costmodel.Element.a_name)
       base_r);
  (* The searches still run on the gutted space. *)
  let r = Astar.search p in
  checkb "optimum valid" true (Problem.valid_config p r.Astar.best)

let test_mined_optimum_valid_and_bounded () =
  let s = schema1 () in
  let log = Querygen.generate ~seed:9 ~n:200 s in
  let full = Astar.search (Problem.make s) in
  List.iter
    (fun ms ->
      let m = Miner.mine ~minsup:ms s log in
      let p = Problem.make ~candidates:m.Miner.m_candidates s in
      let r = Astar.search p in
      checkb "valid in mined space" true (Problem.valid_config p r.Astar.best);
      checkb "never beats the unpruned optimum" true
        (r.Astar.best_cost >= full.Astar.best_cost -. 1e-9);
      (* A fresh structural evaluation agrees with the search's cost. *)
      Alcotest.(check (float 1e-9))
        "structural evaluator agrees" r.Astar.best_cost
        (Vis_costmodel.Cost.total_of p.Problem.derived r.Astar.best))
    [ 0.; 0.1; 0.4 ]

let test_mined_jobs_bit_identical () =
  let s = star8 () in
  let log = Querygen.generate ~seed:42 ~n:400 s in
  let m = Miner.mine ~minsup:0.1 s log in
  let run jobs =
    let p =
      Problem.make ~connected_only:true ~max_view_rels:2
        ~candidates:m.Miner.m_candidates s
    in
    Astar.search_budgeted ~max_expanded:2000 ~beam:64 ~jobs p
  in
  let r1, _ = run 1 and r4, _ = run 4 in
  checkb "same optimum config" true (Config.equal r1.Astar.best r4.Astar.best);
  Alcotest.(check (float 0.)) "same cost bitwise" r1.Astar.best_cost r4.Astar.best_cost;
  checki "same expansions" r1.Astar.stats.Astar.expanded r4.Astar.stats.Astar.expanded;
  checki "same generated" r1.Astar.stats.Astar.generated r4.Astar.stats.Astar.generated

let test_miner_stats_and_itemsets () =
  let s = star8 () in
  let log = Querygen.generate ~seed:42 ~n:400 s in
  let m = Miner.mine ~minsup:0.1 s log in
  let st = m.Miner.m_stats in
  checki "queries" 400 st.Miner.mn_queries;
  checki "threshold" 40 st.Miner.mn_threshold;
  checkb "itemsets found" true (st.Miner.mn_itemsets > 0);
  checkb "attrs pruned" true (st.Miner.mn_frequent_attrs < st.Miner.mn_universe);
  List.iter
    (fun (is : Miner.itemset) ->
      checkb "itemset meets support" true (is.Miner.support >= st.Miner.mn_threshold);
      checkb "itemset nonempty" true (is.Miner.items <> []))
    m.Miner.m_itemsets;
  (* Deterministic: mining twice gives the same result. *)
  checkb "mine deterministic" true (Miner.mine ~minsup:0.1 s log = m)

let () =
  Alcotest.run "vis_workload miner"
    [
      ( "querygen",
        [
          Alcotest.test_case "deterministic" `Quick test_querygen_deterministic;
          Alcotest.test_case "well-formed" `Quick test_querygen_well_formed;
          Alcotest.test_case "drift changes log" `Quick test_querygen_drift_changes_log;
        ] );
      ( "miner",
        [
          Alcotest.test_case "minsup=0 bit-identical" `Quick test_minsup_zero_bit_identical;
          Alcotest.test_case "minsup monotone attrs" `Quick test_minsup_monotone_attrs;
          Alcotest.test_case "mined features subset" `Quick test_mined_features_subset;
          Alcotest.test_case "maintenance keys survive" `Quick test_maintenance_keys_survive;
          Alcotest.test_case "mined optimum valid+bounded" `Quick test_mined_optimum_valid_and_bounded;
          Alcotest.test_case "mined jobs bit-identical" `Quick test_mined_jobs_bit_identical;
          Alcotest.test_case "stats and itemsets" `Quick test_miner_stats_and_itemsets;
        ] );
    ]
