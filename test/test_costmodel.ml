(* Tests for vis_costmodel: the yao/Y_WAP estimators, elements, configurations,
   the Appendix-A cost engine (golden values on Schema 1 plus structural
   properties like monotonicity in the configuration), and the feature
   encoding that keys a problem's shared memo cache. *)

module Bitset = Vis_util.Bitset
module Schema = Vis_catalog.Schema
module Derived = Vis_catalog.Derived
module Yao = Vis_costmodel.Yao
module Element = Vis_costmodel.Element
module Config = Vis_costmodel.Config
module Cost = Vis_costmodel.Cost

let checkb = Alcotest.(check bool)

let checkf msg = Alcotest.(check (float 1e-6)) msg

let schema1 () = Vis_workload.Schemas.schema1 ()

(* ------------------------------------------------------------------ *)
(* yao and Y_WAP. *)

let test_yao_cases () =
  checkf "few fetches: k" 10. (Yao.yao ~n:1000. ~p:100. ~k:10.);
  checkf "middle: (k+p)/3" ((100. +. 100.) /. 3.) (Yao.yao ~n:1000. ~p:100. ~k:100.);
  checkf "many fetches: p" 100. (Yao.yao ~n:1000. ~p:100. ~k:300.);
  checkf "zero fetches" 0. (Yao.yao ~n:1000. ~p:100. ~k:0.);
  checkf "boundary p/2" ((50. +. 100.) /. 3.) (Yao.yao ~n:1000. ~p:100. ~k:50.)

let test_ywap_cases () =
  checkf "fits in memory: min(k,p)" 30. (Yao.y_wap ~n:0. ~p:50. ~k:30. ~m:100.);
  checkf "fits in memory, k>p" 50. (Yao.y_wap ~n:0. ~p:50. ~k:90. ~m:100.);
  checkf "few fetches: k" 20. (Yao.y_wap ~n:0. ~p:200. ~k:20. ~m:100.);
  checkf "thrashing" (100. +. (100. *. (200. -. 100.) /. 200.))
    (Yao.y_wap ~n:0. ~p:200. ~k:200. ~m:100.);
  checkf "zero" 0. (Yao.y_wap ~n:0. ~p:200. ~k:0. ~m:100.)

let prop_yao_bounded =
  QCheck2.Test.make ~name:"yao: result within [0, min(k,p)] .. p" ~count:300
    QCheck2.Gen.(pair (float_bound_inclusive 1e5) (float_bound_inclusive 1e5))
    (fun (p, k) ->
      let r = Yao.yao ~n:1e6 ~p ~k in
      r >= 0. && r <= p +. 1e-9 && (k <= 0. || p <= 0. || r > 0.))

(* Y_WAP is not monotone in memory at the regime boundary (the paper's
   piecewise definition jumps from thrashing to min(k, p)); the invariants
   that do hold are 0 <= Y_WAP <= k, with equality min(k,p) when the
   relation fits in the buffer. *)
let prop_ywap_bounded =
  QCheck2.Test.make ~name:"Y_WAP: bounded by the fetch count" ~count:300
    QCheck2.Gen.(triple (float_range 1. 1e4) (float_range 0. 1e4) (float_range 1. 1e4))
    (fun (p, k, m) ->
      let r = Yao.y_wap ~n:0. ~p ~k ~m in
      r >= 0. && r <= k +. 1e-9
      && (p > m || r = Float.min k p))

(* ------------------------------------------------------------------ *)
(* Elements and configurations. *)

let st = Bitset.of_list [ 1; 2 ]

let ix_v_r0 schema =
  {
    Element.ix_elem = Element.View (Schema.all_relations schema);
    ix_attr = { Element.a_rel = 0; a_name = "R0" };
  }

let ix_st_s1 =
  { Element.ix_elem = Element.View st; ix_attr = { Element.a_rel = 1; a_name = "S1" } }

let test_element_stats () =
  let s = schema1 () in
  let d = Derived.create s in
  (* Base T is the full replica; View {T} is the σ-view. *)
  checkf "T(Base T)" 10000. (Element.card d (Element.Base 2));
  checkf "T(View σT)" 1000. (Element.card d (Element.View (Bitset.singleton 2)));
  checkb "σ-view smaller" true
    (Element.pages d (Element.View (Bitset.singleton 2))
    < Element.pages d (Element.Base 2));
  Alcotest.(check string) "name V" "V"
    (Element.name s (Element.View (Schema.all_relations s)));
  Alcotest.(check string) "name base" "T" (Element.name s (Element.Base 2));
  Alcotest.(check string) "σ name" "\xcf\x83T"
    (Element.name s (Element.View (Bitset.singleton 2)))

let test_config_ops () =
  let s = schema1 () in
  let c = Config.empty in
  checkb "empty has no view" false (Config.has_view c st);
  let c = Config.add_view c st in
  checkb "added view" true (Config.has_view c st);
  let c = Config.add_index c ix_st_s1 in
  checkb "added index" true
    (Config.has_index c (Element.View st) { Element.a_rel = 1; a_name = "S1" });
  Alcotest.(check int) "indexes_on" 1
    (List.length (Config.indexes_on c (Element.View st)));
  let c2 = Config.remove_index c ix_st_s1 in
  checkb "removed index" false
    (Config.has_index c2 (Element.View st) { Element.a_rel = 1; a_name = "S1" });
  (* Canonical signature is order independent. *)
  let a =
    Config.make ~views:[ st; Bitset.singleton 2 ] ~indexes:[ ix_st_s1; ix_v_r0 s ]
  in
  let b =
    Config.make ~views:[ Bitset.singleton 2; st ] ~indexes:[ ix_v_r0 s; ix_st_s1 ]
  in
  Alcotest.(check string) "signature canonical" (Config.signature a) (Config.signature b);
  checkb "equal" true (Config.equal a b)

let test_config_restrict_space () =
  let s = schema1 () in
  let d = Derived.create s in
  let c = Config.make ~views:[ st ] ~indexes:[ ix_st_s1; ix_v_r0 s ] in
  let r = Config.restrict c ~rels:st in
  Alcotest.(check int) "restricted keeps subview" 1 (List.length (Config.views r));
  Alcotest.(check int) "restricted drops V index" 1 (List.length (Config.indexes r));
  let space = Config.space d c in
  checkb "space positive" true (space > 0.);
  checkf "space additive"
    (Derived.view_pages d st
    +. (Element.index_shape d ix_st_s1).Derived.ix_pages
    +. (Element.index_shape d (ix_v_r0 s)).Derived.ix_pages)
    space

(* ------------------------------------------------------------------ *)
(* Cost engine. *)

let test_zero_deltas_zero_cost () =
  let s =
    Schema.with_deltas (schema1 ())
      (List.init 3 (fun _ -> { Schema.n_ins = 0.; n_del = 0.; n_upd = 0. }))
  in
  let d = Derived.create s in
  checkf "no deltas, no cost" 0. (Cost.total_of d Config.empty)

let test_base_insert_cost () =
  let s = schema1 () in
  let d = Derived.create s in
  let eval = Cost.create d Config.empty in
  (* 900 insertions at 102 tuples/page: read 9 pages, append 9 pages. *)
  let p, plan = Cost.prop_ins eval ~target:(Element.Base 0) ~rel:0 in
  checkf "eval reads delta" 9. p.Cost.p_eval;
  checkf "apply appends" 9. p.Cost.p_apply;
  checkf "no index cost" 0. p.Cost.p_index;
  checkb "trivial plan" true (plan.Cost.ip_steps = []);
  checkf "result tuples" 900. p.Cost.p_result_tuples

let test_primary_ins_plan_uses_view () =
  let s = schema1 () in
  let d = Derived.create s in
  let full = Schema.all_relations s in
  (* With ST' materialized, ΔR should join it directly instead of S and T. *)
  let config = Config.make ~views:[ st ] ~indexes:[] in
  let eval = Cost.create d config in
  let p_with, plan = Cost.prop_ins eval ~target:(Element.View full) ~rel:0 in
  (match plan.Cost.ip_steps with
  | [ (Element.View w, Cost.Nbj) ] -> checkb "joins ST'" true (Bitset.equal w st)
  | _ -> Alcotest.fail "expected a single join with ST'");
  let p_without, _ =
    Cost.prop_ins (Cost.create d Config.empty) ~target:(Element.View full) ~rel:0
  in
  checkb "view makes insertions cheaper" true
    (p_with.Cost.p_eval < p_without.Cost.p_eval)

let test_saved_delta_reuse () =
  let s = schema1 () in
  let d = Derived.create s in
  let full = Schema.all_relations s in
  (* With RS materialized, insertions to R onto V can start from ΔRS^save. *)
  let rs = Bitset.of_list [ 0; 1 ] in
  let config = Config.make ~views:[ rs ] ~indexes:[] in
  let eval = Cost.create d config in
  let _, plan = Cost.prop_ins eval ~target:(Element.View full) ~rel:0 in
  match plan.Cost.ip_start with
  | Cost.From_saved w -> checkb "starts from saved ΔRS" true (Bitset.equal w rs)
  | Cost.From_delta -> Alcotest.fail "expected saved-delta reuse"

let test_del_uses_key_index () =
  let s = schema1 () in
  let d = Derived.create s in
  let full = Schema.all_relations s in
  let target = Element.View full in
  let no_ix = Cost.create d Config.empty in
  let p_scan, how_scan = Cost.prop_del no_ix ~target ~rel:0 in
  checkb "scan without index" true (how_scan = Cost.Loc_scan);
  let with_ix = Cost.create d (Config.make ~views:[] ~indexes:[ ix_v_r0 s ]) in
  let p_ix, how_ix = Cost.prop_del with_ix ~target ~rel:0 in
  (match how_ix with
  | Cost.Loc_key_index _ -> ()
  | Cost.Loc_scan -> Alcotest.fail "expected key-index locate");
  checkb "index locate cheaper" true
    (p_ix.Cost.p_eval +. p_ix.Cost.p_apply < p_scan.Cost.p_eval +. p_scan.Cost.p_apply);
  (* The index itself must now be maintained for insertions/deletions. *)
  let pi, _ = Cost.prop_ins with_ix ~target ~rel:0 in
  checkb "index maintenance charged" true (pi.Cost.p_index > 0.)

let test_upd_no_index_maintenance () =
  let s =
    Schema.with_deltas (schema1 ())
      [
        { Schema.n_ins = 0.; n_del = 0.; n_upd = 100. };
        { Schema.n_ins = 0.; n_del = 0.; n_upd = 0. };
        { Schema.n_ins = 0.; n_del = 0.; n_upd = 0. };
      ]
  in
  let d = Derived.create s in
  let eval = Cost.create d (Config.make ~views:[] ~indexes:[ ix_v_r0 s ]) in
  let p, _ = Cost.prop_upd eval ~target:(Element.View (Schema.all_relations s)) ~rel:0 in
  checkf "protected updates do not touch indexes" 0. p.Cost.p_index;
  checkb "but they do cost" true (p.Cost.p_eval +. p.Cost.p_apply > 0.)

let test_supporting_view_save_charged () =
  let s = schema1 () in
  let d = Derived.create s in
  let eval = Cost.create d (Config.make ~views:[ st ] ~indexes:[]) in
  let p_sup, _ = Cost.prop_ins eval ~target:(Element.View st) ~rel:1 in
  checkb "supporting view saves its delta" true (p_sup.Cost.p_save > 0.);
  let p_pri, _ =
    Cost.prop_ins eval ~target:(Element.View (Schema.all_relations s)) ~rel:1
  in
  checkf "primary view does not save" 0. p_pri.Cost.p_save

let test_total_structure () =
  let s = schema1 () in
  let d = Derived.create s in
  let eval = Cost.create d (Config.make ~views:[ st ] ~indexes:[]) in
  let elems = Cost.maintained_elements eval in
  Alcotest.(check int) "3 bases + ST' + V" 5 (List.length elems);
  let sum = List.fold_left (fun acc e -> acc +. Cost.element_cost eval e) 0. elems in
  checkf "total is the sum over elements" sum (Cost.total eval)

let test_index_maint_cost () =
  let s = schema1 () in
  let d = Derived.create s in
  let ix = ix_v_r0 s in
  let eval = Cost.create d (Config.make ~views:[] ~indexes:[ ix ]) in
  let own = Cost.index_maint_cost eval ix in
  checkb "index maintenance positive" true (own > 0.);
  (* It is part of the element's total. *)
  let with_ix = Cost.element_cost eval (Element.View (Schema.all_relations s)) in
  let without =
    Cost.element_cost (Cost.create d Config.empty)
      (Element.View (Schema.all_relations s))
  in
  (* The key index may reduce del/upd cost but its Apply_ix is included. *)
  checkb "element cost changed" true (abs_float (with_ix -. without) > 1e-9)

(* Properties: adding structures never increases any expression's
   evaluation cost (the plan space only grows), and the memoization cache
   is consistent across evaluators. *)

let random_config ~rng p =
  let views =
    List.filter (fun _ -> Random.State.bool rng) p.Vis_core.Problem.candidate_views
  in
  let indexes =
    List.filter (fun _ -> Random.State.bool rng)
      (Vis_core.Problem.indexes_for_views p views)
  in
  Config.make ~views ~indexes

let prop_eval_monotone =
  QCheck2.Test.make ~name:"cost: adding a feature never raises an eval cost"
    ~count:60
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let schema = Vis_workload.Schemas.random ~rng () in
      let p = Vis_core.Problem.make schema in
      let config = random_config ~rng p in
      let bigger =
        Config.make
          ~views:p.Vis_core.Problem.candidate_views
          ~indexes:
            (Vis_core.Problem.indexes_for_views p p.Vis_core.Problem.candidate_views)
      in
      let e1 = Vis_core.Problem.evaluator p config in
      let e2 = Vis_core.Problem.evaluator p bigger in
      let target = Element.View (Schema.all_relations schema) in
      Bitset.for_all
        (fun r ->
          let a, _ = Cost.prop_ins e1 ~target ~rel:r in
          let b, _ = Cost.prop_ins e2 ~target ~rel:r in
          b.Cost.p_eval <= a.Cost.p_eval +. 1e-6)
        (Schema.all_relations schema))

let prop_total_nonnegative =
  QCheck2.Test.make ~name:"cost: totals are finite and non-negative" ~count:60
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let schema = Vis_workload.Schemas.random ~rng () in
      let p = Vis_core.Problem.make schema in
      let total = Vis_core.Problem.total p (random_config ~rng p) in
      Float.is_finite total && total >= 0.)

let prop_shared_cache_consistent =
  QCheck2.Test.make ~name:"cost: shared cache returns identical totals"
    ~count:40
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let schema = Vis_workload.Schemas.random ~rng () in
      let p = Vis_core.Problem.make schema in
      let config = random_config ~rng p in
      let d = Derived.create schema in
      let fresh = Cost.total_of d config in
      let shared = Vis_core.Problem.total p config in
      let again = Vis_core.Problem.total p config in
      Vis_util.Num.approx_equal fresh shared && shared = again)

(* ------------------------------------------------------------------ *)
(* The feature encoding: a problem of at most 62 features numbers them into
   bits and keys its memo cache by [mask land relevance].  Masks must
   mirror the symbolic configurations exactly, and mask-keyed totals must
   equal a fresh structural derivation bitwise. *)

module Problem = Vis_core.Problem
module Schemas = Vis_workload.Schemas

let checki = Alcotest.(check int)

let encoding_exn p =
  match p.Problem.encoding with
  | Some enc -> enc
  | None -> Alcotest.fail "expected a feature encoding"

let mask_exn enc config =
  match Cost.mask_of_config enc config with
  | Some m -> m
  | None -> Alcotest.fail "configuration outside the universe"

(* A valid configuration reached by random feature toggles — the states
   the searches visit. *)
let random_walk rng p =
  let features = Array.of_list p.Problem.features in
  let config = ref Config.empty in
  for _ = 0 to Array.length features do
    let f = features.(Random.State.int rng (Array.length features)) in
    if Problem.has_feature !config f then
      config := Problem.drop_feature !config f
    else if Problem.applicable p !config f then
      config := Problem.add_feature !config f
  done;
  !config

let encoded_schemas () =
  [ Schemas.two_relation (); Schemas.schema1 (); Schemas.schema2 () ]

let test_feature_bit_round_trip () =
  List.iter
    (fun schema ->
      let p = Problem.make schema in
      let enc = encoding_exn p in
      (* Bit [i] is the [i]-th feature of the problem, in order. *)
      List.iteri
        (fun i f ->
          checki "feature -> bit" (1 lsl i)
            (mask_exn enc (Problem.add_feature Config.empty f));
          checkb "bit -> feature" true
            (Config.equal
               (Problem.add_feature Config.empty f)
               (Cost.config_of_mask enc (1 lsl i))))
        p.Problem.features)
    (encoded_schemas ())

let test_mask_config_round_trip () =
  let rng = Random.State.make [| 42 |] in
  List.iter
    (fun schema ->
      let p = Problem.make schema in
      let enc = encoding_exn p in
      let n = List.length p.Problem.features in
      (* Arbitrary masks: decode then re-encode is the identity. *)
      for _ = 1 to 200 do
        let mask = Random.State.int rng (1 lsl n) in
        checkb "mask -> config -> mask" true
          (Cost.mask_of_config enc (Cost.config_of_mask enc mask) = Some mask)
      done;
      (* Walked configurations: encode then decode is the identity. *)
      for _ = 1 to 50 do
        let config = random_walk rng p in
        checkb "config -> mask -> config" true
          (Config.equal config (Cost.config_of_mask enc (mask_exn enc config)))
      done;
      (* A configuration outside the universe has no mask. *)
      let foreign = Config.add_view Config.empty (Bitset.of_int 0x155555) in
      checkb "foreign view unmappable" true
        (Cost.mask_of_config enc foreign = None))
    [ Schemas.two_relation (); Schemas.schema1 () ]

(* Set-based containment: every view and index of [a] appears in [b]. *)
let config_subset a b =
  List.for_all (fun v -> Config.has_view b v) (Config.views a)
  && List.for_all
       (fun (ix : Element.index) ->
         Config.has_index b ix.Element.ix_elem ix.Element.ix_attr)
       (Config.indexes a)

let test_subset_law () =
  let rng = Random.State.make [| 7 |] in
  List.iter
    (fun schema ->
      let p = Problem.make schema in
      let enc = encoding_exn p in
      for _ = 1 to 300 do
        let ca = random_walk rng p and cb = random_walk rng p in
        let ma = mask_exn enc ca and mb = mask_exn enc cb in
        checkb "mask subset = set containment" (config_subset ca cb)
          (ma land lnot mb = 0)
      done)
    (encoded_schemas ())

let test_has_feature_has_view () =
  let rng = Random.State.make [| 11 |] in
  let p = Problem.make (schema1 ()) in
  let enc = encoding_exn p in
  for _ = 1 to 100 do
    let config = random_walk rng p in
    let mask = mask_exn enc config in
    List.iteri
      (fun i f ->
        checkb "has_feature = mask bit"
          (mask land (1 lsl i) <> 0)
          (Problem.has_feature config f))
      p.Problem.features
  done

let test_applicable_and_drop_closure () =
  let rng = Random.State.make [| 13 |] in
  List.iter
    (fun schema ->
      let p = Problem.make schema in
      for _ = 1 to 100 do
        let config = random_walk rng p in
        List.iter
          (fun f ->
            if Problem.applicable p config f then begin
              let added = Problem.add_feature config f in
              checkb "add stays valid" true (Problem.valid_config p added);
              checkb "add contains parent" true (config_subset config added)
            end;
            (* Dropping a feature also drops its closure (a view takes its
               indexes with it), and the result is still valid. *)
            if Problem.has_feature config f then begin
              let dropped = Problem.drop_feature config f in
              checkb "drop stays valid" true (Problem.valid_config p dropped);
              checkb "drop is below parent" true (config_subset dropped config);
              match f with
              | Problem.F_view w ->
                  checkb "dropped view gone" false (Config.has_view dropped w);
                  checkb "no orphan indexes" true
                    (Config.indexes_on dropped (Element.View w) = [])
              | Problem.F_index _ | Problem.F_compress _ -> ()
            end)
          p.Problem.features
      done)
    [ Schemas.two_relation (); Schemas.schema1 () ]

let test_too_large_fallback () =
  let p = Problem.make (Schemas.chain ~n:7 ()) in
  checkb ">62 features really" true (List.length p.Problem.features > 62);
  checkb "no encoding past 62 features" true (Option.is_none p.Problem.encoding);
  (* The raw constructor reports the size in the exception. *)
  (match
     Cost.make_encoding p.Problem.derived (Array.of_list p.Problem.features)
   with
  | exception Cost.Encoding_too_large n ->
      checki "exception carries the count" (List.length p.Problem.features) n
  | _ -> Alcotest.fail "make_encoding accepted > 62 features");
  let g = Vis_core.Greedy.search p in
  checkb "structural greedy works" true
    (Problem.valid_config p g.Vis_core.Greedy.best)

let test_no_sharing_disables_encoding () =
  let schema = Schemas.two_relation () in
  checkb "no-sharing ablation disables encoding" true
    (Option.is_none (Problem.make ~share_cache:false schema).Problem.encoding);
  checkb "default has encoding" true
    (Option.is_some (Problem.make schema).Problem.encoding)

let test_masked_vs_structural_totals () =
  let rng = Random.State.make [| 17 |] in
  List.iter
    (fun schema ->
      let p = Problem.make schema in
      ignore (encoding_exn p);
      let total config = Problem.total p config in
      checkb "empty total agrees" true
        (total Config.empty = Cost.total_of p.Problem.derived Config.empty);
      for _ = 1 to 60 do
        let config = random_walk rng p in
        checkb "masked = fresh structural (bitwise)" true
          (total config = Cost.total_of p.Problem.derived config)
      done)
    [ Schemas.two_relation (); Schemas.schema1 (); Schemas.chain ~n:4 () ]

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "vis_costmodel"
    [
      ( "estimators",
        [
          Alcotest.test_case "yao cases" `Quick test_yao_cases;
          Alcotest.test_case "Y_WAP cases" `Quick test_ywap_cases;
        ]
        @ qt [ prop_yao_bounded; prop_ywap_bounded ] );
      ( "elements and configs",
        [
          Alcotest.test_case "element stats" `Quick test_element_stats;
          Alcotest.test_case "config operations" `Quick test_config_ops;
          Alcotest.test_case "restrict and space" `Quick test_config_restrict_space;
        ] );
      ( "cost engine",
        [
          Alcotest.test_case "zero deltas" `Quick test_zero_deltas_zero_cost;
          Alcotest.test_case "base insertions" `Quick test_base_insert_cost;
          Alcotest.test_case "plans use views" `Quick test_primary_ins_plan_uses_view;
          Alcotest.test_case "saved-delta reuse" `Quick test_saved_delta_reuse;
          Alcotest.test_case "key-index locate" `Quick test_del_uses_key_index;
          Alcotest.test_case "protected updates" `Quick test_upd_no_index_maintenance;
          Alcotest.test_case "save charged" `Quick test_supporting_view_save_charged;
          Alcotest.test_case "total structure" `Quick test_total_structure;
          Alcotest.test_case "index maintenance" `Quick test_index_maint_cost;
        ]
        @ qt
            [
              prop_eval_monotone;
              prop_total_nonnegative;
              prop_shared_cache_consistent;
            ] );
      ( "round trips",
        [
          Alcotest.test_case "feature <-> bit" `Quick
            test_feature_bit_round_trip;
          Alcotest.test_case "mask <-> config" `Quick
            test_mask_config_round_trip;
        ] );
      ( "bit laws",
        [
          Alcotest.test_case "subset vs set containment" `Quick
            test_subset_law;
          Alcotest.test_case "has_feature / has_view" `Quick
            test_has_feature_has_view;
          Alcotest.test_case "applicable / drop closure" `Quick
            test_applicable_and_drop_closure;
        ] );
      ( "fallbacks",
        [
          Alcotest.test_case "> 62 features" `Quick test_too_large_fallback;
          Alcotest.test_case "escape hatches" `Quick
            test_no_sharing_disables_encoding;
        ] );
      ( "evaluator agreement",
        [
          Alcotest.test_case "fast = slow, bitwise" `Quick
            test_masked_vs_structural_totals;
        ] );
    ]
