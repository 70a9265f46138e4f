(* Tests for vis_core: candidate enumeration (against the paper's own
   example), the expression DAG, exhaustive search, A* (optimality against
   exhaustive, both fixed and randomized), the greedy heuristic, the rules
   of thumb, the space sweep, and the sensitivity analysis. *)

module Bitset = Vis_util.Bitset
module Schema = Vis_catalog.Schema
module Element = Vis_costmodel.Element
module Config = Vis_costmodel.Config
module Problem = Vis_core.Problem
module Exhaustive = Vis_core.Exhaustive
module Astar = Vis_core.Astar
module Greedy = Vis_core.Greedy
module Rules = Vis_core.Rules
module Space = Vis_core.Space

let checkb = Alcotest.(check bool)

let checki = Alcotest.(check int)

let checkf msg = Alcotest.(check (float 1e-6)) msg

let schema1 () = Vis_workload.Schemas.schema1 ()

(* ------------------------------------------------------------------ *)
(* Candidates: the paper's Section 2.2 example has C = {RS, ST', RT', T'}. *)

let test_candidate_views_paper_example () =
  let p = Problem.make (schema1 ()) in
  let names =
    List.map
      (fun w -> Element.name (schema1 ()) (Element.View w))
      p.Problem.candidate_views
  in
  Alcotest.(check (list string)) "paper's candidate set"
    [ "\xcf\x83T"; "RS"; "R\xcf\x83T"; "S\xcf\x83T" ]
    names;
  (* Bare base relations without a selection are not candidates. *)
  checkb "no bare R" true
    (not (List.exists (Bitset.equal (Bitset.singleton 0)) p.Problem.candidate_views));
  (* connected_only drops the cross-product node RT'. *)
  let pc = Problem.make ~connected_only:true (schema1 ()) in
  checki "connected only" 3 (List.length pc.Problem.candidate_views)

let test_candidate_indexes () =
  let s = schema1 () in
  let p = Problem.make s in
  (* Base R: key R0 (receives deletions) and join attribute R1. *)
  let base_r = Problem.candidate_indexes_on p (Element.Base 0) in
  Alcotest.(check (list string)) "base R attrs" [ "R0"; "R1" ]
    (List.map (fun ix -> ix.Element.ix_attr.Element.a_name) base_r);
  (* Base T: key+join T0, selection T1. *)
  let base_t = Problem.candidate_indexes_on p (Element.Base 2) in
  Alcotest.(check (list string)) "base T attrs" [ "T0"; "T1" ]
    (List.map (fun ix -> ix.Element.ix_attr.Element.a_name) base_t);
  (* Primary view: the keys of all three relations, no crossing joins. *)
  let v = Problem.candidate_indexes_on p (Element.View (Schema.all_relations s)) in
  Alcotest.(check (list string)) "primary keys" [ "R0"; "S0"; "T0" ]
    (List.map (fun ix -> ix.Element.ix_attr.Element.a_name) v);
  (* ST': keys S0, T0, plus the crossing join attribute S1. *)
  let st = Problem.candidate_indexes_on p (Element.View (Bitset.of_list [ 1; 2 ])) in
  Alcotest.(check (list string)) "ST' attrs" [ "S0"; "T0"; "S1" ]
    (List.map (fun ix -> ix.Element.ix_attr.Element.a_name) st)

let test_no_key_candidates_without_delupd () =
  let s =
    Schema.with_deltas (schema1 ())
      (List.init 3 (fun _ -> { Schema.n_ins = 100.; n_del = 0.; n_upd = 0. }))
  in
  let p = Problem.make s in
  let base_r = Problem.candidate_indexes_on p (Element.Base 0) in
  Alcotest.(check (list string)) "no key candidate" [ "R1" ]
    (List.map (fun ix -> ix.Element.ix_attr.Element.a_name) base_r)

let test_feature_order () =
  let p = Problem.make (schema1 ()) in
  (* Every view feature appears before any index on it. *)
  let seen_views = Hashtbl.create 8 in
  List.iter
    (function
      | Problem.F_view w -> Hashtbl.replace seen_views (Bitset.to_int w) ()
      | Problem.F_index ix -> (
          match ix.Element.ix_elem with
          | Element.View w
            when not (Bitset.equal w (Schema.all_relations (schema1 ()))) ->
              checkb "view precedes its indexes" true
                (Hashtbl.mem seen_views (Bitset.to_int w))
          | Element.View _ | Element.Base _ -> ())
      | Problem.F_compress _ -> ())
    p.Problem.features;
  checkb "valid empty config" true (Problem.valid_config p Config.empty);
  let bogus = Config.make ~views:[ Schema.all_relations (schema1 ()) ] ~indexes:[] in
  checkb "primary view not a candidate" false (Problem.valid_config p bogus)

(* ------------------------------------------------------------------ *)
(* Expression DAG (Figure 3). *)

let test_dag () =
  let p = Problem.make (schema1 ()) in
  let nodes = Vis_core.Dag.build p in
  checki "five nodes: T', RS, RT', ST', V" 5 (List.length nodes);
  let v = List.find (fun n -> n.Vis_core.Dag.n_name = "V") nodes in
  (* V derives as R ⋈ ST', S ⋈ RT', RS ⋈ T'. *)
  checki "three derivations of V" 3 (List.length v.Vis_core.Dag.n_derivations);
  let sigma_t =
    List.find (fun n -> n.Vis_core.Dag.n_name = "\xcf\x83T") nodes
  in
  checki "leaves have no derivations" 0 (List.length sigma_t.Vis_core.Dag.n_derivations)

(* ------------------------------------------------------------------ *)
(* Exhaustive search. *)

let small_problem () = Problem.make (Vis_workload.Schemas.two_relation ())

let test_exhaustive_counts () =
  let p = small_problem () in
  (* One candidate view (σS); indexes: R:{R0,R1}, S:{S0}, V:{R0,S0},
     σS:{S0}.  View off: 2^5; view on: 2^6 => 96... verified against
     count_states and a hand enumeration below. *)
  let expected = Exhaustive.count_states p in
  let r = Exhaustive.search p in
  checkf "states visited = predicted" expected (float_of_int r.Exhaustive.states);
  checki "view states" 2 r.Exhaustive.view_states;
  checkb "found a finite optimum" true (Float.is_finite r.Exhaustive.best_cost)

let test_exhaustive_too_large () =
  let p = Problem.make (schema1 ()) in
  match Exhaustive.search ~max_states:10 p with
  | exception Exhaustive.Too_large n -> checkb "reports size" true (n > 10.)
  | _ -> Alcotest.fail "expected Too_large"

let test_best_worst_indexes () =
  let p = Problem.make (schema1 ()) in
  let views = [ Bitset.of_list [ 1; 2 ] ] in
  let _, best, _ = Exhaustive.best_indexes_for_views p views in
  let _, worst, _ = Exhaustive.worst_indexes_for_views p views in
  checkb "best <= worst" true (best <= worst);
  checkb "strictly better here" true (best < worst)

let test_per_view_set_sorted () =
  let p = small_problem () in
  let rows = Exhaustive.per_view_set p in
  checki "2 view sets" 2 (List.length rows);
  let costs = List.map (fun (_, lo, _) -> lo) rows in
  checkb "sorted by best cost" true (List.sort compare costs = costs);
  List.iter (fun (_, lo, hi) -> checkb "lo <= hi" true (lo <= hi)) rows

(* ------------------------------------------------------------------ *)
(* A* optimality. *)

let test_astar_matches_exhaustive_fixed () =
  List.iter
    (fun schema ->
      let p = Problem.make schema in
      let ex = Exhaustive.search p in
      let a = Astar.search p in
      checkb "same optimum" true
        (Vis_util.Num.approx_equal ~eps:1e-9 ex.Exhaustive.best_cost
           a.Astar.best_cost);
      checkb "A* expands fewer states" true
        (float_of_int a.Astar.stats.Astar.expanded
        <= a.Astar.stats.Astar.exhaustive_states))
    [
      Vis_workload.Schemas.two_relation ();
      Vis_workload.Schemas.two_relation ~sel_s:0.5 ~del_frac:0.01 ();
      Vis_workload.Schemas.two_relation ~card_r:500. ~card_s:2000. ~mem_pages:5 ();
      Vis_workload.Schemas.schema1 ~del_frac:0. ~ins_frac:0.02 ();
    ]

let test_astar_schema1 () =
  (* Golden: verified once against full exhaustive enumeration (622080
     states, ~40 s), pinned here so regressions surface instantly. *)
  let p = Problem.make (schema1 ()) in
  let a = Astar.search p in
  Alcotest.(check (float 0.5)) "schema1 optimal cost" 4379.9 a.Astar.best_cost;
  let views = Config.views a.Astar.best in
  checkb "materializes σT" true
    (List.exists (Bitset.equal (Bitset.singleton 2)) views);
  checkb "materializes ST'" true
    (List.exists (Bitset.equal (Bitset.of_list [ 1; 2 ])) views)

let prop_astar_optimal_random =
  QCheck2.Test.make ~name:"astar: optimal on random schemas" ~count:25
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let schema = Vis_workload.Schemas.random ~rng () in
      let p = Problem.make schema in
      if Exhaustive.count_states p > 25_000. then true
      else begin
        let ex = Exhaustive.search p in
        let a = Astar.search p in
        Vis_util.Num.approx_equal ~eps:1e-9 ex.Exhaustive.best_cost a.Astar.best_cost
      end)

(* Table 2 of the benchmark, pinned: the A* optimum (bit-exact), expanded
   and generated states, and cost evaluations of each schema, identical at
   jobs 1 and 4.  The values are the [table2] block of BENCH_vis.json; any
   change to the search, the heuristic or the cost model that moves them
   must re-record that file too. *)
let test_astar_table2_pinned () =
  let module Schemas = Vis_workload.Schemas in
  let cases =
    [
      ("2 rel, 1 sel", Schemas.two_relation (), 0x1.c000000000000p+9, 9, 10, 19);
      ( "2 rel, sel 50%", Schemas.two_relation ~sel_s:0.5 (),
        0x1.6f80000000000p+10, 6, 7, 12 );
      ( "3 rel (S1) no del", Schemas.schema1 ~del_frac:0. (),
        0x1.10bdd946fdd94p+11, 358, 359, 695 );
      ("3 rel Schema 1", schema1 (), 0x1.11beeca37eecap+12, 439, 440, 759);
      ( "3 rel Schema 2", Schemas.schema2 (),
        0x1.f637651bf7652p+10, 420, 421, 737 );
      ( "4 rel chain", Schemas.chain ~n:4 (),
        0x1.3a00000000000p+14, 20267, 20268, 37382 );
    ]
  in
  List.iter
    (fun (name, schema, cost, expanded, generated, evaluations) ->
      List.iter
        (fun jobs ->
          let a = Astar.search ~jobs (Problem.make schema) in
          let label what = Printf.sprintf "%s jobs=%d %s" name jobs what in
          checkb (label "optimal cost bitwise") true
            (Int64.equal (Int64.bits_of_float cost)
               (Int64.bits_of_float a.Astar.best_cost));
          checki (label "expanded") expanded a.Astar.stats.Astar.expanded;
          checki (label "generated") generated a.Astar.stats.Astar.generated;
          checki (label "cost evaluations") evaluations
            (Vis_core.Search_stats.evaluated a.Astar.search_stats))
        [ 1; 4 ])
    cases

let test_astar_budget () =
  let p = Problem.make (schema1 ()) in
  match Astar.search ~max_expanded:3 p with
  | exception Astar.Budget_exceeded st -> checki "stopped at 4" 4 st.Astar.expanded
  | _ -> Alcotest.fail "expected Budget_exceeded"

(* ------------------------------------------------------------------ *)
(* Greedy, rules, space, sensitivity. *)

let test_greedy_sanity () =
  let p = Problem.make (schema1 ()) in
  let g = Greedy.search p in
  let empty_cost = Problem.total p Config.empty in
  checkb "greedy no worse than nothing" true (g.Greedy.best_cost <= empty_cost);
  let a = Astar.search p in
  checkb "greedy no better than optimal" true
    (g.Greedy.best_cost >= a.Astar.best_cost -. 1e-6);
  (* Steps strictly improve. *)
  let rec decreasing prev = function
    | [] -> true
    | s :: rest -> s.Greedy.s_cost_after < prev && decreasing s.Greedy.s_cost_after rest
  in
  checkb "steps improve" true (decreasing empty_cost g.Greedy.steps)

let test_greedy_space_budget () =
  let p = Problem.make (schema1 ()) in
  let g = Greedy.search ~space_budget:15. p in
  checkb "budget respected" true
    (Config.space p.Problem.derived g.Greedy.best <= 15.)

let test_rules_advise () =
  let p = Problem.make (schema1 ()) in
  let a = Rules.advise p in
  checkb "valid configuration" true (Problem.valid_config p a.Rules.a_config);
  let cost = Problem.total p a.Rules.a_config in
  let empty_cost = Problem.total p Config.empty in
  checkb "advice helps" true (cost < empty_cost);
  let optimal = (Astar.search p).Astar.best_cost in
  checkb "advice within 2x of optimal" true (cost <= 2. *. optimal);
  (* Every chosen decision cites at least one rule. *)
  List.iter
    (fun d ->
      if d.Rules.d_chosen then checkb "rule cited" true (d.Rules.d_rule <> "-"))
    a.Rules.a_decisions

let test_rules_indexed_gate () =
  (* The index-join branch of Benefit_v must be gated on probe-friendliness:
     a cross-product node like RσT is enormous, so probing it can never be
     cheaper than scanning and its indexed benefit must be zero. *)
  let p = Problem.make (schema1 ()) in
  let rt = Bitset.of_list [ 0; 2 ] in
  checkf "cross-product indexed benefit gated" 0.
    (Rules.benefit_view p ~chosen:[] ~indexed:true rt);
  (* A selective view keeps a positive indexed benefit. *)
  let st = Bitset.of_list [ 1; 2 ] in
  checkb "selective view indexed benefit allowed" true
    (Rules.benefit_view p ~chosen:[] ~indexed:true st >= 0.)

let test_rules_formulas () =
  let p = Problem.make (schema1 ()) in
  let st = Bitset.of_list [ 1; 2 ] in
  (* E(ST') with nothing chosen is {S, T}; with σT chosen it uses σT. *)
  let e0 = Rules.elements p ~chosen:[] st in
  checki "two elements" 2 (List.length e0);
  let e1 = Rules.elements p ~chosen:[ Bitset.singleton 2 ] st in
  checkb "uses σT" true
    (List.exists
       (fun e ->
         match e with
         | Element.View w -> Bitset.equal w (Bitset.singleton 2)
         | Element.Base _ -> false)
       e1);
  (* Rule 5.1's premise on schema 1: P(ST') << P(S)+P(T). *)
  let benefit = Rules.benefit_view p ~chosen:[] ~indexed:false st in
  checkb "selective view benefit positive" true (benefit > 0.);
  (* A cross-product node has a hugely negative non-indexed benefit. *)
  let rt = Bitset.of_list [ 0; 2 ] in
  checkb "cross product penalized" true
    (Rules.benefit_view p ~chosen:[] ~indexed:false rt < 0.)

let test_space_sweep () =
  (* A deletion-free Schema 1 keeps the index candidate set small enough
     for the full enumeration to stay fast; the bench runs the full one. *)
  let p = Problem.make (Vis_workload.Schemas.schema1 ~del_frac:0. ()) in
  let sw = Space.sweep p in
  (match sw.Space.sw_steps with
  | [] -> Alcotest.fail "no steps"
  | first :: _ ->
      checkf "starts at zero space" 0. first.Space.st_space;
      checkf "empty design cost" (Problem.total p Config.empty) first.Space.st_cost);
  (* Costs strictly decrease along the staircase; spaces strictly grow. *)
  let rec strictly_monotone = function
    | a :: (b :: _ as rest) ->
        a.Space.st_space < b.Space.st_space
        && a.Space.st_cost > b.Space.st_cost
        && strictly_monotone rest
    | _ -> true
  in
  checkb "staircase monotone" true (strictly_monotone sw.Space.sw_steps);
  let last = List.nth sw.Space.sw_steps (List.length sw.Space.sw_steps - 1) in
  checkf "reaches the unconstrained optimum" (Astar.search p).Astar.best_cost
    last.Space.st_cost;
  (* cost_at is the staircase. *)
  checkf "cost_at 0" (Problem.total p Config.empty) (Space.cost_at sw ~budget:0.);
  checkf "cost_at infinity" sw.Space.sw_unconstrained_cost
    (Space.cost_at sw ~budget:1e12);
  (* feature_order lists each feature once. *)
  let names = List.map fst (Space.feature_order sw) in
  checki "no duplicates" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_astar_anytime () =
  let p = Problem.make (schema1 ()) in
  (* Unlimited budget: proven optimal. *)
  let r, cert = Astar.search_budgeted p in
  checkb "proven optimal" true (cert = Astar.Optimal);
  checkf "same optimum" (Astar.search p).Astar.best_cost r.Astar.best_cost;
  (* Tiny budget: returns the greedy-or-better incumbent without raising. *)
  let r2, cert2 = Astar.search_budgeted ~max_expanded:2 p in
  checkb "not proven" false (cert2 = Astar.Optimal);
  let greedy_cost = (Greedy.search p).Greedy.best_cost in
  checkb "incumbent at least as good as greedy" true
    (r2.Astar.best_cost <= greedy_cost +. 1e-9);
  checkb "incumbent is a real configuration" true
    (Vis_util.Num.approx_equal (Problem.total p r2.Astar.best) r2.Astar.best_cost)

let test_local_search () =
  let p = Problem.make (schema1 ()) in
  let ls = Vis_core.Local_search.search p in
  let g = Greedy.search p in
  checkb "no worse than its greedy seed" true
    (ls.Vis_core.Local_search.best_cost <= g.Greedy.best_cost +. 1e-9);
  checkb "no better than optimal" true
    (ls.Vis_core.Local_search.best_cost
    >= (Astar.search p).Astar.best_cost -. 1e-6);
  checkb "valid configuration" true
    (Problem.valid_config p ls.Vis_core.Local_search.best);
  (* Seeding from empty must also find improvements. *)
  let ls0 = Vis_core.Local_search.search ~seed:Config.empty p in
  checkb "improves from empty" true
    (ls0.Vis_core.Local_search.best_cost < Problem.total p Config.empty);
  (* Space budget respected. *)
  let lsb = Vis_core.Local_search.search ~space_budget:50. p in
  checkb "budget respected" true
    (Config.space p.Problem.derived lsb.Vis_core.Local_search.best <= 50.)

let test_explain () =
  let p = Problem.make (schema1 ()) in
  let config = (Astar.search p).Astar.best in
  let report = Vis_core.Explain.explain p config in
  checkf "report total is the evaluator total" (Problem.total p config)
    report.Vis_core.Explain.r_total;
  (* Line totals sum to the report total. *)
  let sum =
    List.fold_left
      (fun acc l -> acc +. l.Vis_core.Explain.l_total)
      0. report.Vis_core.Explain.r_lines
  in
  checkf "lines sum to total" report.Vis_core.Explain.r_total sum;
  (* The rendered report mentions every maintained element. *)
  let text =
    Vis_util.Tableprint.of_json (Vis_core.Explain.report_json report)
  in
  checkb "mentions the primary view" true
    (List.exists
       (fun l -> l.Vis_core.Explain.l_element = "V")
       report.Vis_core.Explain.r_lines);
  checkb "render nonempty" true (String.length text > 200);
  let cmp =
    Vis_core.Explain.compare_designs p
      [ ("bare", Config.empty); ("opt", config) ]
  in
  checkb "comparison renders" true (String.length cmp > 50)

(* The sweep staircase must agree with a brute-force "best configuration
   within budget" on random small schemas. *)
let prop_sweep_matches_bruteforce =
  QCheck2.Test.make ~name:"space: staircase matches brute force" ~count:12
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let schema = Vis_workload.Schemas.random ~rng () in
      let p = Problem.make schema in
      if Exhaustive.count_states p > 8_000. then true
      else begin
        let sw = Space.sweep p in
        (* Collect all (space, cost) pairs and check three budgets. *)
        let all = ref [] in
        ignore
          (Exhaustive.enumerate p ~f:(fun _ ~cost ~space ->
               all := (space, cost) :: !all));
        let budgets = [ 0.; 5.; 50. ] in
        List.for_all
          (fun b ->
            let brute =
              List.fold_left
                (fun best (space, cost) ->
                  if space <= b then Float.min best cost else best)
                infinity !all
            in
            Vis_util.Num.approx_equal ~eps:1e-9 brute (Space.cost_at sw ~budget:b))
          budgets
      end)

(* ------------------------------------------------------------------ *)
(* Page-level compression as a search axis. *)

let test_compression_candidates () =
  (* Off by default: no candidates, no features, every cost bitwise equal
     to the pre-compression model. *)
  let p0 = Problem.make (schema1 ()) in
  checki "no candidates by default" 0
    (List.length (Problem.compress_candidates p0));
  let p = Problem.make ~compression:true (schema1 ()) in
  (* Always-materialized elements: the three bases and the primary view. *)
  let cands = Problem.compress_candidates p in
  checki "bases + primary view" 4 (List.length cands);
  checkb "primary view is a candidate" true
    (List.exists
       (function
         | Element.View w -> Bitset.equal w (Schema.all_relations (schema1 ()))
         | Element.Base _ -> false)
       cands);
  (* Each candidate appears exactly once as an F_compress feature. *)
  let n_feats =
    List.length
      (List.filter
         (function Problem.F_compress _ -> true | _ -> false)
         p.Problem.features)
  in
  checki "one feature per candidate" 4 n_feats;
  (* The exhaustive space grows by 2^candidates. *)
  checkf "state count scales by 2^4"
    (16. *. Exhaustive.count_states p0)
    (Exhaustive.count_states p)

let test_compression_extends_the_space () =
  (* The compression-enabled space is a superset, so its optimum can only
     improve; with the model's read discount it strictly does here. *)
  let s = Vis_workload.Schemas.two_relation () in
  let plain = Exhaustive.search (Problem.make s) in
  let comp = Exhaustive.search (Problem.make ~compression:true s) in
  checkb "superset space never hurts" true
    (comp.Exhaustive.best_cost <= plain.Exhaustive.best_cost +. 1e-9);
  checkb "the optimum compresses something" true
    (Config.compress comp.Exhaustive.best <> []);
  (* Same problem, same evaluator cache: a config that differs only in its
     compression set must not alias to the uncompressed cost. *)
  let p = Problem.make ~compression:true s in
  let base = Config.empty in
  let target = List.hd (Problem.compress_candidates p) in
  let compressed = Config.add_compress base target in
  checkb "memo distinguishes compression" true
    (Problem.total p base <> Problem.total p compressed)

let test_astar_matches_exhaustive_compression () =
  List.iter
    (fun schema ->
      let p = Problem.make ~compression:true schema in
      let ex = Exhaustive.search p in
      let a = Astar.search p in
      checkb "same optimum with compression" true
        (Vis_util.Num.approx_equal ~eps:1e-9 ex.Exhaustive.best_cost
           a.Astar.best_cost))
    [
      Vis_workload.Schemas.two_relation ();
      Vis_workload.Schemas.two_relation ~sel_s:0.5 ~del_frac:0.01 ();
      Vis_workload.Schemas.two_relation ~card_r:500. ~card_s:2000. ~mem_pages:5 ();
    ]

let prop_astar_optimal_random_compression =
  QCheck2.Test.make ~name:"astar: optimal with compression on random schemas"
    ~count:15
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let schema = Vis_workload.Schemas.random ~rng () in
      let p = Problem.make ~compression:true schema in
      if Exhaustive.count_states p > 25_000. then true
      else begin
        let ex = Exhaustive.search p in
        let a = Astar.search p in
        Vis_util.Num.approx_equal ~eps:1e-9 ex.Exhaustive.best_cost
          a.Astar.best_cost
      end)

let test_heuristics_handle_compression () =
  let p = Problem.make ~compression:true (schema1 ()) in
  let empty_cost = Problem.total p Config.empty in
  let a = Astar.search p in
  let g = Greedy.search p in
  checkb "greedy valid" true (Problem.valid_config p g.Greedy.best);
  checkb "greedy between optimal and empty" true
    (g.Greedy.best_cost >= a.Astar.best_cost -. 1e-6
    && g.Greedy.best_cost <= empty_cost);
  let ls = Vis_core.Local_search.search p in
  checkb "local search valid" true
    (Problem.valid_config p ls.Vis_core.Local_search.best);
  checkb "local search no worse than greedy" true
    (ls.Vis_core.Local_search.best_cost <= g.Greedy.best_cost +. 1e-9);
  checkb "local search no better than optimal" true
    (ls.Vis_core.Local_search.best_cost >= a.Astar.best_cost -. 1e-6)

let test_sensitivity () =
  let make rate =
    Vis_workload.Schemas.two_relation ~ins_frac:rate ~del_frac:(rate /. 10.) ()
  in
  let series =
    Vis_core.Sensitivity.sweep ~make_schema:make ~values:[ 0.001; 0.01; 0.1 ]
  in
  checki "three series" 3 (List.length series);
  List.iter
    (fun s ->
      List.iter
        (fun (actual, ratio) ->
          checkb "ratio >= 1" true (ratio >= 1. -. 1e-9);
          (* The design chosen for this estimate is optimal at it. *)
          if Vis_util.Num.approx_equal actual s.Vis_core.Sensitivity.se_estimate
          then checkb "ratio 1 at own estimate" true (ratio <= 1. +. 1e-9))
        s.Vis_core.Sensitivity.se_ratios)
    series

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "vis_core"
    [
      ( "candidates",
        [
          Alcotest.test_case "paper example" `Quick test_candidate_views_paper_example;
          Alcotest.test_case "candidate indexes" `Quick test_candidate_indexes;
          Alcotest.test_case "keys need del/upd" `Quick test_no_key_candidates_without_delupd;
          Alcotest.test_case "feature order" `Quick test_feature_order;
          Alcotest.test_case "expression dag" `Quick test_dag;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "state counts" `Quick test_exhaustive_counts;
          Alcotest.test_case "too large" `Quick test_exhaustive_too_large;
          Alcotest.test_case "best/worst indexes" `Quick test_best_worst_indexes;
          Alcotest.test_case "per view set" `Quick test_per_view_set_sorted;
        ] );
      ( "astar",
        [
          Alcotest.test_case "fixed schemas" `Slow test_astar_matches_exhaustive_fixed;
          Alcotest.test_case "schema1 golden" `Quick test_astar_schema1;
          Alcotest.test_case "budget" `Quick test_astar_budget;
          Alcotest.test_case "table 2 pinned at jobs 1 and 4" `Slow
            test_astar_table2_pinned;
        ]
        @ qt [ prop_astar_optimal_random ] );
      ( "heuristics and studies",
        [
          Alcotest.test_case "greedy sanity" `Quick test_greedy_sanity;
          Alcotest.test_case "greedy space budget" `Quick test_greedy_space_budget;
          Alcotest.test_case "rules advise" `Quick test_rules_advise;
          Alcotest.test_case "rules formulas" `Quick test_rules_formulas;
          Alcotest.test_case "rules indexed gate" `Quick test_rules_indexed_gate;
          Alcotest.test_case "anytime A*" `Quick test_astar_anytime;
          Alcotest.test_case "local search" `Quick test_local_search;
          Alcotest.test_case "explain" `Quick test_explain;
          Alcotest.test_case "space sweep" `Slow test_space_sweep;
          Alcotest.test_case "sensitivity" `Quick test_sensitivity;
        ]
        @ qt [ prop_sweep_matches_bruteforce ] );
      ( "compression",
        [
          Alcotest.test_case "candidates and state count" `Quick
            test_compression_candidates;
          Alcotest.test_case "extends the space" `Quick
            test_compression_extends_the_space;
          Alcotest.test_case "astar matches exhaustive" `Quick
            test_astar_matches_exhaustive_compression;
          Alcotest.test_case "heuristics handle the axis" `Quick
            test_heuristics_handle_compression;
        ]
        @ qt [ prop_astar_optimal_random_compression ] );
    ]
