(* Reproduction harness: regenerates every experimental table and figure of
   "Physical Database Design for Data Warehouses" (Labio, Quass & Adelberg,
   ICDE 1997), plus the extensions documented in DESIGN.md.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- quick   -- skip the full exhaustive pass

   The section tags ([Table 2], [Figure 6], ...) match DESIGN.md's
   per-experiment index; EXPERIMENTS.md records paper-vs-measured notes. *)

module Bitset = Vis_util.Bitset
module T = Vis_util.Tableprint
module Schema = Vis_catalog.Schema
module Derived = Vis_catalog.Derived
module Element = Vis_costmodel.Element
module Config = Vis_costmodel.Config
module Cost = Vis_costmodel.Cost
module Problem = Vis_core.Problem
module Exhaustive = Vis_core.Exhaustive
module Astar = Vis_core.Astar
module Schemas = Vis_workload.Schemas

let quick =
  Array.exists (fun a -> a = "quick") Sys.argv

let section name =
  Printf.printf "\n================ %s ================\n%!" name

(* Machine-readable mirror of the run, written to BENCH_vis.json at the end
   so successive runs accumulate a trajectory (state counts, cache hit
   rates, exact I/O and sync counts) that can be diffed mechanically. *)
module Json = Vis_util.Json

let bench_json : (string * Json.t) list ref = ref []

(* A study's report is one JSON value: printed as tables here, and kept
   under [key] for BENCH_vis.json. *)
let record key v =
  print_string (T.of_json ~title:key v);
  print_newline ();
  bench_json := !bench_json @ [ (key, v) ]

let describe schema config = Config.describe schema config

(* The relation sets of Schema 1, by name. *)
let set_st = Bitset.of_list [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* [Figure 5] The experiment schemas. *)

let figure5 () =
  section "[Figure 5] Experiment schemas";
  List.iter
    (fun (name, schema) ->
      Printf.printf "%s:\n%s\n" name (Vis_catalog.Dsl.to_string schema))
    [ ("Schema 1", Schemas.schema1 ()); ("Schema 2", Schemas.schema2 ()) ]

(* ------------------------------------------------------------------ *)
(* [Table 2] A* versus exhaustive search: states considered and pruning.
   Exhaustive is actually run when its space is small enough; for larger
   instances its size is reported analytically (the paper's comparison is
   about state counts; A*'s optimality is verified in the test suite).  The
   search runs at jobs 1: concurrent domains can both miss on one cache key,
   so the recorded cache counters are exact only on one domain. *)

let table2_cases () =
  [
    ("2 rel, 1 sel", Schemas.two_relation ());
    ("2 rel, sel 50%", Schemas.two_relation ~sel_s:0.5 ());
    ("3 rel (S1) no del", Schemas.schema1 ~del_frac:0. ());
    ("3 rel Schema 1", Schemas.schema1 ());
    ("3 rel Schema 2", Schemas.schema2 ());
    ("4 rel chain", Schemas.chain ~n:4 ());
  ]

let table2 () =
  section "[Table 2] A* vs exhaustive search";
  let rows =
    List.map
      (fun (name, schema) ->
        let p = Problem.make schema in
        let a = Astar.search ~jobs:1 p in
        let ex_states = a.Astar.stats.Astar.exhaustive_states in
        let expanded = a.Astar.stats.Astar.expanded in
        (* null when exhaustive was skipped (quick mode / too large):
           "not checked" is not the same as "disagreed" *)
        let agreed =
          if ex_states <= 700_000. && not quick then begin
            let ex = Exhaustive.search ~max_states:1_000_000 p in
            assert (
              Vis_util.Num.approx_equal ~eps:1e-9 ex.Exhaustive.best_cost
                a.Astar.best_cost);
            Json.Bool true
          end
          else Json.Null
        in
        Json.Obj
          [
            ("schema", Json.String name);
            ("features", Json.Int (List.length p.Problem.features));
            ("exhaustive_states", Json.Float ex_states);
            ("expanded", Json.Int expanded);
            ( "pruned_frac",
              Json.Float (1. -. (float_of_int expanded /. ex_states)) );
            ("optimal_cost", Json.Float a.Astar.best_cost);
            ("exhaustive_agreed", agreed);
            ("search", Vis_core.Search_stats.to_json a.Astar.search_stats);
            ("cache", Cost.cache_stats_json p.Problem.cache);
          ])
      (table2_cases ())
  in
  record "table2" (Json.List rows);
  print_endline
    "(exhaustive_agreed: true = exhaustive was run and agreed with A*;\n\
    \ - = the space size was computed analytically)"

(* ------------------------------------------------------------------ *)
(* One full enumeration of Schema 1 feeds Figure 4 (per-view-set cost
   ranges) and the low-update half of Figures 10/11 (the space sweep). *)

let figure4 () =
  section "[Figure 4] Update cost per view set (best/worst index set), Schema 1";
  let schema = Schemas.schema1 () in
  let p = Problem.make schema in
  let rows = Exhaustive.per_view_set p in
  let tbl = T.create [ "view set"; "best cost"; "worst cost"; "worst/best" ] in
  List.iter
    (fun (views, lo, hi) ->
      let name =
        match views with
        | [] -> "(none)"
        | vs ->
            String.concat ","
              (List.map (fun w -> Element.name schema (Element.View w)) vs)
      in
      T.add_row tbl
        [ name; T.fmt_compact lo; T.fmt_compact hi; T.fmt_float (hi /. lo) ])
    rows;
  T.print tbl;
  let costs = List.map (fun (_, lo, _) -> lo) rows in
  let best = List.fold_left Float.min infinity costs in
  let near = List.length (List.filter (fun c -> c <= 1.10 *. best) costs) in
  Printf.printf
    "%d of %d view sets are within 10%% of the optimum, and index choice moves\n\
     each view set by the worst/best factor above — both observations of the paper.\n"
    near (List.length costs)

(* ------------------------------------------------------------------ *)
(* [Figure 6] Rule 5.1: materialize selective supporting views.
   We sweep P(ST')/(P(S)+P(T)) by scaling the S–T join selectivity and plot
   the cost ratio of the best no-ST' design over the best with-ST' design
   (index sets optimized on both sides, views otherwise fixed). *)

let ratio_with_without schema =
  let p = Problem.make schema in
  let _, without, _ = Exhaustive.best_indexes_for_views p [] in
  let _, with_st, _ = Exhaustive.best_indexes_for_views p [ set_st ] in
  without /. with_st

let figure6 () =
  section "[Figure 6] Rule 5.1 — cost ratio vs P(ST')/(P(S)+P(T))";
  let tbl =
    T.create [ "P(ST')/(P(S)+P(T))"; "cost ratio (no ST' / with ST')" ]
  in
  List.iter
    (fun scale ->
      (* f2 = scale/T(T) makes T(ST') = scale · T(S) · σ.  Per the paper's
         methodology the other rule's parameters are pinned: no deletions
         (Rule 5.2 satisfied), a healthy insertion stream. *)
      let schema =
        Schemas.schema1 ~ins_frac:0.03 ~del_frac:0.
          ~sel_join_t:(scale /. 10_000.) ()
      in
      let d = Derived.create schema in
      let x =
        Derived.view_pages d set_st
        /. (Derived.base_pages d 1 +. Derived.base_pages d 2)
      in
      T.add_row tbl [ T.fmt_float ~digits:3 x; T.fmt_float (ratio_with_without schema) ])
    [ 0.5; 1.; 2.; 4.; 6.; 8.; 10. ];
  T.print tbl;
  print_endline
    "Ratios above 1.0 favour materializing ST'; the advantage shrinks as the\n\
     view grows relative to its elements (Rule 5.1)."

(* ------------------------------------------------------------------ *)
(* [Figure 7] Rule 5.2: views with no deletions or updates.
   P(ST')/(P(S)+P(T)) pinned near 0.5; the deletion rate to S and T grows. *)

let figure7 () =
  section "[Figure 7] Rule 5.2 — cost ratio vs deletion rate to S and T";
  let tbl = T.create [ "D/T(V) on S,T"; "cost ratio (no ST' / with ST')" ] in
  List.iter
    (fun del ->
      (* Rule 5.1's premise is pinned favourable (P(ST') ≈ half of
         P(S)+P(T)); only the deletion rate to S and T varies. *)
      let base =
        Schemas.schema1 ~ins_frac:0.03 ~sel_join_t:(5. /. 10_000.) ()
      in
      let deltas =
        [
          { Schema.n_ins = 2700.; n_del = 0.; n_upd = 0. };
          { Schema.n_ins = 900.; n_del = del *. 30_000.; n_upd = 0. };
          { Schema.n_ins = 300.; n_del = del *. 10_000.; n_upd = 0. };
        ]
      in
      let schema = Schema.with_deltas base deltas in
      T.add_row tbl
        [ Printf.sprintf "%.3f%%" (100. *. del); T.fmt_float (ratio_with_without schema) ])
    [ 0.; 0.001; 0.0025; 0.005; 0.01; 0.02 ];
  T.print tbl;
  print_endline
    "The benefit of ST' decays as deletions to its base relations grow (Rule 5.2)."

(* ------------------------------------------------------------------ *)
(* [Figure 8] Rule 5.3: absolute size does not matter.
   Everything (cardinalities and deltas) scales together; memory is fixed. *)

let figure8 () =
  section "[Figure 8] Rule 5.3 — scale invariance (fixed memory)";
  let tbl =
    T.create
      [ "scale"; "cost without ST'"; "cost with ST'"; "ratio" ]
  in
  List.iter
    (fun scale ->
      let schema = Schemas.schema1 ~base_card:(10_000. *. scale) () in
      let p = Problem.make schema in
      let _, without, _ = Exhaustive.best_indexes_for_views p [] in
      let _, with_st, _ = Exhaustive.best_indexes_for_views p [ set_st ] in
      T.add_row tbl
        [
          Printf.sprintf "%.2fx" scale;
          T.fmt_compact without;
          T.fmt_compact with_st;
          T.fmt_float (without /. with_st);
        ])
    [ 0.25; 0.5; 1.; 2.; 4.; 8. ];
  T.print tbl;
  print_endline
    "The with/without decision is essentially unchanged across an order of\n\
     magnitude of database sizes (Rule 5.3: size does not matter)."

(* ------------------------------------------------------------------ *)
(* [Figure 9] Rule 5.4: the insertion rate does not matter when there are
   no deletions or updates — but does when there are. *)

let figure9 () =
  section "[Figure 9] Rule 5.4 — insertion rate, with and without deletions";
  let tbl =
    T.create
      [ "insert frac"; "ratio (D=U=0)"; "ratio (D=I/100)" ]
  in
  List.iter
    (fun ins ->
      let no_del = Schemas.schema1 ~ins_frac:ins ~del_frac:0. () in
      let with_del = Schemas.schema1 ~ins_frac:ins ~del_frac:(ins /. 100.) () in
      T.add_row tbl
        [
          Printf.sprintf "%.2f%%" (100. *. ins);
          T.fmt_float (ratio_with_without no_del);
          T.fmt_float (ratio_with_without with_del);
        ])
    [ 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05 ];
  T.print tbl;
  print_endline
    "With no deletions the ratio stays flat in the insertion rate; with even\n\
     1%-of-insertions deletions the rate starts to matter (Rule 5.4)."

(* ------------------------------------------------------------------ *)
(* [Figure 10] and [Figure 11]: the space-constrained study under a low and
   a high update load. *)

let space_study name schema =
  let p = Problem.make schema in
  let sw = Vis_core.Space.sweep ~max_states:1_200_000 p in
  Printf.printf
    "\n%s: base relations %.0f pages, unconstrained optimum %s I/Os\n" name
    sw.Vis_core.Space.sw_base_pages
    (T.fmt_compact sw.Vis_core.Space.sw_unconstrained_cost);
  let tbl =
    T.create [ "space (pages)"; "space/base"; "cost/optimal"; "design change" ]
  in
  List.iter
    (fun st ->
      T.add_row tbl
        [
          T.fmt_compact st.Vis_core.Space.st_space;
          T.fmt_float ~digits:3
            (st.Vis_core.Space.st_space /. sw.Vis_core.Space.sw_base_pages);
          T.fmt_float ~digits:3
            (st.Vis_core.Space.st_cost /. sw.Vis_core.Space.sw_unconstrained_cost);
          String.concat ", "
            (List.map (fun s -> "+" ^ s) st.Vis_core.Space.st_added
            @ List.map (fun s -> "-" ^ s) st.Vis_core.Space.st_dropped);
        ])
    sw.Vis_core.Space.sw_steps;
  T.print tbl;
  Printf.printf "[Figure 11] feature-addition order (%s):\n" name;
  List.iteri
    (fun i (feat, budget) ->
      Printf.printf "  %d. %-22s first affordable at %.0f pages\n" (i + 1) feat
        budget)
    (Vis_core.Space.feature_order sw)

let figure10_11 () =
  section "[Figure 10/11] Space-constrained designs, Schema 1";
  if quick then print_endline "(skipped in quick mode)"
  else begin
    (* The paper's regime: deltas small relative to the relations, so index
       probes genuinely beat scans and the staircase is rich.  Load (b)
       ships 10x load (a). *)
    space_study "(a) low update load"
      (Schemas.schema1 ~base_card:40_000. ~ins_frac:0.001 ~del_frac:0.0002
         ~upd_frac:0.002 ());
    space_study "(b) high update load"
      (Schemas.schema1 ~base_card:40_000. ~ins_frac:0.01 ~del_frac:0.002
         ~upd_frac:0.02 ())
  end

(* ------------------------------------------------------------------ *)
(* [Figure 12] Sensitivity of the optimum to the insertion-deletion rate. *)

let figure12 () =
  section "[Figure 12] Sensitivity to the estimated insertion+deletion rate";
  let rates = [ 0.001; 0.00316; 0.01; 0.0316; 0.1 ] in
  let make rate =
    Schemas.schema1 ~ins_frac:(rate /. 2.) ~del_frac:(rate /. 2.) ()
  in
  let series = Vis_core.Sensitivity.sweep ~make_schema:make ~values:rates in
  let tbl =
    T.create
      ("estimated \\ actual"
      :: List.map (fun r -> Printf.sprintf "%g" r) rates)
  in
  List.iter
    (fun s ->
      T.add_row tbl
        (Printf.sprintf "%g" s.Vis_core.Sensitivity.se_estimate
        :: List.map
             (fun (_, ratio) -> T.fmt_float ratio)
             s.Vis_core.Sensitivity.se_ratios))
    series;
  T.print tbl;
  print_endline
    "Each row: the design optimized for the estimated rate, costed across the\n\
     actual rates and normalized by the optimum there (1.00 = no loss).  The\n\
     optimum is insensitive except when the estimate crosses the region where\n\
     indexes stop paying off — the paper's observation."

(* ------------------------------------------------------------------ *)
(* [Extra 1] Cost-model validation on the executable storage engine. *)

let extra1 () =
  section "[Extra 1] Executed refresh: predicted vs measured I/O";
  let schema = Schemas.validation () in
  let p = Problem.make schema in
  let optimal = (Astar.search p).Astar.best in
  let advice = (Vis_core.Rules.advise p).Vis_core.Rules.a_config in
  let everything =
    Config.make ~views:p.Problem.candidate_views
      ~indexes:(Problem.indexes_for_views p p.Problem.candidate_views)
  in
  let tbl =
    T.create [ "design"; "predicted"; "measured"; "reads"; "writes"; "views exact" ]
  in
  List.iter
    (fun (name, config) ->
      let report, checks = Vis_maintenance.Validate.run_cycle schema config in
      T.add_row tbl
        [
          name;
          T.fmt_compact report.Vis_maintenance.Refresh.rp_predicted;
          string_of_int (Vis_maintenance.Refresh.total_io report);
          string_of_int report.Vis_maintenance.Refresh.rp_reads;
          string_of_int report.Vis_maintenance.Refresh.rp_writes;
          (if Vis_maintenance.Validate.all_ok checks then "yes" else "NO");
        ])
    [
      ("nothing extra", Config.empty);
      ("rules of thumb", advice);
      ("optimal (A*)", optimal);
      ("everything", everything);
    ];
  T.print tbl;
  print_endline
    "Every executed refresh leaves all materialized views exactly equal to\n\
     their from-scratch recomputation; the model orders the designs correctly."

(* ------------------------------------------------------------------ *)
(* [Extra 2] Greedy heuristic vs A*: solution quality and effort. *)

let extra2 () =
  section "[Extra 2] Greedy heuristic vs optimal A*";
  let tbl =
    T.create
      [ "schema"; "greedy cost"; "optimal cost"; "quality"; "greedy evals"; "A* expanded" ]
  in
  List.iter
    (fun (name, schema) ->
      let p = Problem.make schema in
      let g = Vis_core.Greedy.search p in
      (* On the 5-relation chain even the improved A* exceeds a sensible
         budget — the paper's own motivation for heuristics; the anytime
         variant reports its best incumbent instead. *)
      let a, cert = Astar.search_budgeted ~max_expanded:150_000 p in
      let optimal = cert = Astar.Optimal in
      T.add_row tbl
        [
          name;
          T.fmt_compact g.Vis_core.Greedy.best_cost;
          T.fmt_compact a.Astar.best_cost ^ (if optimal then "" else "*");
          T.fmt_float (g.Vis_core.Greedy.best_cost /. a.Astar.best_cost);
          string_of_int g.Vis_core.Greedy.evaluations;
          string_of_int a.Astar.stats.Astar.expanded;
        ])
    [
      ("2 relations", Schemas.two_relation ());
      ("Schema 1", Schemas.schema1 ());
      ("Schema 2", Schemas.schema2 ());
      ("4-relation chain", Schemas.chain ~n:4 ());
      ("5-relation chain", Schemas.chain ~n:5 ());
    ];
  T.print tbl;
  print_endline
    "(* : A* budget of 150k states exhausted; its best incumbent is shown —\n\
     optimal search is impractical there, which is the paper's case for rules\n\
     of thumb and limited search.)"

(* ------------------------------------------------------------------ *)
(* [Extra 3] Rules-of-thumb advisor vs optimal. *)

let extra3 () =
  section "[Extra 3] Rules-of-thumb advisor vs optimal";
  let tbl = T.create [ "schema"; "advised cost"; "optimal cost"; "quality" ] in
  List.iter
    (fun (name, schema) ->
      let p = Problem.make schema in
      let advice = Vis_core.Rules.advise p in
      let cost = Problem.total p advice.Vis_core.Rules.a_config in
      let a = Astar.search p in
      T.add_row tbl
        [
          name;
          T.fmt_compact cost;
          T.fmt_compact a.Astar.best_cost;
          T.fmt_float (cost /. a.Astar.best_cost);
        ])
    [
      ("2 relations", Schemas.two_relation ());
      ("Schema 1", Schemas.schema1 ());
      ("Schema 2", Schemas.schema2 ());
      ("validation", Schemas.validation ());
      ("4-relation chain", Schemas.chain ~n:4 ());
    ];
  T.print tbl;
  Printf.printf "\nOptimal configurations for reference:\n";
  List.iter
    (fun (name, schema) ->
      let p = Problem.make schema in
      let a = Astar.search p in
      Printf.printf "  %-10s %s\n" name (describe schema a.Astar.best))
    [ ("Schema 1", Schemas.schema1 ()); ("Schema 2", Schemas.schema2 ()) ]

(* ------------------------------------------------------------------ *)
(* [Extra 4] Should protected updates be propagated atomically or split
   into deletion+insertion pairs?  (Considered in Section 6 / the full
   version of the paper.)  We cost the optimal design under both
   treatments of the same batch. *)

let extra4 () =
  section "[Extra 4] Protected updates: atomic vs split into delete+insert";
  let tbl =
    T.create [ "update frac"; "atomic (optimal)"; "split (optimal)"; "split/atomic" ]
  in
  let ratios = ref [] in
  List.iter
    (fun upd ->
      let atomic = Schemas.schema1 ~ins_frac:0.005 ~del_frac:0.001 ~upd_frac:upd () in
      let split =
        Schema.with_deltas atomic
          (List.init 3 (fun i ->
               let d = Schema.delta atomic i in
               {
                 Schema.n_ins = d.Schema.n_ins +. d.Schema.n_upd;
                 n_del = d.Schema.n_del +. d.Schema.n_upd;
                 n_upd = 0.;
               }))
      in
      let optimal schema = (Astar.search (Problem.make schema)).Astar.best_cost in
      let a = optimal atomic and s = optimal split in
      ratios := (s /. a) :: !ratios;
      T.add_row tbl
        [
          Printf.sprintf "%.1f%%" (100. *. upd);
          T.fmt_compact a;
          T.fmt_compact s;
          T.fmt_float (s /. a);
        ])
    [ 0.001; 0.005; 0.01; 0.02 ];
  T.print tbl;
  if List.for_all (fun r -> r < 1.) !ratios then
    print_endline
      "Under the Section-3.2 model — every delta type is propagated in its own\n\
       pass — splitting wins here: the update batch merges into the deletion\n\
       and insertion passes instead of paying a separate locate scan per\n\
       element, and that saving outweighs the extra index maintenance and view\n\
       appends the split incurs.  Atomic treatment regains ground only when\n\
       key-index probing makes the extra locate pass cheap relative to the\n\
       split's insert propagation."
  else
    print_endline
      "Atomic treatment wins where the extra locate pass is cheap (key-index\n\
       probing) relative to the split's added insert propagation and index\n\
       maintenance."

(* ------------------------------------------------------------------ *)
(* [Extra 5] Local search (add/drop/swap hill climbing) vs greedy vs A*. *)

let extra5 () =
  section "[Extra 5] Local search vs greedy vs optimal";
  let tbl =
    T.create
      [ "schema"; "greedy"; "local search"; "optimal"; "ls evals"; "ls moves" ]
  in
  List.iter
    (fun (name, schema) ->
      let p = Problem.make schema in
      let g = Vis_core.Greedy.search p in
      let ls = Vis_core.Local_search.search p in
      let a, cert = Astar.search_budgeted ~max_expanded:150_000 p in
      let optimal = cert = Astar.Optimal in
      T.add_row tbl
        [
          name;
          T.fmt_compact g.Vis_core.Greedy.best_cost;
          T.fmt_compact ls.Vis_core.Local_search.best_cost;
          T.fmt_compact a.Astar.best_cost ^ (if optimal then "" else "*");
          string_of_int ls.Vis_core.Local_search.evaluations;
          string_of_int ls.Vis_core.Local_search.moves;
        ])
    [
      ("Schema 1", Schemas.schema1 ());
      ("Schema 2", Schemas.schema2 ());
      ("high-update S1", Schemas.schema1 ~ins_frac:0.05 ~del_frac:0.01 ());
      ("4-relation chain", Schemas.chain ~n:4 ());
    ];
  T.print tbl

(* ------------------------------------------------------------------ *)
(* [Extra 6] Cost-cache effectiveness: A* with the problem-wide shared
   memoization versus the same search where every configuration gets a
   private cache.  The shared cache must cut actual cost derivations by at
   least 2x (hits / misses bookkeeping) while leaving the optimum — the
   configuration itself and its cost — bit-identical.  Jobs 1, as in
   Table 2, keeps the hit and miss counts exact. *)

let cache_study () =
  section "[Extra 6] Cost-cache effectiveness (shared memoization)";
  let rows =
    List.map
      (fun (name, required_factor, schema) ->
        let p = Problem.make schema in
        let shared = Astar.search ~jobs:1 p in
        let s = Cost.cache_stats p.Problem.cache in
        let lookups = s.Cost.cs_hits + s.Cost.cs_misses in
        let factor =
          float_of_int lookups /. float_of_int (max 1 s.Cost.cs_misses)
        in
        let p_private = Problem.make ~share_cache:false schema in
        let private_ = Astar.search ~jobs:1 p_private in
        let same =
          Vis_util.Num.approx_equal ~eps:1e-9 shared.Astar.best_cost
            private_.Astar.best_cost
          && Config.equal shared.Astar.best private_.Astar.best
        in
        assert same;
        assert (factor >= required_factor);
        Json.Obj
          ((("schema", Json.String name)
           :: Json.fields (Cost.cache_stats_json p.Problem.cache))
          @ [
              ("work_reduction_factor", Json.Float factor);
              ("identical_optimum", Json.Bool same);
            ]))
      [
        ("Schema 1 (retail)", 2., Schemas.schema1 ());
        ("Schema 2", 2., Schemas.schema2 ());
        ("2 relations", 1., Schemas.two_relation ());
        ("4-relation chain", 2., Schemas.chain ~n:4 ());
      ]
  in
  record "cache_effectiveness" (Json.List rows);
  print_endline
    "Shared memoization cuts cost-model derivations by work_reduction_factor\n\
     (lookups / misses) at an unchanged optimal design — the caching is\n\
     semantically invisible."

(* ------------------------------------------------------------------ *)
(* [Extra 7] Coarse-grained parallel scaling of the search (--jobs).
   The exhaustive Table-2 sweep, the sharded A* on the small schemas, and
   the budgeted sharded A* on generated 8-relation star / 7-relation
   snowflake warehouses run at jobs 1, 2 and 4; every run is asserted
   bit-identical to the jobs=1 baseline (same configuration, same cost,
   same counters, same certificate), so the study doubles as a
   determinism check.

   The speedup reported per case is modeled: it replays the recorded
   per-exchange-round shard work counts on k ideal workers
   ({!Vis_core.Search_stats.modeled_speedup}) — exact, machine-independent,
   identical at every jobs setting, and the number the CI perf gate
   guards.  Wall-clock speedup is perfbench's [parallel.speedup]. *)

let parallel_scaling () =
  section "[Extra 7] Coarse-grained parallel scaling (--jobs)";
  let jobs_list = [ 1; 2; 4 ] in
  print_endline
    "runs at jobs 1, 2 and 4; modeled speedups replay the recorded per-round\n\
     shard work on k ideal workers (machine-independent)";
  let limit = if quick then 100_000. else 700_000. in
  let cases =
    List.filter
      (fun (_, schema) -> Exhaustive.count_states (Problem.make schema) <= limit)
      [
        ("2 rel, 1 sel", Schemas.two_relation ());
        ("2 rel, sel 50%", Schemas.two_relation ~sel_s:0.5 ());
        ("3 rel (S1) no del", Schemas.schema1 ~del_frac:0. ());
        ("3 rel Schema 1", Schemas.schema1 ());
      ]
  in
  let entries = ref [] in
  (* [floor4]: minimum admissible modeled speedup at 4 workers — the
     scaling regression tripwire (also guarded by bench/check_perf.exe
     against bench/perf_baseline.json). *)
  let study ~name ~relations ~run ~same ~stats ?floor4 () =
    let baseline = ref None in
    let rows = ref [] in
    List.iter
      (fun jobs ->
        let r = run jobs in
        let identical =
          match !baseline with
          | None ->
              baseline := Some r;
              true
          | Some b -> same b r
        in
        assert identical;
        rows :=
          Json.Obj [ ("jobs", Json.Int jobs); ("identical", Json.Bool identical) ]
          :: !rows)
      jobs_list;
    let s = stats (Option.get !baseline) in
    let modeled k =
      Option.value ~default:1. (Vis_core.Search_stats.modeled_speedup s ~jobs:k)
    in
    let m2 = modeled 2 and m4 = modeled 4 and m8 = modeled 8 in
    (match floor4 with
    | Some f when m4 < f ->
        failwith
          (Printf.sprintf
             "%s: modeled speedup @4 = %.2fx below the %.2fx floor" name m4 f)
    | Some _ | None -> ());
    entries :=
      Json.Obj
        [
          ("run", Json.String name);
          ("relations", Json.Int relations);
          ("sharded_rounds", Json.Int (Vis_core.Search_stats.round_count s));
          ("round_work", Json.Int (Vis_core.Search_stats.round_work s));
          ("modeled_speedup_2", Json.Float m2);
          ("modeled_speedup_4", Json.Float m4);
          ("modeled_speedup_8", Json.Float m8);
          ("runs", Json.List (List.rev !rows));
        ]
      :: !entries
  in
  let same_astar b r =
    Config.equal b.Astar.best r.Astar.best
    && b.Astar.best_cost = r.Astar.best_cost
    && b.Astar.stats.Astar.expanded = r.Astar.stats.Astar.expanded
    && b.Astar.stats.Astar.generated = r.Astar.stats.Astar.generated
  in
  List.iter
    (fun (name, schema) ->
      study
        ~name:("exhaustive " ^ name)
        ~relations:(Schema.n_relations schema)
        ~run:(fun jobs ->
          (* a fresh problem per run: no cross-run cache warming *)
          Exhaustive.search ~jobs ~max_states:1_000_000 (Problem.make schema))
        ~same:(fun b r ->
          Config.equal b.Exhaustive.best r.Exhaustive.best
          && b.Exhaustive.best_cost = r.Exhaustive.best_cost
          && b.Exhaustive.states = r.Exhaustive.states)
        ~stats:(fun r -> r.Exhaustive.search_stats)
        ())
    cases;
  (* Small schemas with the sharded mode forced on: optimality still
     proven, exchange rounds exercised. *)
  List.iter
    (fun (name, schema) ->
      study
        ~name:("A* sharded " ^ name)
        ~relations:(Schema.n_relations schema)
        ~run:(fun jobs -> Astar.search ~jobs ~shard:true (Problem.make schema))
        ~same:same_astar
        ~stats:(fun r -> r.Astar.search_stats)
        ())
    [
      ("Schema 1", Schemas.schema1 ());
      ("4-relation chain", Schemas.chain ~n:4 ());
    ];
  (* Generated warehouse schemas: full optimality is intractable here
     (the candidate lattice is capped to 2-relation views and the search
     budgeted), so the runs use the anytime mode — same budget in quick
     and full mode, keeping the guarded modeled speedups comparable. *)
  let budgeted_case (name, relations, floor4, mk) =
    study ~name ~relations
      ~run:(fun jobs ->
        Astar.search_budgeted ~max_expanded:2_000 ~beam:64 ~jobs (mk ()))
      ~same:(fun (b, cb) (r, cr) ->
        Config.equal b.Astar.best r.Astar.best
        && b.Astar.best_cost = r.Astar.best_cost
        && b.Astar.stats.Astar.expanded = r.Astar.stats.Astar.expanded
        && b.Astar.stats.Astar.generated = r.Astar.stats.Astar.generated
        && cb = cr)
      ~stats:(fun (r, _) -> r.Astar.search_stats)
      ?floor4 ()
  in
  List.iter budgeted_case
    [
      ( "A* sharded star-8 (budgeted)",
        8,
        Some 1.5,
        fun () ->
          Problem.make ~connected_only:true ~max_view_rels:2
            (Schemas.star ~n_dims:7 ()) );
      ( "A* sharded snowflake-7 (budgeted)",
        7,
        Some 1.5,
        fun () ->
          Problem.make ~connected_only:true ~max_view_rels:2
            (Schemas.snowflake ~arms:3 ~depth:2 ()) );
    ];
  record "parallel_scaling"
    (Json.Obj [ ("cases", Json.List (List.rev !entries)) ]);
  print_endline
    "Every parallel run returned the same configuration, cost, counters and\n\
     certificate as jobs=1 (the determinism guarantee).  The modeled\n\
     speedups are the machine-independent scaling of the recorded shard work\n\
     and gate the perf smoke (bench/check_perf.exe); perfbench measures the\n\
     wall-clock speedup."

(* ------------------------------------------------------------------ *)
(* [Extra 9] Cost-model work of the optimal search: A* on the Table 2
   schemas at jobs in {1, 4}, reporting the states the search costed
   ([Search_stats.evaluated]).  The counters are exact and identical at
   any jobs setting (asserted here); [cost_evaluations] at jobs=1 is the
   number the CI perf-smoke guards. *)

let search_cost_evaluations () =
  section "[Extra 9] Search cost evaluations per Table 2 schema";
  let module Search_stats = Vis_core.Search_stats in
  let rows = ref [] in
  List.iter
    (fun (name, schema) ->
      let at_jobs1 = ref None in
      List.iter
        (fun jobs ->
          let a = Astar.search ~jobs (Problem.make schema) in
          let evals = Search_stats.evaluated a.Astar.search_stats in
          let counts =
            (a.Astar.best_cost, evals, a.Astar.stats.Astar.expanded,
             a.Astar.stats.Astar.generated)
          in
          (match !at_jobs1 with
          | None -> at_jobs1 := Some counts
          | Some c1 -> assert (c1 = counts));
          rows :=
            Json.Obj
              [
                ("schema", Json.String name);
                ("jobs", Json.Int jobs);
                ("cost_evaluations", Json.Int evals);
                ("expanded", Json.Int a.Astar.stats.Astar.expanded);
                ("generated", Json.Int a.Astar.stats.Astar.generated);
              ]
            :: !rows)
        [ 1; 4 ])
    (table2_cases ());
  record "search_cost_evaluations" (Json.List (List.rev !rows));
  print_endline
    "cost_evaluations: states costed by the search (Search_stats.evaluated);\n\
     jobs=4 returned the same optimum and counters as jobs=1."

(* ------------------------------------------------------------------ *)
(* [Extra 10] Fault-injected refresh: the page I/O cost of WAL protection
   on the fault-free path (must stay within 5% of the unprotected
   refresh), and what a crash-retry, a forced rollback and a degradation
   to view recomputation cost on the same batch.  Every scenario goes
   through [Validate.refresh_trial]; a verdict other than a provable end
   state fails the run. *)

let extra10 () =
  section "[Extra 10] Fault-injected refresh: WAL overhead and recovery";
  let module Refresh = Vis_maintenance.Refresh in
  let module Validate = Vis_maintenance.Validate in
  let module Faults = Vis_storage.Faults in
  let schema = Schemas.validation () in
  let best = (Astar.search (Problem.make schema)).Astar.best in
  let seed = 42 in
  let w0, b0 = Validate.world ~seed schema best in
  let r0 = Refresh.run w0 b0 in
  let base_io = Refresh.total_io r0 in
  let reference = Validate.reference w0 in
  let rows = ref [] in
  let overhead = ref 0. in
  let scenario name plan =
    let w, b = Validate.world ~seed schema best in
    let t = Validate.refresh_trial reference ~faults:plan w b in
    let io = t.Validate.tr_io and stats = t.Validate.tr_stats in
    let outcome = Validate.verdict_name t.Validate.tr_verdict in
    if not (Validate.verdict_ok t.Validate.tr_verdict) then
      failwith (Printf.sprintf "fault_recovery %S: %s" name outcome);
    if name = "WAL, no faults" then begin
      overhead := float_of_int (io - base_io) /. float_of_int base_io;
      (* Tightened from 10% in PR 7: group commit removed the per-batch
         sync forcing, so the log pages are the only overhead left. *)
      assert (!overhead <= 0.05)
    end;
    rows :=
      Json.Obj
        [
          ("scenario", Json.String name);
          ("io", Json.Int io);
          ("attempts", Json.Int stats.Refresh.fs_attempts);
          ("injected", Json.Int stats.Refresh.fs_injected);
          ("retries", Json.Int stats.Refresh.fs_retries);
          ("backoff_ms", Json.Float stats.Refresh.fs_backoff_ms);
          ("rollbacks", Json.Int stats.Refresh.fs_rollbacks);
          ("undone", Json.Int stats.Refresh.fs_undone);
          ("degraded", Json.Bool stats.Refresh.fs_degraded);
          ("wal_records", Json.Int stats.Refresh.fs_wal_records);
          ("wal_pages", Json.Int stats.Refresh.fs_wal_pages);
          ("recomputed_rows", Json.Int stats.Refresh.fs_recomputed_rows);
          ("outcome", Json.String outcome);
        ]
      :: !rows
  in
  scenario "WAL, no faults" (Faults.none ());
  scenario "transient write fault"
    (Faults.make
       [ Faults.Fail_nth { op = Some Faults.Write; n = 10; kind = Faults.Transient } ]);
  scenario "mid-batch crash"
    (Faults.make
       [ Faults.Fail_nth { op = Some Faults.Write; n = 25; kind = Faults.Crash } ]);
  scenario "permanent fault, degraded"
    (Faults.make
       [ Faults.Fail_nth { op = None; n = 120; kind = Faults.Permanent } ]);
  scenario "permanent media failure"
    (Faults.make
       [ Faults.Fail_prob { op = Some Faults.Write; p = 1.0; kind = Faults.Permanent } ]);
  record "fault_recovery"
    (Json.Obj
       [
         ("schema", Json.String "validation");
         ("seed", Json.Int seed);
         ("unprotected_io", Json.Int base_io);
         ("wal_overhead_frac", Json.Float !overhead);
         ("wal_overhead_limit", Json.Float 0.05);
         ("scenarios", Json.List (List.rev !rows));
       ]);
  print_endline
    "Every scenario ends in a provable state: bit-identical to the fault-free\n\
     refresh, logically identical with recomputed views (degraded), or the\n\
     exact pre-batch state (all attempts rolled back)."

(* ------------------------------------------------------------------ *)
(* [Extra 11] Storage engine raw speed: group-commit WAL (durability
   barriers vs commit latency at group sizes 1 and 4), the fault-free WAL
   overhead under the tightened 5% budget, and page-level compression's
   effect on the durable footprint.  Every recorded number is exact and
   machine-independent; check_perf guards the sync counts. *)

let extra11 () =
  section "[Extra 11] Storage engine: group commit and compression";
  let module Warehouse = Vis_maintenance.Warehouse in
  let module Refresh = Vis_maintenance.Refresh in
  let module Validate = Vis_maintenance.Validate in
  let module Wal = Vis_storage.Wal in
  let schema = Schemas.validation () in
  let best = (Astar.search (Problem.make schema)).Astar.best in
  let seed = 42 in
  let n_batches = 8 in
  (* Fault-free WAL overhead, tightened from extra10's 10% to 5%: group
     commit removed the per-batch sync forcing, so the protected refresh
     now pays only for the log pages themselves. *)
  let w0, b0 = Validate.world ~seed schema best in
  let base_io = Refresh.total_io (Refresh.run w0 b0) in
  let w1, b1 = Validate.world ~seed schema best in
  let prot_io =
    match Refresh.run_protected w1 b1 with
    | Ok (r, _) -> Refresh.total_io r
    | Error _ -> failwith "fault-free protected refresh failed"
  in
  let overhead = float_of_int (prot_io - base_io) /. float_of_int base_io in
  assert (overhead <= 0.05);
  (* The group-commit trade: barriers against commit latency, on the same
     deterministic stream. *)
  let syncs_at = Hashtbl.create 4 in
  let rows =
    List.map
      (fun max_group ->
        let w, b = Validate.world ~seed schema best in
        let batches = Validate.split_batch n_batches b in
        let policy = { Refresh.gp_max_group = max_group; gp_window_ms = 1e9 } in
        match Refresh.run_protected_many ~policy w batches with
        | Error _ -> failwith "fault-free group stream failed"
        | Ok (r, _, g) ->
            let wal_bytes = Wal.total_bytes w.Warehouse.w_wal in
            let mean_latency =
              g.Refresh.gr_latency_ms_total /. float_of_int g.Refresh.gr_batches
            in
            Hashtbl.replace syncs_at max_group r.Refresh.rp_wal_syncs;
            Json.Obj
              ([
                 ("max_group", Json.Int max_group);
                 ("batches", Json.Int g.Refresh.gr_batches);
                 ("wal_bytes", Json.Int wal_bytes);
                 ("group_syncs", Json.Int g.Refresh.gr_group_syncs);
                 ("largest_group", Json.Int g.Refresh.gr_max_group);
                 ("mean_batch_latency_sim_ms", Json.Float mean_latency);
               ]
              @ Json.fields (Refresh.report_json r)))
      [ 1; 4 ]
  in
  (* Grouping must strictly reduce the durability barriers. *)
  assert (Hashtbl.find syncs_at 4 < Hashtbl.find syncs_at 1);
  (* Page-level compression: same logical warehouse, about half the durable
     data pages. *)
  let compress_all config =
    let module Element = Vis_costmodel.Element in
    List.fold_left Config.add_compress config
      (Element.Base 0 :: Element.Base 1 :: Element.Base 2
      :: [ Element.View (Vis_catalog.Schema.all_relations schema) ])
  in
  let w_plain, _ = Validate.world ~seed schema best in
  let w_comp, bc = Validate.world ~seed schema (compress_all best) in
  let plain_pages = Warehouse.total_data_pages w_plain
  and comp_pages = Warehouse.total_data_pages w_comp in
  let ratio = float_of_int comp_pages /. float_of_int plain_pages in
  let comp_io = Refresh.total_io (Refresh.run w_comp bc) in
  assert (ratio >= 0.4 && ratio <= 0.6);
  record "storage_engine"
    (Json.Obj
       [
         ("schema", Json.String "validation");
         ("seed", Json.Int seed);
         ("unprotected_io", Json.Int base_io);
         ("wal_overhead_frac", Json.Float overhead);
         ("wal_overhead_limit", Json.Float 0.05);
         ("group_commit", Json.List rows);
         ("data_pages_uncompressed", Json.Int plain_pages);
         ("data_pages_compressed", Json.Int comp_pages);
         ("compression_ratio", Json.Float ratio);
         ("compressed_refresh_io", Json.Int comp_io);
       ]);
  print_endline
    "Group commit covers many deferred commits with one durability barrier;\n\
     mean_batch_latency_sim_ms is what it trades away.  Compression halves the\n\
     durable pages (model ratio 0.5) while the refresh stays exact."

(* [Extra 14] End-to-end corruption handling: what detection costs when
   nothing is wrong, what a scrub pass costs, and what self-healing repair
   costs when something is.  The fault-free read overhead of checksummed
   pages is asserted under a 5% budget (the verification reads hit the
   shared per-bucket checksum pages, so the marginal I/O is small); a
   seeded at-rest damage plan then rots rebuildable pages and one scrub
   pass must convict and repair every one of them.  Every recorded number
   is exact and machine-independent; check_perf guards the overhead, the
   scrub I/O and detection completeness. *)
let corruption_study () =
  section "[Extra 14] Corruption: checksummed reads, scrub and rebuild";
  let module Warehouse = Vis_maintenance.Warehouse in
  let module Refresh = Vis_maintenance.Refresh in
  let module Validate = Vis_maintenance.Validate in
  let module Iostats = Vis_storage.Iostats in
  let schema = Schemas.validation () in
  let best = (Astar.search (Problem.make schema)).Astar.best in
  let seed = 42 in
  (* Fault-free detection overhead: the identical refresh with and without
     page checksums. *)
  let w0, b0 = Validate.world ~seed schema best in
  let base_io = Refresh.total_io (Refresh.run w0 b0) in
  let w1, b1 = Validate.world ~checksums:true ~seed schema best in
  let chk_io = Refresh.total_io (Refresh.run w1 b1) in
  let overhead = float_of_int (chk_io - base_io) /. float_of_int base_io in
  assert (overhead >= 0. && overhead <= 0.05);
  (* One scrub pass over the clean warehouse: pure detection cost. *)
  Warehouse.reset_stats w1;
  let clean = Warehouse.scrub w1 in
  let scrub_io = Iostats.total_io w1.Warehouse.w_stats in
  let scrub_verifs = Iostats.checksum_verifications w1.Warehouse.w_stats in
  assert (clean.Warehouse.sc_corrupt = 0);
  (* Seeded at-rest damage on rebuildable pages (view heaps and all index
     nodes — base heaps have no redundant source and would refuse), then
     one self-healing scrub. *)
  let injected =
    List.length
      (Validate.damage_pages w1
         ~rng:(Random.State.make [| seed; 0xd4 |])
         ~n:4
         (Array.of_list (Validate.rebuildable_gids w1)))
  in
  Warehouse.reset_stats w1;
  let repair = Warehouse.scrub ~fail_unrecoverable:false w1 in
  let repair_io = Iostats.total_io w1.Warehouse.w_stats in
  (* The scrub must convict exactly the injected damage and repair all of
     it — nothing was unrecoverable by construction. *)
  assert (repair.Warehouse.sc_corrupt = injected);
  assert (repair.Warehouse.sc_unrecoverable = []);
  (match Warehouse.integrity_check w1 with
  | Ok () -> ()
  | Error msg -> failwith ("integrity after repair: " ^ msg));
  record "corruption"
    (Json.Obj
       [
         ("schema", Json.String "validation");
         ("seed", Json.Int seed);
         ("unchecked_refresh_io", Json.Int base_io);
         ("checksummed_refresh_io", Json.Int chk_io);
         ("read_overhead_frac", Json.Float overhead);
         ("read_overhead_limit", Json.Float 0.05);
         ("scrub_scanned", Json.Int clean.Warehouse.sc_scanned);
         ("scrub_verifications", Json.Int scrub_verifs);
         ("scrub_io", Json.Int scrub_io);
         ("injected", Json.Int injected);
         ("convicted", Json.Int repair.Warehouse.sc_corrupt);
         ("views_rebuilt", Json.Int repair.Warehouse.sc_views_rebuilt);
         ("indexes_rebuilt", Json.Int repair.Warehouse.sc_indexes_rebuilt);
         ("repair_io", Json.Int repair_io);
       ]);
  print_endline
    "Detection is cheap (the budget line pins it); repair is proportional\n\
     to the rebuilt structures, and base damage is the one thing a scrub\n\
     refuses to paper over."

(* [Extra 12] The advisor daemon under sustained multi-tenant load: four
   zipfian tenants ingest seeded delta streams for a fixed number of
   simulated ticks while the heaviest tenant's volume steps 3x mid-run,
   forcing the monitor -> sensitivity-probe -> budgeted-A* loop to fire.
   Every number is machine-independent; the CI guard in check_perf pins
   the re-optimization count (churn) and the simulated-clock p99 batch
   latency.  Wall-clock throughput is perfbench's [serve] workload. *)
let extra12 () =
  section "[Extra 12] Advisor service: sustained multi-tenant throughput";
  let module Service = Vis_service.Service in
  let module Stream = Vis_workload.Stream in
  let schema = Schemas.validation ~base_card:200. () in
  let design = (Vis_core.Greedy.search (Problem.make schema)).Vis_core.Greedy.best in
  (* Rates high enough that no tenant sees empty ticks (a zero tick reads
     as genuine rate collapse and would trigger the monitor), two warmup
     observations to damp Poisson noise on the lighter tenants. *)
  let tenants = 4 and ticks = 10 and base_rate = 10. in
  let config =
    {
      Service.default_config with
      Service.sv_seed = 42;
      sv_warmup = 2;
      sv_band = 1.4;
      sv_budget = 4_000;
    }
  in
  let svc = Service.create ~config () in
  for k = 0 to tenants - 1 do
    let drift =
      if k = 0 then Stream.Step { at = ticks / 2; factor = 3. }
      else Stream.Constant
    in
    ignore
      (Service.add_tenant ~seed:(200 + k)
         ~rate:(base_rate *. Stream.zipf_weight ~s:0.8 ~rank:k)
         ~drift ~config:design svc schema)
  done;
  Service.run svc ~ticks;
  let t = Service.totals svc in
  let tenant_rows =
    List.map
      (fun id -> Service.tenant_stats_json (Service.stats svc id))
      (Service.tenant_ids svc)
  in
  (* The scenario is built to exercise the loop: the stepped tenant must
     re-optimize, nothing may fail, and every batch must commit. *)
  assert (t.Service.tt_failed = 0);
  assert (t.Service.tt_reopts >= 1);
  assert (t.Service.tt_swaps >= 1);
  record "service"
    (Json.Obj
       [
         ("schema", Json.String "validation (base 200)");
         ("seed", Json.Int 42);
         ("tenants", Json.Int tenants);
         ("ticks", Json.Int ticks);
         ("batches", Json.Int t.Service.tt_batches);
         ("rows", Json.Int t.Service.tt_rows);
         ("reopts", Json.Int t.Service.tt_reopts);
         ("swaps", Json.Int t.Service.tt_swaps);
         ("mean_batch_latency_sim_ms", Json.Float t.Service.tt_mean_latency_ms);
         ("p99_batch_latency_sim_ms", Json.Float t.Service.tt_p99_latency_ms);
         ("per_tenant", Json.List tenant_rows);
       ]);
  Service.shutdown svc;
  print_endline
    "The daemon sustains all four streams while re-optimizing the drifted\n\
     tenant online.  Batch latencies are on the simulated clock (_sim_ms);\n\
     the re-optimization count and p99 batch latency are guarded by\n\
     check_perf."

(* ------------------------------------------------------------------ *)
(* [Extra 13] Workload-driven candidate mining: a seeded synthetic query
   log (zipf 2.0 — a heavily skewed workload) is mined for frequent
   access patterns at minsup 0.1, and the budgeted A* runs on the pruned
   candidate set.  Both sides of each star case get the same beam and the
   same 20,000-expansion budget; the mined search drains its
   workload-proportional space and terminates early, while the unpruned
   search is still budget-bound — [cost_evaluations] counts the states
   the search actually costed ([Search_stats.evaluated], exact and
   identical at every jobs setting), so the reduction is the
   machine-independent work saved by mining, gated in check_perf like the
   Extra 9 counters.  Small schemas run the exact
   (unbudgeted) A* on both sides to measure true optimality loss;
   minsup=0 must reproduce the unpruned problem bit for bit. *)

let mined_candidates () =
  section "[Extra 13] Workload-driven candidate mining";
  let module Querygen = Vis_workload.Querygen in
  let module Miner = Vis_workload.Miner in
  let module Search_stats = Vis_core.Search_stats in
  let reduction_rows =
    List.map
      (fun (name, n_dims, must_reduce) ->
        let schema = Schemas.star ~n_dims () in
        let log = Querygen.generate ~seed:42 ~n:400 ~zipf:2.0 schema in
        let m = Miner.mine ~minsup:0.1 schema log in
        let run ?candidates jobs =
          let p =
            Problem.make ~connected_only:true ~max_view_rels:2 ?candidates
              schema
          in
          let r, _cert = Astar.search_budgeted ~max_expanded:20_000 ~beam:64 ~jobs p in
          (p, r, Search_stats.evaluated r.Astar.search_stats)
        in
        let p_full, r_full, e_full = run 1 in
        let p_mined, r_mined, e_mined = run ~candidates:m.Miner.m_candidates 1 in
        (* Determinism of the mined-space search across pool widths. *)
        let _, r4, e4 = run ~candidates:m.Miner.m_candidates 4 in
        assert (Config.equal r_mined.Astar.best r4.Astar.best);
        assert (r_mined.Astar.best_cost = r4.Astar.best_cost);
        assert (r_mined.Astar.stats.Astar.expanded = r4.Astar.stats.Astar.expanded);
        assert (e_mined = e4);
        let reduction = float_of_int e_full /. float_of_int (max 1 e_mined) in
        if must_reduce then assert (reduction >= 5.);
        let cost_ratio = r_mined.Astar.best_cost /. r_full.Astar.best_cost in
        Json.Obj
        [
          ("case", Json.String name);
          ("minsup", Json.Float 0.1);
          ("zipf", Json.Float 2.0);
          ("log_queries", Json.Int 400);
          ("features_full", Json.Int (List.length p_full.Problem.features));
          ("features_mined", Json.Int (List.length p_mined.Problem.features));
          ("views_full", Json.Int (List.length p_full.Problem.candidate_views));
          ("views_mined", Json.Int (List.length p_mined.Problem.candidate_views));
          ("cost_evaluations_full", Json.Int e_full);
          ("cost_evaluations_mined", Json.Int e_mined);
          ("reduction_factor", Json.Float reduction);
          ("budgeted_cost_ratio", Json.Float cost_ratio);
        ])
      [ ("star-8", 7, false); ("star-10", 9, true); ("star-12", 11, true) ]
  in
  (* Exact optimality loss where the unbudgeted A* is tractable. *)
  let loss_rows = ref [] in
  List.iter
    (fun (name, schema) ->
      let full = Astar.search (Problem.make schema) in
      List.iter
        (fun minsup ->
          let log = Querygen.generate ~seed:42 ~n:400 schema in
          let m = Miner.mine ~minsup schema log in
          let p = Problem.make ~candidates:m.Miner.m_candidates schema in
          let r = Astar.search p in
          let loss =
            (r.Astar.best_cost -. full.Astar.best_cost) /. full.Astar.best_cost
          in
          if minsup = 0. then begin
            (* Full coverage: the problem, and hence the optimum, must be
               bit-identical to the unpruned run. *)
            assert (Config.equal r.Astar.best full.Astar.best);
            assert (r.Astar.best_cost = full.Astar.best_cost)
          end;
          assert (loss >= -1e-9);
          loss_rows :=
            Json.Obj
              [
                ("schema", Json.String name);
                ("minsup", Json.Float minsup);
                ("full_cost", Json.Float full.Astar.best_cost);
                ("mined_cost", Json.Float r.Astar.best_cost);
                ("optimality_loss", Json.Float loss);
              ]
            :: !loss_rows)
        [ 0.; 0.1; 0.3 ])
    [
      ("3 rel Schema 1", Schemas.schema1 ());
      ("4 rel chain", Schemas.chain ~n:4 ());
    ];
  record "mined_candidates"
    (Json.Obj
       [
         ("reduction", Json.List reduction_rows);
         ("optimality_loss", Json.List (List.rev !loss_rows));
       ]);
  print_endline
    "Reduction compares identical budgeted searches (20,000 expansions,\n\
     beam 64): the mined search drains its workload-proportional space and\n\
     stops, the unpruned search is still budget-bound.  cost_evaluations_*\n\
     count states costed (Search_stats.evaluated) — exact and identical at\n\
     any jobs; the mined optimum was re-run at jobs=4 and matched bit for bit.\n\
     Loss is the exact penalty vs. the unpruned optimum on schemas where\n\
     the unbudgeted A* is tractable; minsup=0 reproduces the unpruned\n\
     problem bit-identically (asserted).  The mined-side counters and\n\
     reductions gate the CI perf smoke."

let () =
  figure5 ();
  table2 ();
  if not quick then figure4 ()
  else begin
    section "[Figure 4]";
    print_endline "(skipped in quick mode)"
  end;
  figure6 ();
  figure7 ();
  figure8 ();
  figure9 ();
  figure10_11 ();
  figure12 ();
  extra1 ();
  extra2 ();
  extra3 ();
  extra4 ();
  extra5 ();
  cache_study ();
  parallel_scaling ();
  search_cost_evaluations ();
  extra10 ();
  extra11 ();
  extra12 ();
  mined_candidates ();
  corruption_study ();
  let oc = open_out "BENCH_vis.json" in
  output_string oc
    (Json.to_string ~indent:2
       (Json.Obj (("quick", Json.Bool quick) :: !bench_json)));
  output_char oc '\n';
  close_out oc;
  print_endline "\nAll experiments completed; machine-readable mirror in BENCH_vis.json."
