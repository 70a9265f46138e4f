(* Tests for the multicore layer: the Vis_util.Parallel worker pool
   (result determinism, exception propagation, degenerate inputs), the
   determinism guarantee of the parallel searches (jobs=1 and jobs=4 must
   return bit-identical optima, costs and counters), and the exactness of
   the striped cost-cache counters under concurrent use. *)

module Bitset = Vis_util.Bitset
module Parallel = Vis_util.Parallel
module Schema = Vis_catalog.Schema
module Derived = Vis_catalog.Derived
module Config = Vis_costmodel.Config
module Cost = Vis_costmodel.Cost
module Problem = Vis_core.Problem
module Astar = Vis_core.Astar
module Exhaustive = Vis_core.Exhaustive
module Greedy = Vis_core.Greedy
module Search_stats = Vis_core.Search_stats
module Schemas = Vis_workload.Schemas

let checkb = Alcotest.(check bool)

let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* The pool itself. *)

let test_map_matches_sequential () =
  let input = Array.init 1_000 (fun i -> i) in
  let f x = (x * x) + 1 in
  let expected = Array.map f input in
  List.iter
    (fun jobs ->
      Parallel.with_pool ~jobs (fun pool ->
          let got = Parallel.map_array pool f input in
          checkb
            (Printf.sprintf "map_array at jobs=%d" jobs)
            true
            (got = expected);
          let got_list = Parallel.map_list pool f (Array.to_list input) in
          checkb
            (Printf.sprintf "map_list at jobs=%d" jobs)
            true
            (got_list = Array.to_list expected)))
    [ 1; 2; 4 ]

let test_degenerate_inputs () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      checkb "empty array" true (Parallel.map_array pool succ [||] = [||]);
      checkb "empty list" true (Parallel.map_list pool succ [] = []);
      checkb "one element" true (Parallel.map_array pool succ [| 41 |] = [| 42 |]);
      Parallel.run pool ~chunks:0 (fun _ -> Alcotest.fail "chunk run");
      (* jobs below 1 clamp to a working sequential pool *)
      Parallel.with_pool ~jobs:0 (fun seq ->
          checki "clamped width" 1 (Parallel.jobs seq);
          checkb "clamped map" true (Parallel.map_array seq succ [| 1 |] = [| 2 |])))

let test_map_init_context_per_chunk () =
  (* Each chunk gets its own context: mutating it is worker-private, and the
     mapped results are still the pure function of the element. *)
  Parallel.with_pool ~jobs:4 (fun pool ->
      let input = Array.init 256 (fun i -> i) in
      let got =
        Parallel.map_init pool
          ~init:(fun () -> ref 0)
          (fun acc x ->
            acc := !acc + x;
            x * 2)
          input
      in
      checkb "results pure" true (got = Array.map (fun x -> x * 2) input))

let test_exception_deterministic () =
  let input = Array.init 64 (fun i -> i) in
  let f x = if x >= 5 then failwith (string_of_int x) else x in
  Parallel.with_pool ~jobs:4 (fun pool ->
      (* chunk:1 makes chunk index = element index: the propagated failure
         must be the first one a sequential run would hit, every time. *)
      for _ = 1 to 5 do
        match Parallel.map_array ~chunk:1 pool f input with
        | _ -> Alcotest.fail "expected failure"
        | exception Failure msg -> Alcotest.(check string) "first loser" "5" msg
      done;
      (* the pool survives the failed batches *)
      checkb "pool reusable" true
        (Parallel.map_array pool succ [| 1; 2; 3 |] = [| 2; 3; 4 |]))

let test_work_accounting () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      let before = Parallel.work_counts pool in
      checki "slots" 4 (Array.length before);
      let n = 512 in
      ignore (Parallel.map_array ~chunk:4 pool succ (Array.init n Fun.id));
      let work =
        Parallel.diff_counts ~before ~after:(Parallel.work_counts pool)
      in
      checki "all chunks accounted" (n / 4) (Array.fold_left ( + ) 0 work))

(* [Parallel.concurrent] is what lets the cost cache skip its locks: it must
   be set in every chunk of a batch that may run on several domains, and
   clear wherever only the caller runs — including after a failed batch. *)
let test_batch_signal () =
  checkb "top level" false (Parallel.concurrent ());
  Parallel.with_pool ~jobs:1 (fun pool ->
      checkb "jobs:1 pool" false
        (Array.exists Fun.id
           (Parallel.map_array ~chunk:1 pool
              (fun _ -> Parallel.concurrent ())
              (Array.make 4 ()))));
  Parallel.with_pool ~jobs:4 (fun pool ->
      checkb "single-chunk batch" false
        (Array.exists Fun.id
           (Parallel.map_array ~chunk:4 pool
              (fun _ -> Parallel.concurrent ())
              (Array.make 4 ())));
      checkb "every chunk of a 4-chunk batch" true
        (Array.for_all Fun.id
           (Parallel.map_array ~chunk:1 pool
              (fun _ -> Parallel.concurrent ())
              (Array.make 4 ())));
      checkb "between batches" false (Parallel.concurrent ());
      (match
         Parallel.run pool ~chunks:4 (fun c -> if c = 2 then failwith "chunk")
       with
      | () -> Alcotest.fail "expected the chunk's failure"
      | exception Failure _ -> ());
      checkb "after a batch that raised" false (Parallel.concurrent ()));
  checkb "after the pools" false (Parallel.concurrent ())

(* ------------------------------------------------------------------ *)
(* Search determinism: jobs=4 must equal jobs=1 bit for bit. *)

let same_astar name p =
  let a1 = Astar.search ~jobs:1 p in
  let a4 = Astar.search ~jobs:4 p in
  checkb (name ^ ": same config") true (Config.equal a1.Astar.best a4.Astar.best);
  checkb (name ^ ": same cost") true (a1.Astar.best_cost = a4.Astar.best_cost);
  checki (name ^ ": same expanded") a1.Astar.stats.Astar.expanded
    a4.Astar.stats.Astar.expanded;
  checki (name ^ ": same generated") a1.Astar.stats.Astar.generated
    a4.Astar.stats.Astar.generated;
  let s1 = a1.Astar.search_stats and s4 = a4.Astar.search_stats in
  checki (name ^ ": same evaluated") (Search_stats.evaluated s1)
    (Search_stats.evaluated s4);
  checkb (name ^ ": same pruning counts") true
    (Search_stats.pruning_counts s1 = Search_stats.pruning_counts s4);
  a4

let test_astar_deterministic () =
  ignore (same_astar "two relations" (Problem.make (Schemas.two_relation ())));
  let a4 = same_astar "schema1" (Problem.make (Schemas.schema1 ())) in
  (* the jobs=4 run records its pool shape on the scoreboard *)
  let s4 = a4.Astar.search_stats in
  checki "parallel jobs recorded" 4 (Search_stats.parallel_jobs s4);
  checki "one work slot per domain" 4 (Array.length (Search_stats.domain_work s4));
  checkb "parallel work happened" true
    (Array.fold_left ( + ) 0 (Search_stats.domain_work s4) > 0);
  (match Search_stats.work_balance s4 with
  | Some b -> checkb "balance in (0,1]" true (b > 0. && b <= 1.)
  | None -> Alcotest.fail "work balance missing")

let test_exhaustive_deterministic () =
  let p () = Problem.make (Schemas.two_relation ()) in
  let e1 = Exhaustive.search ~jobs:1 (p ()) in
  let e4 = Exhaustive.search ~jobs:4 (p ()) in
  checkb "same config" true (Config.equal e1.Exhaustive.best e4.Exhaustive.best);
  checkb "same cost" true (e1.Exhaustive.best_cost = e4.Exhaustive.best_cost);
  checki "same states" e1.Exhaustive.states e4.Exhaustive.states;
  checki "same view states" e1.Exhaustive.view_states e4.Exhaustive.view_states;
  checki "expanded = states" e1.Exhaustive.states
    (Search_stats.expanded e4.Exhaustive.search_stats);
  checki "evaluated = states" e1.Exhaustive.states
    (Search_stats.evaluated e4.Exhaustive.search_stats)

let test_greedy_deterministic () =
  let p () = Problem.make (Schemas.schema1 ()) in
  let g1 = Greedy.search ~jobs:1 (p ()) in
  let g4 = Greedy.search ~jobs:4 (p ()) in
  checkb "same config" true (Config.equal g1.Greedy.best g4.Greedy.best);
  checkb "same cost" true (g1.Greedy.best_cost = g4.Greedy.best_cost);
  checki "same evaluations" g1.Greedy.evaluations g4.Greedy.evaluations;
  checki "same steps" (List.length g1.Greedy.steps) (List.length g4.Greedy.steps);
  List.iter2
    (fun (a : Greedy.step) (b : Greedy.step) ->
      checkb "same step feature" true
        (Problem.equal_feature a.Greedy.s_feature b.Greedy.s_feature);
      checkb "same step cost" true
        (a.Greedy.s_cost_after = b.Greedy.s_cost_after))
    g1.Greedy.steps g4.Greedy.steps

let prop_parallel_deterministic_random =
  QCheck2.Test.make ~name:"parallel: jobs=4 equals jobs=1 on random schemas"
    ~count:10
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let schema = Schemas.random ~rng () in
      let p = Problem.make schema in
      if Exhaustive.count_states p > 25_000. then true
      else begin
        let a1 = Astar.search ~jobs:1 p in
        let a4 = Astar.search ~jobs:4 p in
        let e1 = Exhaustive.search ~jobs:1 p in
        let e4 = Exhaustive.search ~jobs:4 p in
        Config.equal a1.Astar.best a4.Astar.best
        && a1.Astar.best_cost = a4.Astar.best_cost
        && a1.Astar.stats.Astar.expanded = a4.Astar.stats.Astar.expanded
        && Config.equal e1.Exhaustive.best e4.Exhaustive.best
        && e1.Exhaustive.best_cost = e4.Exhaustive.best_cost
        && e1.Exhaustive.states = e4.Exhaustive.states
      end)

let test_budget_still_raises () =
  let p = Problem.make (Schemas.schema1 ()) in
  match Astar.search ~jobs:4 ~max_expanded:3 p with
  | exception Astar.Budget_exceeded st -> checki "stopped at 4" 4 st.Astar.expanded
  | _ -> Alcotest.fail "expected Budget_exceeded"

(* ------------------------------------------------------------------ *)
(* The coarse-grained sharded search. *)

(* Bit-identity of the sharded budgeted search across pool widths, on a
   generated 8-relation star (large enough to cross the sharding
   threshold on its own).  Full optimality is infeasible at this size, so
   the identity is checked on the budgeted/beam path — exactly the mode
   large schemas run in production. *)
let same_budgeted name ~mk ~budget ~beam =
  let run jobs =
    Astar.search_budgeted ~max_expanded:budget ~beam ~jobs (mk ())
  in
  let r1, c1 = run 1 in
  let r4, c4 = run 4 in
  checkb (name ^ ": same config") true (Config.equal r1.Astar.best r4.Astar.best);
  checkb (name ^ ": same cost") true (r1.Astar.best_cost = r4.Astar.best_cost);
  checki (name ^ ": same expanded") r1.Astar.stats.Astar.expanded
    r4.Astar.stats.Astar.expanded;
  checki (name ^ ": same generated") r1.Astar.stats.Astar.generated
    r4.Astar.stats.Astar.generated;
  let s1 = r1.Astar.search_stats and s4 = r4.Astar.search_stats in
  checki (name ^ ": same evaluated") (Search_stats.evaluated s1)
    (Search_stats.evaluated s4);
  checkb (name ^ ": same pruning counts") true
    (Search_stats.pruning_counts s1 = Search_stats.pruning_counts s4);
  checkb (name ^ ": same rounds") true
    (Search_stats.rounds s1 = Search_stats.rounds s4);
  checkb (name ^ ": same certificate") true (c1 = c4);
  (r4, c4)

let test_sharded_star_identity () =
  let mk () =
    Problem.make ~connected_only:true ~max_view_rels:2
      (Schemas.star ~n_dims:7 ())
  in
  let r4, c4 =
    same_budgeted "star-8" ~mk ~budget:1_200 ~beam:48
  in
  let s4 = r4.Astar.search_stats in
  checkb "star-8: exchange rounds recorded" true
    (Search_stats.round_count s4 > 0);
  (match Search_stats.modeled_speedup s4 ~jobs:4 with
  | Some sp -> checkb "star-8: modeled speedup sane" true (sp >= 1. && sp <= 4.)
  | None -> Alcotest.fail "star-8: modeled speedup missing");
  match c4 with
  | Astar.Optimal -> ()
  | Astar.Bounded { lower_bound; gap } ->
      checkb "star-8: bound below incumbent" true
        (lower_bound <= r4.Astar.best_cost);
      checkb "star-8: gap sane" true (gap >= 0. && gap <= 1.)

(* Same identity on a snowflake of at most 62 features (the benchmark's
   "packed" class), so the sharded search is covered on both sides of that
   line. *)
let test_sharded_snowflake_identity () =
  let mk () =
    let p =
      Problem.make ~connected_only:true ~max_view_rels:2
        (Schemas.snowflake ~arms:3 ~depth:2 ())
    in
    checkb "snowflake in the packed class" true (p.Problem.encoding <> None);
    p
  in
  ignore (same_budgeted "snowflake-7" ~mk ~budget:1_200 ~beam:48)

(* Forcing the sharded mode onto a small schema must find the same optimum
   as the single-queue loop, at every pool width, with an Optimal
   certificate. *)
let test_forced_shard_same_optimum () =
  let mk () = Problem.make (Schemas.schema1 ()) in
  let seq = Astar.search ~jobs:1 ~shard:false (mk ()) in
  let sh1 = Astar.search ~jobs:1 ~shard:true (mk ()) in
  let sh4 = Astar.search ~jobs:4 ~shard:true (mk ()) in
  checkb "sharded finds the optimum" true
    (sh1.Astar.best_cost = seq.Astar.best_cost);
  checkb "sharded config optimal" true
    (Config.equal sh1.Astar.best seq.Astar.best);
  checkb "sharded jobs=1 = jobs=4 config" true
    (Config.equal sh1.Astar.best sh4.Astar.best);
  checki "sharded jobs=1 = jobs=4 expanded" sh1.Astar.stats.Astar.expanded
    sh4.Astar.stats.Astar.expanded;
  checkb "sharded jobs=1 = jobs=4 pruning" true
    (Search_stats.pruning_counts sh1.Astar.search_stats
    = Search_stats.pruning_counts sh4.Astar.search_stats)

let test_certificates () =
  let p () = Problem.make (Schemas.schema1 ()) in
  let opt = Astar.search ~jobs:1 (p ()) in
  (* An unconstrained budgeted run proves optimality. *)
  let r, cert = Astar.search_budgeted ~jobs:1 (p ()) in
  checkb "unconstrained run optimal" true (cert = Astar.Optimal);
  checkb "unconstrained cost matches search" true
    (r.Astar.best_cost = opt.Astar.best_cost);
  (* A tiny expansion budget keeps the answer sound and the bound honest. *)
  let r, cert = Astar.search_budgeted ~max_expanded:2 ~jobs:1 (p ()) in
  checkb "budgeted answer sound" true (r.Astar.best_cost >= opt.Astar.best_cost);
  (match cert with
  | Astar.Optimal -> ()
  | Astar.Bounded { lower_bound; gap } ->
      checkb "lower bound below optimum" true
        (lower_bound <= opt.Astar.best_cost +. 1e-9);
      checkb "gap consistent" true
        (Float.abs
           (gap
           -. ((r.Astar.best_cost -. lower_bound)
              /. Float.max 1e-9 (Float.abs r.Astar.best_cost)))
        < 1e-9));
  (* A narrow beam still returns a configuration no worse than greedy and a
     certificate whose bound never exceeds the incumbent. *)
  let r, cert = Astar.search_budgeted ~beam:2 ~jobs:1 (p ()) in
  checkb "beam answer sound" true (r.Astar.best_cost >= opt.Astar.best_cost);
  (match cert with
  | Astar.Optimal ->
      checkb "optimal beam run matches optimum" true
        (r.Astar.best_cost = opt.Astar.best_cost)
  | Astar.Bounded { lower_bound; _ } ->
      checkb "beam bound below incumbent" true
        (lower_bound <= r.Astar.best_cost));
  (* beam < 1 is a caller error *)
  match Astar.search_budgeted ~beam:0 ~jobs:1 (p ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for beam:0"

(* ------------------------------------------------------------------ *)
(* Cache counters under concurrency: no lost updates. *)

let test_cache_counters_exact_concurrent () =
  let schema = Schemas.schema1 () in
  let derived = Derived.create schema in
  let p = Problem.make schema in
  let config = (Greedy.search ~jobs:1 p).Greedy.best in
  let cache = Cost.new_cache () in
  let fresh = Cost.total_of derived config in
  (* Warm the cache, then measure the lookup count of one fully-warm run:
     every lookup hits, so the count is the same for every later run. *)
  ignore (Cost.total_of ~cache derived config);
  Cost.reset_cache_stats cache;
  let warm = Cost.total_of ~cache derived config in
  checkb "warm run equals fresh compute" true (warm = fresh);
  let s = Cost.cache_stats cache in
  checki "warm run misses nothing" 0 s.Cost.cs_misses;
  let lookups_per_run = s.Cost.cs_hits in
  checkb "run performs lookups" true (lookups_per_run > 0);
  Cost.reset_cache_stats cache;
  let runs = 200 in
  Parallel.with_pool ~jobs:4 (fun pool ->
      let totals =
        Parallel.map_array ~chunk:1 pool
          (fun () -> Cost.total_of ~cache derived config)
          (Array.make runs ())
      in
      Array.iter
        (fun t -> checkb "concurrent total equals fresh" true (t = fresh))
        totals);
  let s = Cost.cache_stats cache in
  (* The exactness claim: counter bumps under the stripe locks are never
     lost, so 200 warm runs account for exactly 200 x lookups_per_run. *)
  checki "hits exact under contention" (runs * lookups_per_run) s.Cost.cs_hits;
  checki "no misses under contention" 0 s.Cost.cs_misses

let test_cache_cold_concurrent () =
  let schema = Schemas.schema1 () in
  let derived = Derived.create schema in
  let fresh = Cost.total_of derived Config.empty in
  let cache = Cost.new_cache () in
  Parallel.with_pool ~jobs:4 (fun pool ->
      let totals =
        Parallel.map_array ~chunk:1 pool
          (fun () -> Cost.total_of ~cache derived Config.empty)
          (Array.make 100 ())
      in
      Array.iter (fun t -> checkb "cold total correct" true (t = fresh)) totals);
  let s = Cost.cache_stats cache in
  checkb "lookups all accounted" true (s.Cost.cs_hits + s.Cost.cs_misses > 0);
  checkb "entries bounded by misses" true (s.Cost.cs_entries <= s.Cost.cs_misses);
  checki "unbounded cache never evicts" 0 s.Cost.cs_evictions

let test_cache_bounded_concurrent () =
  let schema = Schemas.schema1 () in
  let derived = Derived.create schema in
  let fresh = Cost.total_of derived Config.empty in
  let cache = Cost.new_cache ~capacity:8 () in
  Parallel.with_pool ~jobs:4 (fun pool ->
      let totals =
        Parallel.map_array ~chunk:1 pool
          (fun () -> Cost.total_of ~cache derived Config.empty)
          (Array.make 100 ())
      in
      Array.iter (fun t -> checkb "bounded total correct" true (t = fresh)) totals);
  let s = Cost.cache_stats cache in
  checkb "capacity respected under contention" true (s.Cost.cs_entries <= 8)

(* The [Eval] skeletons a derivation builds on first use sit in the shared
   cache too.  Four domains that request the same skeletons at once — every
   configuration is claimed by four consecutive tasks — must return totals
   bit-identical to a sequential run, whichever copy of a skeleton won. *)
let test_skeletons_concurrent () =
  List.iter
    (fun (name, mk) ->
      let p = mk () in
      let features = Array.of_list p.Problem.features in
      let rng = Random.State.make [| 5 |] in
      let configs =
        Array.init 12 (fun _ ->
            let config = ref Config.empty in
            for _ = 1 to 2 * Array.length features do
              let f = features.(Random.State.int rng (Array.length features)) in
              if Problem.applicable p !config f then
                config := Problem.add_feature !config f
            done;
            !config)
      in
      let sequential =
        Array.map (fun c -> Cost.total_of p.Problem.derived c) configs
      in
      let shared = mk () in
      let totals =
        Parallel.with_pool ~jobs:4 (fun pool ->
            Parallel.map_array ~chunk:1 pool
              (fun i -> Problem.total shared configs.(i / 4))
              (Array.init (4 * Array.length configs) Fun.id))
      in
      Array.iteri
        (fun i t ->
          checkb
            (Printf.sprintf "%s: config %d bit-identical" name (i / 4))
            true
            (Int64.equal (Int64.bits_of_float t)
               (Int64.bits_of_float sequential.(i / 4))))
        totals)
    [
      ("star-4 views <= 3 (packed)", fun () ->
        Problem.make ~max_view_rels:3 (Schemas.star ~n_dims:4 ()));
      ("star-6 views <= 3 (structural)", fun () ->
        Problem.make ~max_view_rels:3 (Schemas.star ~n_dims:6 ()));
    ]

(* A jobs-1 search performs a fixed sequence of memo lookups; the counters
   are pinned, so a change to the cost model's memoization (or a skeleton
   lookup leaking into the counters) shows up here. *)
let test_cache_stats_pinned () =
  let check name p (hits, misses, entries) =
    let s = Cost.cache_stats p.Problem.cache in
    checki (name ^ ": hits") hits s.Cost.cs_hits;
    checki (name ^ ": misses") misses s.Cost.cs_misses;
    checki (name ^ ": entries") entries s.Cost.cs_entries
  in
  let p = Problem.make (Schemas.schema1 ()) in
  ignore (Astar.search ~jobs:1 p);
  check "schema1 A*" p (17660, 4558, 4558);
  let p = Problem.make ~max_view_rels:3 (Schemas.star ~n_dims:6 ()) in
  ignore (Astar.search_budgeted ~max_expanded:200 ~beam:64 ~jobs:1 p);
  check "star-6 budgeted A*" p (208131, 54734, 54734)

(* Domains that miss the same key both store it.  A bounded cache must
   treat the second store as a replacement: queueing the key twice would
   evict for nothing and later let the stale copy remove a live entry or
   skip a needed eviction, so the cache would end off its capacity.  At
   capacity 16 every stripe holds one entry, where a duplicate only evicts
   itself; capacity 64 (four per stripe) is where a duplicate does harm. *)
let test_bounded_cache_full_under_search () =
  List.iter
    (fun capacity ->
      let p = Problem.make ~max_view_rels:3 (Schemas.star ~n_dims:6 ()) in
      let p = { p with Problem.cache = Cost.new_cache ~capacity () } in
      ignore (Astar.search_budgeted ~max_expanded:200 ~beam:64 ~jobs:4 p);
      let s = Cost.cache_stats p.Problem.cache in
      let label what = Printf.sprintf "capacity %d: %s" capacity what in
      checkb (label "far more misses than capacity") true
        (s.Cost.cs_misses > 100 * capacity);
      checki (label "cache exactly full") capacity s.Cost.cs_entries)
    [ 16; 64 ]

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "vis_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches sequential" `Quick
            test_map_matches_sequential;
          Alcotest.test_case "degenerate inputs" `Quick test_degenerate_inputs;
          Alcotest.test_case "map_init context" `Quick
            test_map_init_context_per_chunk;
          Alcotest.test_case "deterministic exceptions" `Quick
            test_exception_deterministic;
          Alcotest.test_case "work accounting" `Quick test_work_accounting;
          Alcotest.test_case "batch signal" `Quick test_batch_signal;
        ] );
      ( "search determinism",
        [
          Alcotest.test_case "astar jobs=1 vs jobs=4" `Quick
            test_astar_deterministic;
          Alcotest.test_case "exhaustive jobs=1 vs jobs=4" `Quick
            test_exhaustive_deterministic;
          Alcotest.test_case "greedy jobs=1 vs jobs=4" `Quick
            test_greedy_deterministic;
          Alcotest.test_case "budget exception with jobs=4" `Quick
            test_budget_still_raises;
        ]
        @ qt [ prop_parallel_deterministic_random ] );
      ( "sharded search",
        [
          Alcotest.test_case "star-8 budgeted jobs=1 vs jobs=4" `Slow
            test_sharded_star_identity;
          Alcotest.test_case "snowflake-7 packed jobs=1 vs jobs=4" `Slow
            test_sharded_snowflake_identity;
          Alcotest.test_case "forced shard finds the optimum" `Quick
            test_forced_shard_same_optimum;
          Alcotest.test_case "certificates" `Quick test_certificates;
        ] );
      ( "cache concurrency",
        [
          Alcotest.test_case "warm counters exact" `Quick
            test_cache_counters_exact_concurrent;
          Alcotest.test_case "cold cache consistent" `Quick
            test_cache_cold_concurrent;
          Alcotest.test_case "bounded cache capacity" `Quick
            test_cache_bounded_concurrent;
          Alcotest.test_case "skeletons built concurrently" `Quick
            test_skeletons_concurrent;
          Alcotest.test_case "jobs-1 counters pinned" `Quick
            test_cache_stats_pinned;
          Alcotest.test_case "bounded cache full under search" `Quick
            test_bounded_cache_full_under_search;
        ] );
    ]
