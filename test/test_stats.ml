(* Tests for the observability layer: the JSON tree (printer/parser
   roundtrip), the cost-cache counters (hit/miss/eviction bookkeeping and
   semantic transparency — cached costs equal freshly computed ones), and
   the Search_stats scoreboard threaded through every search algorithm
   (counter invariants, admissibility audit, caching on/off equivalence). *)

module Bitset = Vis_util.Bitset
module Json = Vis_util.Json
module Schema = Vis_catalog.Schema
module Config = Vis_costmodel.Config
module Cost = Vis_costmodel.Cost
module Problem = Vis_core.Problem
module Astar = Vis_core.Astar
module Greedy = Vis_core.Greedy
module Search_stats = Vis_core.Search_stats

let checkb = Alcotest.(check bool)

let checki = Alcotest.(check int)

let checkf msg = Alcotest.(check (float 1e-9)) msg

let schema1 () = Vis_workload.Schemas.schema1 ()

(* ------------------------------------------------------------------ *)
(* JSON. *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("flag", Json.Bool true);
        ("n", Json.Int (-42));
        ("x", Json.Float 3.25);
        ("s", Json.String "a \"quoted\"\nline\twith\\escapes");
        ("empty_list", Json.List []);
        ("empty_obj", Json.Obj []);
        ( "nested",
          Json.List [ Json.Int 1; Json.Obj [ ("k", Json.Float 0.5) ]; Json.Null ]
        );
      ]
  in
  List.iter
    (fun rendered ->
      let parsed = Json.of_string rendered in
      checkb "roundtrip" true (parsed = v))
    [ Json.to_string v; Json.to_string ~indent:2 v ]

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | exception Json.Parse_error _ -> ()
      | v -> Alcotest.failf "parsed %S as %s" s (Json.to_string v))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "{\"a\" 1}" ]

let test_json_numbers () =
  checkb "int stays int" true (Json.of_string "17" = Json.Int 17);
  checkf "float member" 2.5
    (Json.to_float (Json.member "x" (Json.of_string "{\"x\": 2.5}")));
  checkf "int widens" 7. (Json.to_float (Json.of_string "7"));
  (* Non-finite floats cannot be represented; they print as null. *)
  checkb "nan is null" true (Json.to_string (Json.Float Float.nan) = "null");
  checkb "inf is null" true
    (Json.to_string (Json.Float Float.infinity) = "null");
  checkb "missing member" true (Json.member "y" (Json.of_string "{}") = Json.Null)

(* ------------------------------------------------------------------ *)
(* Cost-cache counters and transparency. *)

let test_cache_counters () =
  let schema = schema1 () in
  let derived = Vis_catalog.Derived.create schema in
  let cache = Cost.new_cache () in
  let before = Cost.cache_stats cache in
  checki "no hits yet" 0 before.Cost.cs_hits;
  let c1 = Cost.total_of ~cache derived Config.empty in
  let s1 = Cost.cache_stats cache in
  checkb "first run misses" true (s1.Cost.cs_misses > 0);
  checki "entries = misses (unbounded)" s1.Cost.cs_misses s1.Cost.cs_entries;
  let c2 = Cost.total_of ~cache derived Config.empty in
  let s2 = Cost.cache_stats cache in
  checkf "repeat total identical" c1 c2;
  checki "repeat run adds no misses" s1.Cost.cs_misses s2.Cost.cs_misses;
  checkb "repeat run hits" true (s2.Cost.cs_hits > s1.Cost.cs_hits);
  checki "no evictions unbounded" 0 s2.Cost.cs_evictions;
  Cost.reset_cache_stats cache;
  let s3 = Cost.cache_stats cache in
  checki "reset hits" 0 s3.Cost.cs_hits;
  checki "reset misses" 0 s3.Cost.cs_misses;
  checki "reset keeps entries" s2.Cost.cs_entries s3.Cost.cs_entries

let test_cache_eviction () =
  let schema = schema1 () in
  let derived = Vis_catalog.Derived.create schema in
  let cache = Cost.new_cache ~capacity:8 () in
  let unbounded = Cost.total_of derived Config.empty in
  let bounded = Cost.total_of ~cache derived Config.empty in
  checkf "bounded cache same total" unbounded bounded;
  let s = Cost.cache_stats cache in
  checkb "evictions happened" true (s.Cost.cs_evictions > 0);
  checkb "stays within capacity" true (s.Cost.cs_entries <= 8);
  (* Re-evaluating after evictions still gives the same answer. *)
  checkf "post-eviction total" unbounded (Cost.total_of ~cache derived Config.empty)

(* Every distinct configuration adds interned ids and memo keys; a bounded
   cache must hold its memory to what its capacity allows — the memo
   stripes and the intern trie alike — however many configurations it
   sees. *)
let test_cache_bounded_memory () =
  let p = Problem.make (schema1 ()) in
  let features = Array.of_list p.Problem.features in
  let cache = Cost.new_cache ~capacity:64 () in
  let rng = Random.State.make [| 3 |] in
  let seen = Hashtbl.create 16_384 in
  let config = ref Config.empty in
  while Hashtbl.length seen < 10_000 do
    let f = features.(Random.State.int rng (Array.length features)) in
    if Problem.has_feature !config f then config := Problem.drop_feature !config f
    else if Problem.applicable p !config f then config := Problem.add_feature !config f;
    let signature = Config.signature !config in
    if not (Hashtbl.mem seen signature) then begin
      Hashtbl.add seen signature ();
      ignore (Cost.total_of ~cache p.Problem.derived !config)
    end
  done;
  let s = Cost.cache_stats cache in
  checkb "evictions happened" true (s.Cost.cs_evictions > 10_000);
  checkb "stays within capacity" true (s.Cost.cs_entries <= 64);
  let w = Obj.reachable_words (Obj.repr cache) in
  if w > 16_384 then
    Alcotest.failf "cache holds %d words after 10k configurations" w

let random_config ~rng p =
  let views =
    List.filter (fun _ -> Random.State.bool rng) p.Problem.candidate_views
  in
  let indexes =
    List.filter (fun _ -> Random.State.bool rng)
      (Problem.indexes_for_views p views)
  in
  Config.make ~views ~indexes

(* Cached cost = freshly computed cost, on random schemas and random
   configurations, with the shared cache warmed by *other* configurations
   first (the cross-configuration sharing the search algorithms rely on). *)
let prop_cache_transparent =
  QCheck2.Test.make ~name:"cache: warmed shared cache equals fresh compute"
    ~count:60
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let schema = Vis_workload.Schemas.random ~rng () in
      let p = Problem.make schema in
      (* Warm the problem's shared cache with a few unrelated configs. *)
      for _ = 1 to 3 do
        ignore (Problem.total p (random_config ~rng p))
      done;
      let config = random_config ~rng p in
      let cached = Problem.total p config in
      let fresh = Cost.total_of p.Problem.derived config in
      Vis_util.Num.approx_equal ~eps:1e-9 cached fresh)

let prop_bounded_cache_transparent =
  QCheck2.Test.make ~name:"cache: eviction never changes a total" ~count:40
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let schema = Vis_workload.Schemas.random ~rng () in
      let derived = Vis_catalog.Derived.create schema in
      let p = Problem.make schema in
      let config = random_config ~rng p in
      let tiny = Cost.new_cache ~capacity:4 () in
      let bounded = Cost.total_of ~cache:tiny derived config in
      let fresh = Cost.total_of derived config in
      Vis_util.Num.approx_equal ~eps:1e-9 bounded fresh)

(* ------------------------------------------------------------------ *)
(* Search_stats invariants. *)

let check_invariants name (s : Search_stats.t) =
  checkb (name ^ ": expanded <= generated") true
    (Search_stats.expanded s <= Search_stats.generated s);
  checkb (name ^ ": generated <= evaluated") true
    (Search_stats.generated s <= Search_stats.evaluated s);
  checkb (name ^ ": no admissibility violations") true
    (Search_stats.admissibility_violations s = 0);
  List.iter
    (fun (_, seconds) -> checkb (name ^ ": phase time >= 0") true (seconds >= 0.))
    (Search_stats.phase_timings s)

let test_astar_stats_invariants () =
  let p = Problem.make (schema1 ()) in
  let r = Astar.search p in
  let s = r.Astar.search_stats in
  check_invariants "astar" s;
  (* The scoreboard and the legacy stats record agree. *)
  checki "expanded agrees" r.Astar.stats.Astar.expanded (Search_stats.expanded s);
  checki "generated agrees" r.Astar.stats.Astar.generated
    (Search_stats.generated s);
  (* Every popped state was audited against the proven optimum. *)
  checkb "admissibility audited" true (Search_stats.admissibility_checks s > 0);
  checkb "frontier observed" true (Search_stats.max_frontier s > 0);
  checkb "incumbent pruning observed" true
    (Search_stats.pruned s "incumbent-bound" > 0)

let test_heuristic_stats_invariants () =
  let p = Problem.make (schema1 ()) in
  check_invariants "greedy" (Greedy.search p).Greedy.search_stats;
  check_invariants "local-search"
    (Vis_core.Local_search.search p).Vis_core.Local_search.search_stats;
  let small = Problem.make (Vis_workload.Schemas.two_relation ()) in
  let ex = Vis_core.Exhaustive.search small in
  check_invariants "exhaustive" ex.Vis_core.Exhaustive.search_stats;
  checki "exhaustive: states = evaluations" ex.Vis_core.Exhaustive.states
    (Search_stats.evaluated ex.Vis_core.Exhaustive.search_stats)

let test_stats_json_valid () =
  let p = Problem.make (schema1 ()) in
  let r = Astar.search p in
  let doc = Json.to_string ~indent:2 (Search_stats.to_json r.Astar.search_stats) in
  let parsed = Json.of_string doc in
  checkb "expanded present" true
    (Json.to_float (Json.member "expanded" parsed) > 0.);
  checkb "pruning object present" true
    (match Json.member "pruning" parsed with
    | Json.Obj ((_ :: _) as rules) ->
        List.for_all (fun (_, v) -> Json.to_float v >= 0.) rules
    | _ -> false);
  let cache_doc = Json.of_string (Json.to_string (Cost.cache_stats_json p.Problem.cache)) in
  checkb "cache hits present" true
    (Json.to_float (Json.member "hits" cache_doc) > 0.)

let test_render_smoke () =
  let p = Problem.make (schema1 ()) in
  let r = Astar.search p in
  let mentions report needles =
    let text = Vis_util.Tableprint.of_json (report r.Astar.search_stats) in
    List.iter
      (fun needle ->
        checkb (Printf.sprintf "render mentions %S" needle) true
          (let nl = String.length needle and tl = String.length text in
           let rec scan i =
             i + nl <= tl && (String.sub text i nl = needle || scan (i + 1))
           in
           scan 0))
      needles
  in
  mentions Search_stats.to_json [ "expanded"; "pruning"; "incumbent-bound" ];
  mentions Search_stats.wall_json [ "phases_seconds" ]

(* The scoreboard is a pure function of the search: its rendering is
   byte-identical at jobs 1 and 4, whatever the clock and the domain
   scheduler did (those live in [wall_json]). *)
let test_scoreboard_jobs_independent () =
  let chain4 = Vis_workload.Schemas.chain ~n:4 () in
  List.iter
    (fun (name, run) ->
      let doc jobs = Json.to_string ~indent:2 (Search_stats.to_json (run jobs)) in
      Alcotest.(check string) (name ^ ": jobs 1 = jobs 4") (doc 1) (doc 4))
    [
      ( "astar schema1",
        fun jobs -> (Astar.search ~jobs (Problem.make (schema1 ()))).Astar.search_stats );
      ( "astar sharded chain-4",
        fun jobs ->
          (Astar.search ~jobs ~shard:true (Problem.make chain4)).Astar.search_stats );
      ( "exhaustive schema1 no deletions",
        fun jobs ->
          let p = Problem.make (Vis_workload.Schemas.schema1 ~del_frac:0. ()) in
          (Vis_core.Exhaustive.search ~jobs p).Vis_core.Exhaustive.search_stats );
      ( "greedy schema1",
        fun jobs -> (Greedy.search ~jobs (Problem.make (schema1 ()))).Greedy.search_stats );
    ]

(* Caching on/off must not change what any search algorithm finds. *)
let test_cache_onoff_same_optimum () =
  List.iter
    (fun (name, schema) ->
      let shared = Astar.search (Problem.make schema) in
      let private_ = Astar.search (Problem.make ~share_cache:false schema) in
      Alcotest.(check (float 1e-9))
        (name ^ ": same optimal cost") shared.Astar.best_cost
        private_.Astar.best_cost;
      checkb (name ^ ": same optimal config") true
        (Config.equal shared.Astar.best private_.Astar.best))
    [
      ("schema1", schema1 ());
      ("two_relation", Vis_workload.Schemas.two_relation ());
    ]

let prop_cache_onoff_random =
  QCheck2.Test.make ~name:"astar: caching on/off identical on random schemas"
    ~count:15
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let schema = Vis_workload.Schemas.random ~rng () in
      if Vis_core.Exhaustive.count_states (Problem.make schema) > 25_000. then
        true
      else begin
        let shared = Astar.search (Problem.make schema) in
        let private_ = Astar.search (Problem.make ~share_cache:false schema) in
        Vis_util.Num.approx_equal ~eps:1e-9 shared.Astar.best_cost
          private_.Astar.best_cost
        && Config.equal shared.Astar.best private_.Astar.best
      end)

(* ------------------------------------------------------------------ *)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "vis_stats"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
        ] );
      ( "cost cache",
        [
          Alcotest.test_case "counters" `Quick test_cache_counters;
          Alcotest.test_case "eviction" `Quick test_cache_eviction;
          Alcotest.test_case "memory bounded by capacity" `Quick
            test_cache_bounded_memory;
        ]
        @ qt [ prop_cache_transparent; prop_bounded_cache_transparent ] );
      ( "search stats",
        [
          Alcotest.test_case "astar invariants" `Quick test_astar_stats_invariants;
          Alcotest.test_case "heuristic invariants" `Quick
            test_heuristic_stats_invariants;
          Alcotest.test_case "json valid" `Quick test_stats_json_valid;
          Alcotest.test_case "render smoke" `Quick test_render_smoke;
          Alcotest.test_case "scoreboard jobs-independent" `Quick
            test_scoreboard_jobs_independent;
          Alcotest.test_case "cache on/off optimum" `Quick
            test_cache_onoff_same_optimum;
        ]
        @ qt [ prop_cache_onoff_random ] );
    ]
