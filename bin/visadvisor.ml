(* visadvisor — command-line front end for the VIS optimizer.

   Subcommands:
     optimize     A* optimal view/index selection
     exhaustive   exhaustive baseline (small schemas only)
     greedy       greedy heuristic
     advise       Section-5 rules of thumb with per-decision explanations
     space        space-constrained sweep (Figures 10/11)
     sensitivity  delta-rate sensitivity (Figure 12)
     validate     execute one refresh on the storage engine
     dag          print the expression DAG
     example      print a sample schema description

   Running visadvisor with no subcommand is `optimize`.  The search
   subcommands take --stats (search counters, pruning, cache hit rates),
   --trace (the chosen design's update paths), and --json (one
   machine-readable document instead of the human tables).

   Schemas are read from a file in the vis_catalog DSL, or one of the
   built-ins (--builtin schema1|schema2|validation). *)

open Cmdliner

module Schema = Vis_catalog.Schema
module Config = Vis_costmodel.Config
module Cost = Vis_costmodel.Cost
module Element = Vis_costmodel.Element
module Json = Vis_util.Json
module T = Vis_util.Tableprint
module Problem = Vis_core.Problem
module Search_stats = Vis_core.Search_stats

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("visadvisor: " ^ msg);
      exit 2)
    fmt

(* "star8" -> Some 8, "snowflake7" -> Some 7 (relative to its prefix). *)
let parse_sized prefix name =
  let pl = String.length prefix in
  if String.length name > pl && String.sub name 0 pl = prefix then
    int_of_string_opt (String.sub name pl (String.length name - pl))
  else None

let load_schema file builtin =
  match (file, builtin) with
  | Some path, _ -> (
      try Vis_catalog.Dsl.parse_file path with
      | Vis_catalog.Dsl.Parse_error (line, msg) ->
          die "%s, line %d: %s" path line msg
      | Sys_error msg -> die "%s" msg)
  | None, "schema1" -> Vis_workload.Schemas.schema1 ()
  | None, "schema2" -> Vis_workload.Schemas.schema2 ()
  | None, "validation" -> Vis_workload.Schemas.validation ()
  | None, other -> (
      (* star<N>: a star warehouse of N relations (one fact, N−1 dims);
         snowflake<N>: N relations as (N−1)/2 arms normalized 2 deep. *)
      match (parse_sized "star" other, parse_sized "snowflake" other) with
      | Some k, _ when 3 <= k && k <= 25 ->
          Vis_workload.Schemas.star ~n_dims:(k - 1) ()
      | Some k, _ -> die "star<N>: N must be 3..25 relations (got %d)" k
      | _, Some k when k >= 5 && k mod 2 = 1 && k <= 25 ->
          Vis_workload.Schemas.snowflake ~arms:((k - 1) / 2) ~depth:2 ()
      | _, Some k -> die "snowflake<N>: N must be odd, 5..25 (got %d)" k
      | None, None ->
          die
            "unknown builtin schema %S (expected schema1, schema2, \
             validation, star<N> or snowflake<N>)"
            other)

let schema_name file builtin =
  match file with Some path -> path | None -> builtin

let file_arg =
  let doc = "Schema description file (vis DSL); see $(b,visadvisor example)." in
  Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)

let builtin_arg =
  let doc =
    "Built-in schema: schema1, schema2, validation, star$(b,N) (a star \
     warehouse of $(b,N) relations, e.g. star8) or snowflake$(b,N) \
     ($(b,N) odd: (N-1)/2 dimension arms normalized two levels deep, e.g. \
     snowflake7).  For the generated warehouses combine with \
     $(b,--connected-only) and $(b,--cap-views) to keep the candidate \
     lattice tractable."
  in
  Arg.(value & opt string "schema1" & info [ "builtin" ] ~docv:"NAME" ~doc)

let stats_arg =
  let doc =
    "Print search statistics: states expanded/generated, per-rule pruning \
     counts, frontier high-water mark, admissibility checks, per-phase \
     timings, and cost-cache hit rates."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let trace_arg =
  let doc =
    "Print the chosen design's full cost breakdown: every update path the \
     optimizer would execute, with per-component I/O estimates."
  in
  Arg.(value & flag & info [ "trace" ] ~doc)

let json_arg =
  let doc =
    "Emit one machine-readable JSON document (configuration, cost, search \
     statistics, cache counters, the --trace breakdown, and a $(b,wall) \
     member with phase times and worker-pool shape) instead of the human \
     tables."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel search phases (default: the \
     $(b,VISMAT_JOBS) environment variable, else the number of cores). \
     The chosen design, its cost, and every search counter are identical \
     at any setting; only wall-clock time and the cost cache's hit/miss \
     split change."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let cap_views_arg =
  let doc =
    "Cap candidate supporting views at $(docv) base relations per view \
     (see Problem.make's max_view_rels).  Recommended for star/snowflake \
     builtins, whose full subset lattice is intractable."
  in
  Arg.(value & opt (some int) None & info [ "cap-views" ] ~docv:"K" ~doc)

let connected_only_arg =
  let doc =
    "Exclude cross-product candidate views (keep only connected relation \
     subsets).  The paper keeps them, so the default is off."
  in
  Arg.(value & flag & info [ "connected-only" ] ~doc)

let compression_arg =
  let doc =
    "Add page-level compression candidates: one per always-materialized \
     element (base replicas and the primary view), a third feature axis \
     the search trades on (reads x0.65, writes x1.10 per page, half the \
     stored pages).  Off by default — without it every cost is bitwise \
     identical to the compression-free model."
  in
  Arg.(value & flag & info [ "compression" ] ~doc)

let budget_arg =
  let doc =
    "Switch to the budgeted anytime search: stop after about $(docv) \
     expansions and report the best design found with a proven \
     optimality-gap certificate instead of failing."
  in
  Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"N" ~doc)

let beam_arg =
  let doc =
    "Beam width: cap every search frontier at $(docv) states, discarding \
     the least promising (their best discarded bound feeds the optimality \
     gap).  Implies the budgeted anytime mode."
  in
  Arg.(value & opt (some int) None & info [ "beam" ] ~docv:"B" ~doc)

let shard_arg =
  let doc =
    "Force the coarse-grained sharded search on ($(b,--shard=true)) or off \
     ($(b,--shard=false)).  Default: problems with at least 32 \
     post-dominance features shard, smaller ones run the single-queue \
     loop.  Results are identical either way."
  in
  Arg.(value & opt (some bool) None & info [ "shard" ] ~docv:"BOOL" ~doc)

let mine_arg =
  let doc =
    "Workload-driven mode: generate a seeded synthetic query log over the \
     schema, mine frequent access patterns (closed itemsets), and run the \
     search on the pruned, workload-proportional candidate set instead of \
     the exhaustive enumeration."
  in
  Arg.(value & flag & info [ "mine" ] ~doc)

let minsup_arg =
  let doc =
    "Minimum support for the miner, as a fraction of the log in [0, 1]: \
     an access pattern must appear in at least this share of queries to \
     yield candidates.  0 keeps full coverage (bit-identical to the \
     unpruned enumeration).  Implies $(b,--mine)."
  in
  Arg.(value & opt (some float) None & info [ "minsup" ] ~docv:"F" ~doc)

let log_queries_arg =
  let doc =
    "Number of synthetic queries to generate for mining.  Implies \
     $(b,--mine)."
  in
  Arg.(value & opt (some int) None & info [ "log-queries" ] ~docv:"N" ~doc)

let log_seed_arg =
  let doc = "Seed of the synthetic query log (mining is deterministic)." in
  Arg.(value & opt int 42 & info [ "log-seed" ] ~docv:"SEED" ~doc)

let log_zipf_arg =
  let doc =
    "Zipf skew of attribute popularity in the generated log; 0 makes \
     every query-relevant attribute equally popular."
  in
  Arg.(value & opt float 1.2 & info [ "log-zipf" ] ~docv:"S" ~doc)

let report_config schema config cost =
  Printf.printf "total maintenance cost: %.1f page I/Os\n" cost;
  Printf.printf "%s\n" (Config.describe schema config)

(* One observability document shared by every search subcommand: what ran,
   what it chose, what it cost, and what the search and the cost cache did.
   [wall] holds the search's phase times and worker-pool shape, which vary
   run to run.  [--json] prints it whole; otherwise
   [headline] runs and [--stats] and [--trace] print the members they name
   as tables. *)
let emit ~json ~stats ~trace ~headline ~schema_name ~algorithm ~schema ~p
    ~config ~cost ~search_stats ~extra =
  let report = Vis_core.Explain.explain p config in
  let doc =
    Json.Obj
      ([
         ("schema", Json.String schema_name);
         ("algorithm", Json.String algorithm);
         ("total_cost", Json.Float cost);
         ("config", Json.String (Config.describe schema config));
         ("space_pages", Json.Float (Config.space p.Problem.derived config));
         ("search", Search_stats.to_json search_stats);
         ("cache", Cost.cache_stats_json p.Problem.cache);
         ("explain", Vis_core.Explain.report_json report);
       ]
      @ extra
      @ [ ("wall", Search_stats.wall_json search_stats) ])
  in
  if json then print_endline (Json.to_string ~indent:2 doc)
  else begin
    headline ();
    let section key =
      print_newline ();
      print_string (T.of_json ~title:key (Json.member key doc))
    in
    if stats then List.iter section [ "search"; "cache"; "wall" ];
    if trace then section "explain"
  end

let certificate_json = function
  | Vis_core.Astar.Optimal -> Json.Obj [ ("optimal", Json.Bool true) ]
  | Vis_core.Astar.Bounded { lower_bound; gap } ->
      Json.Obj
        [
          ("optimal", Json.Bool false);
          ("lower_bound", Json.Float lower_bound);
          ("gap", Json.Float gap);
        ]

let print_certificate = function
  | Vis_core.Astar.Optimal -> print_endline "certificate: optimal"
  | Vis_core.Astar.Bounded { lower_bound; gap } ->
      Printf.printf
        "certificate: best found (optimum is >= %.1f, gap <= %.1f%%)\n"
        lower_bound (100. *. gap)

(* Fail fast on nonsense worker counts instead of handing them to the
   domain pool downstream. *)
let check_jobs jobs =
  match jobs with
  | Some j when j < 1 -> die "--jobs must be >= 1 (got %d)" j
  | _ -> ()

let run_optimize file builtin stats trace json jobs cap_views connected_only
    compression budget beam shard mine minsup log_queries log_seed log_zipf =
  check_jobs jobs;
  (match cap_views with
  | Some k when k < 1 -> die "--cap-views must be >= 1 (got %d)" k
  | Some _ | None -> ());
  (match budget with
  | Some b when b < 0 -> die "--budget must be >= 0 (got %d)" b
  | Some _ | None -> ());
  (match beam with
  | Some b when b < 1 -> die "--beam must be >= 1 (got %d)" b
  | Some _ | None -> ());
  let schema = load_schema file builtin in
  let mine = mine || minsup <> None || log_queries <> None in
  let make ?candidates () =
    Problem.make ~connected_only ~compression ?max_view_rels:cap_views
      ?candidates schema
  in
  (* Workload-driven mode: the unpruned problem is still enumerated (its
     feature count is the reduction baseline) but only the mined one is
     searched. *)
  let p, mining =
    if not mine then (make (), None)
    else begin
      let minsup = Option.value ~default:0.1 minsup in
      if minsup < 0. || minsup > 1. then
        die "--minsup must be in [0,1] (got %g)" minsup;
      let n = Option.value ~default:400 log_queries in
      if n < 1 then die "--log-queries must be >= 1 (got %d)" n;
      let log =
        Vis_workload.Querygen.generate ~seed:log_seed ~n ~zipf:log_zipf schema
      in
      let m = Vis_workload.Miner.mine ~minsup schema log in
      let p_full = make () in
      let p = make ~candidates:m.Vis_workload.Miner.m_candidates () in
      (p, Some (m, p_full))
    end
  in
  let budgeted = budget <> None || beam <> None in
  let r, certificate =
    if budgeted then
      let r, c =
        Vis_core.Astar.search_budgeted ?max_expanded:budget ?beam ?jobs ?shard
          p
      in
      (r, Some c)
    else (Vis_core.Astar.search ?jobs ?shard p, None)
  in
  let sstats = r.Vis_core.Astar.search_stats in
  let ex_states = r.Vis_core.Astar.stats.Vis_core.Astar.exhaustive_states in
  let mining_json =
    match mining with
    | None -> []
    | Some (m, p_full) ->
        let st = m.Vis_workload.Miner.m_stats in
        [
          ( "mining",
            Json.Obj
              [
                ("queries", Json.Int st.Vis_workload.Miner.mn_queries);
                ("support_threshold", Json.Int st.Vis_workload.Miner.mn_threshold);
                ("attr_universe", Json.Int st.Vis_workload.Miner.mn_universe);
                ("frequent_attrs", Json.Int st.Vis_workload.Miner.mn_frequent_attrs);
                ("closed_itemsets", Json.Int st.Vis_workload.Miner.mn_itemsets);
                ("views_full", Json.Int (List.length p_full.Problem.candidate_views));
                ("views_mined", Json.Int (List.length p.Problem.candidate_views));
                ("features_full", Json.Int (List.length p_full.Problem.features));
                ("features_mined", Json.Int (List.length p.Problem.features));
              ] );
        ]
  in
  let headline () =
    List.iter
      (fun (key, v) -> print_string (T.of_json ~title:key v); print_newline ())
      mining_json;
    Printf.printf
      "A* expanded %d states (exhaustive space: %.0f, pruning %.2f%%)\n"
      r.Vis_core.Astar.stats.Vis_core.Astar.expanded ex_states
      (100.
      *. (1.
         -. float_of_int r.Vis_core.Astar.stats.Vis_core.Astar.expanded
            /. Float.max 1. ex_states));
    report_config schema r.Vis_core.Astar.best r.Vis_core.Astar.best_cost;
    Option.iter print_certificate certificate
  in
  emit ~json ~stats ~trace ~headline ~schema_name:(schema_name file builtin)
    ~algorithm:"astar" ~schema ~p ~config:r.Vis_core.Astar.best
    ~cost:r.Vis_core.Astar.best_cost ~search_stats:sstats
    ~extra:
      (("exhaustive_states", Json.Float ex_states)
      :: (mining_json
         @
         match certificate with
         | Some c -> [ ("certificate", certificate_json c) ]
         | None -> []))

let optimize_term =
  Term.(
    const run_optimize $ file_arg $ builtin_arg $ stats_arg $ trace_arg
    $ json_arg $ jobs_arg $ cap_views_arg $ connected_only_arg
    $ compression_arg $ budget_arg $ beam_arg $ shard_arg $ mine_arg
    $ minsup_arg $ log_queries_arg $ log_seed_arg $ log_zipf_arg)

let optimize_cmd =
  Cmd.v (Cmd.info "optimize" ~doc:"Optimal view/index selection with A*")
    optimize_term

let exhaustive_cmd =
  let run file builtin stats trace json jobs =
    check_jobs jobs;
    let schema = load_schema file builtin in
    let p = Problem.make schema in
    let r = Vis_core.Exhaustive.search ?jobs p in
    let sstats = r.Vis_core.Exhaustive.search_stats in
    let headline () =
      Printf.printf "exhaustive enumerated %d states\n"
        r.Vis_core.Exhaustive.states;
      report_config schema r.Vis_core.Exhaustive.best
        r.Vis_core.Exhaustive.best_cost
    in
    emit ~json ~stats ~trace ~headline ~schema_name:(schema_name file builtin)
      ~algorithm:"exhaustive" ~schema ~p ~config:r.Vis_core.Exhaustive.best
      ~cost:r.Vis_core.Exhaustive.best_cost ~search_stats:sstats ~extra:[]
  in
  Cmd.v
    (Cmd.info "exhaustive" ~doc:"Exhaustive baseline (small schemas only)")
    Term.(
      const run $ file_arg $ builtin_arg $ stats_arg $ trace_arg $ json_arg
      $ jobs_arg)

let greedy_cmd =
  let run file builtin stats trace json jobs =
    check_jobs jobs;
    let schema = load_schema file builtin in
    let p = Problem.make schema in
    let r = Vis_core.Greedy.search ?jobs p in
    let sstats = r.Vis_core.Greedy.search_stats in
    let headline () =
      Printf.printf "greedy evaluated %d configurations\n"
        r.Vis_core.Greedy.evaluations;
      List.iter
        (fun s ->
          Printf.printf "  + %s -> %.1f\n"
            (Problem.feature_name p s.Vis_core.Greedy.s_feature)
            s.Vis_core.Greedy.s_cost_after)
        r.Vis_core.Greedy.steps;
      report_config schema r.Vis_core.Greedy.best r.Vis_core.Greedy.best_cost
    in
    emit ~json ~stats ~trace ~headline ~schema_name:(schema_name file builtin)
      ~algorithm:"greedy" ~schema ~p ~config:r.Vis_core.Greedy.best
      ~cost:r.Vis_core.Greedy.best_cost ~search_stats:sstats ~extra:[]
  in
  Cmd.v
    (Cmd.info "greedy" ~doc:"Greedy heuristic")
    Term.(
      const run $ file_arg $ builtin_arg $ stats_arg $ trace_arg $ json_arg
      $ jobs_arg)

let advise_cmd =
  let run file builtin =
    let schema = load_schema file builtin in
    let p = Problem.make schema in
    let a = Vis_core.Rules.advise p in
    List.iter
      (fun d ->
        Printf.printf "%s %-22s rule %-8s benefit %10.0f cost %10.0f  %s\n"
          (if d.Vis_core.Rules.d_chosen then "+" else "-")
          (Problem.feature_name p d.Vis_core.Rules.d_feature)
          d.Vis_core.Rules.d_rule d.Vis_core.Rules.d_benefit
          d.Vis_core.Rules.d_cost d.Vis_core.Rules.d_why)
      a.Vis_core.Rules.a_decisions;
    let cost = Problem.total p a.Vis_core.Rules.a_config in
    report_config schema a.Vis_core.Rules.a_config cost
  in
  Cmd.v
    (Cmd.info "advise" ~doc:"Rules-of-thumb advisor (Section 5)")
    Term.(const run $ file_arg $ builtin_arg)

let explain_cmd =
  let run file builtin algorithm json =
    let schema = load_schema file builtin in
    let p = Problem.make schema in
    let config =
      match algorithm with
      | "optimal" -> (Vis_core.Astar.search p).Vis_core.Astar.best
      | "greedy" -> (Vis_core.Greedy.search p).Vis_core.Greedy.best
      | "local" -> (Vis_core.Local_search.search p).Vis_core.Local_search.best
      | "rules" -> (Vis_core.Rules.advise p).Vis_core.Rules.a_config
      | "none" -> Config.empty
      | other -> Printf.ksprintf failwith "unknown algorithm %s" other
    in
    let doc =
      Vis_core.Explain.report_json (Vis_core.Explain.explain p config)
    in
    if json then print_endline (Json.to_string ~indent:2 doc)
    else begin
      print_string (T.of_json doc);
      print_newline ();
      print_string
        (Vis_core.Explain.compare_designs p
           [ ("bare", Config.empty); ("chosen", config) ])
    end
  in
  let algorithm =
    Arg.(
      value & opt string "optimal"
      & info [ "algorithm" ] ~docv:"ALG"
          ~doc:"Design to explain: optimal, greedy, local, rules or none.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show every update path and cost component of a design")
    Term.(const run $ file_arg $ builtin_arg $ algorithm $ json_arg)

let space_cmd =
  let run file builtin =
    let schema = load_schema file builtin in
    let p = Problem.make schema in
    let sw = Vis_core.Space.sweep p in
    Printf.printf
      "base relations: %.0f pages; unconstrained optimum: %.1f I/Os\n"
      sw.Vis_core.Space.sw_base_pages sw.Vis_core.Space.sw_unconstrained_cost;
    List.iter
      (fun st ->
        Printf.printf "space %8.0f (%.3f of base)  cost %10.1f  +[%s] -[%s]\n"
          st.Vis_core.Space.st_space
          (st.Vis_core.Space.st_space /. sw.Vis_core.Space.sw_base_pages)
          st.Vis_core.Space.st_cost
          (String.concat ", " st.Vis_core.Space.st_added)
          (String.concat ", " st.Vis_core.Space.st_dropped))
      sw.Vis_core.Space.sw_steps
  in
  Cmd.v
    (Cmd.info "space" ~doc:"Space-constrained sweep (Section 6.1)")
    Term.(const run $ file_arg $ builtin_arg)

let sensitivity_cmd =
  let run () =
    let rates = [ 0.001; 0.00316; 0.01; 0.0316; 0.1 ] in
    let make rate =
      Vis_workload.Schemas.schema1 ~ins_frac:(rate /. 2.) ~del_frac:(rate /. 2.) ()
    in
    let series =
      Vis_core.Sensitivity.sweep ~make_schema:make ~values:rates
    in
    List.iter
      (fun s ->
        Printf.printf "estimated %-8g:" s.Vis_core.Sensitivity.se_estimate;
        List.iter
          (fun (actual, ratio) -> Printf.printf "  %g->%.2f" actual ratio)
          s.Vis_core.Sensitivity.se_ratios;
        print_newline ())
      series
  in
  Cmd.v
    (Cmd.info "sensitivity"
       ~doc:"Sensitivity of the optimum to the insertion-deletion rate (Section 6.2)")
    Term.(const run $ const ())

let validate_cmd =
  let run seed faults fault_seed scrub damage stats json =
    if faults < 0 then die "--faults must be >= 0 (got %d)" faults;
    if damage < 1 then die "--damage must be >= 1 (got %d)" damage;
    let schema = Vis_workload.Schemas.validation () in
    let p = Problem.make schema in
    let r = Vis_core.Astar.search p in
    let best = r.Vis_core.Astar.best in
    let module R = Vis_maintenance.Refresh in
    let module V = Vis_maintenance.Validate in
    let module W = Vis_maintenance.Warehouse in
    (* The validation refresh; its end state is also the fault trials'
       fault-free reference. *)
    let w_ref, batch = V.world ~seed schema best in
    let report = R.run w_ref batch in
    let checks = V.check_views w_ref in
    let refresh = R.report_json report in
    let views =
      Json.List
        (List.map
           (fun c ->
             Json.Obj
               [
                 ("view", Json.String c.V.vc_view);
                 ("expected", Json.Int c.V.vc_expected);
                 ("stored", Json.Int c.V.vc_actual);
                 ("ok", Json.Bool c.V.vc_ok);
               ])
           checks)
    in
    if json then
      print_endline
        (Json.to_string ~indent:2
           (Json.Obj
              ((("config", Json.String (Config.describe schema best))
               :: Json.fields refresh)
              @ [ ("views", views) ])))
    else begin
      Printf.printf "config: %s\n" (Config.describe schema best);
      Printf.printf "predicted I/O: %.0f, measured: %d (reads %d, writes %d)\n"
        report.R.rp_predicted
        (R.total_io report)
        report.R.rp_reads report.R.rp_writes;
      if stats then begin
        print_string (T.of_json ~title:"refresh" refresh);
        print_newline ()
      end;
      print_string (T.of_json ~title:"views" views)
    end;
    let ok = ref (V.all_ok checks) in
    if faults > 0 then begin
      let reference = V.reference w_ref in
      for trial = 1 to faults do
        let w, batch = V.world ~seed schema best in
        let plan =
          Vis_storage.Faults.random
            ~rng:(Random.State.make [| fault_seed; trial |])
            ()
        in
        let t = V.refresh_trial reference ~faults:plan w batch in
        let s = t.V.tr_stats in
        if not (V.verdict_ok t.V.tr_verdict) then ok := false;
        Printf.printf
          "fault trial %2d: attempts %d, injected %d, retries %d (backoff \
           %.1fms), rollbacks %d, undone %d, wal %d rec/%d pages — %s%s\n"
          trial s.R.fs_attempts s.R.fs_injected s.R.fs_retries
          s.R.fs_backoff_ms s.R.fs_rollbacks s.R.fs_undone s.R.fs_wal_records
          s.R.fs_wal_pages
          (V.verdict_name t.V.tr_verdict)
          (match t.V.tr_result with
          | Error e ->
              Format.asprintf " (%a)" Vis_storage.Faults.pp_fault
                e.R.err_fault
          | Ok _ -> "")
      done
    end;
    if scrub then begin
      let c = V.scrub_cycle ~seed ~damage schema best in
      let r = c.V.sk_report in
      let detected_all = r.W.sc_corrupt = c.V.sk_injected in
      Printf.printf
        "scrub: injected %d, scanned %d, convicted %d, views rebuilt %d, \
         indexes rebuilt %d, unrecoverable %d — %s\n"
        c.V.sk_injected r.W.sc_scanned r.W.sc_corrupt r.W.sc_views_rebuilt
        r.W.sc_indexes_rebuilt
        (List.length r.W.sc_unrecoverable)
        (if detected_all && c.V.sk_views_ok && c.V.sk_integrity_ok then
           "repaired, views exact"
         else "SCRUB FAILURE");
      if not detected_all then begin
        ok := false;
        Printf.printf "scrub: DETECTION MISS (%d of %d damaged pages)\n"
          r.W.sc_corrupt c.V.sk_injected
      end;
      if not c.V.sk_views_ok then begin
        ok := false;
        print_endline "scrub: POST-REPAIR VIEW MISMATCH"
      end;
      if not c.V.sk_integrity_ok then begin
        ok := false;
        print_endline "scrub: POST-REPAIR INTEGRITY FAILURE"
      end
    end;
    if not !ok then exit 1
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")
  in
  let faults =
    Arg.(
      value & opt int 0
      & info [ "faults" ] ~docv:"N"
          ~doc:
            "Additionally run $(docv) WAL-protected refreshes under random \
             seeded fault plans and check the recover-or-rollback guarantee.")
  in
  let fault_seed =
    Arg.(
      value & opt int 0
      & info [ "fault-seed" ] ~docv:"S"
          ~doc:"Seed for the injected fault plans.")
  in
  let scrub =
    Arg.(
      value & flag
      & info [ "scrub" ]
          ~doc:
            "Additionally run the corruption-recovery cycle: build \
             checksum-protected, inject seeded bit-flips/torn-writes into \
             rebuildable pages, scrub, and re-verify every view and index.")
  in
  let damage =
    Arg.(
      value & opt int 3
      & info [ "damage" ] ~docv:"N"
          ~doc:"Pages to damage in the $(b,--scrub) cycle.")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Execute one refresh on the storage engine and check correctness")
    Term.(
      const run $ seed $ faults $ fault_seed $ scrub $ damage $ stats_arg
      $ json_arg)

let dag_cmd =
  let run file builtin =
    let schema = load_schema file builtin in
    let p = Problem.make schema in
    Format.printf "%a@." (fun ppf () -> Vis_core.Dag.pp p ppf ()) ()
  in
  Cmd.v
    (Cmd.info "dag" ~doc:"Print the primary view's expression DAG (Figure 3)")
    Term.(const run $ file_arg $ builtin_arg)

let example_cmd =
  let run () =
    print_string (Vis_catalog.Dsl.to_string (Vis_workload.Schemas.schema1 ()))
  in
  Cmd.v
    (Cmd.info "example" ~doc:"Print a sample schema description (Schema 1)")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "visadvisor" ~version:"1.0.0"
      ~doc:
        "View and index selection for data warehouse maintenance (Labio, \
         Quass & Adelberg, ICDE 1997)"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default:optimize_term info
          [
            optimize_cmd;
            exhaustive_cmd;
            greedy_cmd;
            advise_cmd;
            explain_cmd;
            space_cmd;
            sensitivity_cmd;
            validate_cmd;
            dag_cmd;
            example_cmd;
          ]))
