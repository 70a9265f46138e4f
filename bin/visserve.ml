(* visserve — the multi-tenant advisor daemon on the simulated clock.

   Runs [Vis_service.Service] over N tenants of the executable validation
   schema: seeded zipfian delta streams, parallel group-commit refreshes,
   EWMA rate monitoring and sensitivity-gated online re-optimization with
   warm-started budgeted A*.  Everything is deterministic in
   (--seed, tenants, ticks): two runs at different --jobs print identical
   counters and signatures.

     visserve --tenants 3 --ticks 20 --seed 42 --jobs 4
     visserve --tenants 2 --ticks 12 --drift-tenant 0 --drift-factor 3 \
              --drift-at 4 --fault-tenant 1 --fault-nth 40 --stats

   Exit status: 0 on a clean run, 1 when any tenant's stream failed
   (a replayed batch exhausted its attempts), 2 on usage errors. *)

open Cmdliner
module Json = Vis_util.Json
module Service = Vis_service.Service
module Stream = Vis_workload.Stream
module Faults = Vis_storage.Faults

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("visserve: " ^ msg);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Arguments. *)

let tenants_arg =
  let doc = "Number of tenants to register." in
  Arg.(value & opt int 3 & info [ "tenants" ] ~docv:"N" ~doc)

let ticks_arg =
  let doc = "Service ticks to run." in
  Arg.(value & opt int 20 & info [ "ticks" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Root seed of every stream draw." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc = "Domain-pool width for the parallel refresh rounds (and the \
             re-optimizer)." in
  Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N" ~doc)

let rate_arg =
  let doc = "Mean batches/tick of the heaviest tenant; tenant $(i,k) gets \
             this weighted by $(i,1/(k+1)^zipf)." in
  Arg.(value & opt float 3.0 & info [ "rate" ] ~docv:"R" ~doc)

let zipf_arg =
  let doc = "Zipf exponent skewing per-tenant rates." in
  Arg.(value & opt float 1.0 & info [ "zipf" ] ~docv:"S" ~doc)

let base_card_arg =
  let doc = "Base-relation cardinality of the validation schema each \
             tenant runs." in
  Arg.(value & opt float 400. & info [ "base-card" ] ~docv:"N" ~doc)

let drift_tenant_arg =
  let doc = "Tenant whose delta volume drifts (default: none)." in
  Arg.(value & opt (some int) None & info [ "drift-tenant" ] ~docv:"ID" ~doc)

let drift_factor_arg =
  let doc = "Step-drift volume factor." in
  Arg.(value & opt float 3.0 & info [ "drift-factor" ] ~docv:"F" ~doc)

let drift_at_arg =
  let doc = "Tick the step drift begins at." in
  Arg.(value & opt int 4 & info [ "drift-at" ] ~docv:"TICK" ~doc)

let fault_tenant_arg =
  let doc = "Tenant that gets a crash fault plan injected (default: none)." in
  Arg.(value & opt (some int) None & info [ "fault-tenant" ] ~docv:"ID" ~doc)

let fault_nth_arg =
  let doc = "The crash fires on this tenant's $(docv)-th page write." in
  Arg.(value & opt int 40 & info [ "fault-nth" ] ~docv:"N" ~doc)

let budget_arg =
  let doc = "A* expansion budget per re-optimization." in
  Arg.(value & opt int 20_000 & info [ "budget" ] ~docv:"N" ~doc)

let band_arg =
  let doc = "EWMA trigger band (e.g. 1.5 tolerates ±50% rate drift)." in
  Arg.(value & opt float 1.5 & info [ "band" ] ~docv:"F" ~doc)

let gate_arg =
  let doc = "Sensitivity-probe gate ratio above which a full \
             re-optimization runs." in
  Arg.(value & opt float 1.02 & info [ "gate" ] ~docv:"F" ~doc)

let warmup_arg =
  let doc = "Ticks before the monitor may trigger." in
  Arg.(value & opt int 2 & info [ "warmup" ] ~docv:"N" ~doc)

let minsup_arg =
  let doc =
    "Enable workload-driven re-optimization: before each budgeted search, \
     mine the tenant's recent synthetic query history at this minimum \
     support and restrict the candidate space to the mined features.  \
     Omitted: exhaustive enumeration (the pre-mining daemon, bit for bit)."
  in
  Arg.(value & opt (some float) None & info [ "minsup" ] ~docv:"F" ~doc)

let mine_arg =
  let doc = "Shorthand for $(b,--minsup) 0.1." in
  Arg.(value & flag & info [ "mine" ] ~doc)

let log_queries_arg =
  let doc = "Queries per mined tenant history (with $(b,--minsup))." in
  Arg.(value & opt int 256 & info [ "log-queries" ] ~docv:"N" ~doc)

let scrub_every_arg =
  let doc =
    "Build every tenant checksum-protected and run a scrub (detect, \
     quarantine, rebuild) pass over each tenant every $(docv) ticks.  \
     0 disables checksums and scrubbing."
  in
  Arg.(value & opt int 0 & info [ "scrub-every" ] ~docv:"N" ~doc)

let stats_arg =
  let doc = "Print the per-tenant counter table." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let json_arg =
  let doc = "Emit one machine-readable JSON report instead of the tables." in
  Arg.(value & flag & info [ "json" ] ~doc)

(* ------------------------------------------------------------------ *)

let serve tenants ticks seed jobs rate zipf base_card drift_tenant
    drift_factor drift_at fault_tenant fault_nth budget band gate warmup
    minsup mine log_queries scrub_every stats json =
  if tenants < 1 then die "--tenants must be >= 1";
  if ticks < 1 then die "--ticks must be >= 1";
  if jobs < 1 then die "--jobs must be >= 1";
  if band <= 1. then die "--band must be > 1";
  if scrub_every < 0 then die "--scrub-every must be >= 0";
  if rate < 0. then die "--rate must be >= 0";
  if base_card < 1. then die "--base-card must be >= 1";
  if budget < 0 then die "--budget must be >= 0";
  if warmup < 0 then die "--warmup must be >= 0";
  if fault_nth < 1 then die "--fault-nth must be >= 1";
  if drift_factor < 0. then die "--drift-factor must be >= 0";
  let check_tenant flag = function
    | Some id when id < 0 || id >= tenants ->
        die "%s must name a tenant in [0,%d] (got %d)" flag (tenants - 1) id
    | Some _ | None -> ()
  in
  check_tenant "--drift-tenant" drift_tenant;
  check_tenant "--fault-tenant" fault_tenant;
  let minsup =
    match minsup with
    | Some s when s < 0. || s > 1. -> die "--minsup must be in [0,1]"
    | Some _ as s -> s
    | None -> if mine then Some 0.1 else None
  in
  if log_queries < 1 then die "--log-queries must be >= 1";
  let schema = Vis_workload.Schemas.validation ~base_card () in
  let config =
    {
      Service.default_config with
      Service.sv_seed = seed;
      sv_jobs = jobs;
      sv_budget = budget;
      sv_band = band;
      sv_gate = gate;
      sv_warmup = warmup;
      sv_minsup = minsup;
      sv_log_queries = log_queries;
      sv_scrub_every = scrub_every;
    }
  in
  let svc = Service.create ~config () in
  (* Every tenant runs the same schema, so one optimized design serves as
     every tenant's initial configuration — cheaper than re-searching per
     tenant and identical to what add_tenant would compute. *)
  let design =
    let r, _ =
      Vis_core.Astar.search_budgeted ~max_expanded:budget ~jobs
        (Vis_core.Problem.make schema)
    in
    r.Vis_core.Astar.best
  in
  for k = 0 to tenants - 1 do
    let drift =
      match drift_tenant with
      | Some id when id = k ->
          Stream.Step { at = drift_at; factor = drift_factor }
      | _ -> Stream.Constant
    in
    let faults =
      match fault_tenant with
      | Some id when id = k ->
          Some
            (Faults.make
               [
                 Faults.Fail_nth
                   { op = Some Faults.Write; n = fault_nth; kind = Faults.Crash };
               ])
      | _ -> None
    in
    ignore
      (Service.add_tenant ~seed:(seed + k)
         ~rate:(rate *. Stream.zipf_weight ~s:zipf ~rank:k)
         ~drift ?faults ~config:design svc schema)
  done;
  let started = Unix.gettimeofday () in
  Service.run svc ~ticks;
  let wall_s = Unix.gettimeofday () -. started in
  let totals = Service.totals svc in
  let per s = if s > 0. then float_of_int totals.Service.tt_rows /. s else 0. in
  let seconds = totals.Service.tt_clock_ms /. 1000. in
  let doc =
    Json.Obj
      [
        ("seed", Json.Int seed);
        ("jobs", Json.Int jobs);
        ("ticks", Json.Int ticks);
        ("tenants", Json.Int tenants);
        ("clock_ms", Json.Float totals.Service.tt_clock_ms);
        ("batches", Json.Int totals.Service.tt_batches);
        ("rows", Json.Int totals.Service.tt_rows);
        ("deltas_per_sim_s", Json.Float (per seconds));
        ( "wall",
          Json.Obj
            [
              ("seconds", Json.Float wall_s);
              ("deltas_per_s", Json.Float (per wall_s));
            ] );
        ("failed", Json.Int totals.Service.tt_failed);
        ("reopts", Json.Int totals.Service.tt_reopts);
        ("swaps", Json.Int totals.Service.tt_swaps);
        ("scrubs", Json.Int totals.Service.tt_scrubs);
        ("scrub_corrupt", Json.Int totals.Service.tt_scrub_corrupt);
        ("scrub_rebuilt", Json.Int totals.Service.tt_scrub_rebuilt);
        ("mean_latency_sim_ms", Json.Float totals.Service.tt_mean_latency_ms);
        ("p99_latency_sim_ms", Json.Float totals.Service.tt_p99_latency_ms);
        ( "tenants_detail",
          Json.List
            (List.map
               (fun id ->
                 let s = Service.tenant_stats_json (Service.stats svc id) in
                 Json.Obj
                   (Json.fields s
                   @ [ ("signature", Json.String (Service.signature svc id)) ]))
               (Service.tenant_ids svc)) );
      ]
  in
  if json then print_endline (Json.to_string ~indent:2 doc)
  else begin
    Printf.printf
      "served %d tenants for %d ticks (%.1f simulated s, seed %d, jobs %d)\n"
      tenants ticks seconds seed jobs;
    Printf.printf
      "  %d batches, %d delta rows (%.0f deltas/simulated s, %.0f deltas/wall \
       s), simulated latency mean %.1f ms  p99 %.1f ms\n"
      totals.Service.tt_batches totals.Service.tt_rows (per seconds) (per wall_s)
      totals.Service.tt_mean_latency_ms totals.Service.tt_p99_latency_ms;
    Printf.printf "  re-optimizations %d, swaps %d, failed streams %d\n"
      totals.Service.tt_reopts totals.Service.tt_swaps
      totals.Service.tt_failed;
    if scrub_every > 0 then
      Printf.printf
        "  scrub passes %d, pages convicted %d, structures rebuilt %d\n"
        totals.Service.tt_scrubs totals.Service.tt_scrub_corrupt
        totals.Service.tt_scrub_rebuilt;
    if stats then
      print_string
        (Vis_util.Tableprint.of_json ~title:"tenants_detail"
           (Json.member "tenants_detail" doc))
  end;
  Service.shutdown svc;
  if totals.Service.tt_failed > 0 then exit 1

let cmd =
  let doc = "multi-tenant advisor daemon with online re-optimization" in
  let info = Cmd.info "visserve" ~doc in
  Cmd.v info
    Term.(
      const serve $ tenants_arg $ ticks_arg $ seed_arg $ jobs_arg $ rate_arg
      $ zipf_arg $ base_card_arg $ drift_tenant_arg $ drift_factor_arg
      $ drift_at_arg $ fault_tenant_arg $ fault_nth_arg $ budget_arg
      $ band_arg $ gate_arg $ warmup_arg $ minsup_arg $ mine_arg
      $ log_queries_arg $ scrub_every_arg $ stats_arg $ json_arg)

let () = exit (Cmd.eval cmd)
