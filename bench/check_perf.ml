(* CI perf-smoke guard: compare the [incremental_costing] and
   [parallel_scaling] studies of a fresh BENCH_vis.json against the
   checked-in baseline and fail when the optimal search's cost-model work
   or the sharded search's scaling regresses.

     dune exec bench/check_perf.exe -- BENCH_vis.json bench/perf_baseline.json

   Two families of numbers are guarded, both exact and machine-independent
   (so the check is immune to CI timing noise):

   - [cost_evaluations] (the states A* costs, [Search_stats.evaluated])
     per Table 2 schema at jobs=1 — more than 20% above baseline fails the
     build;
   - [modeled_speedup_4] per parallel-scaling case — the deterministic
     replay of the recorded per-round shard work on 4 ideal workers; more
     than 20% below baseline (work re-serialized into fewer, fatter
     shards) fails the build;
   - [wal_syncs] per group-commit row of the storage_engine study — the
     durability barriers one deterministic 8-batch stream pays at group
     sizes 1 and 4; more than 20% above baseline (group commit regressed
     toward per-batch forcing) fails the build;
   - [reopts] and [p99_batch_latency_ms] of the service study — the
     re-optimizations the multi-tenant daemon runs on its fixed drift
     scenario (churn: a trigger-happy monitor or a leaky sensitivity gate
     shows up here) and the simulated-clock p99 batch commit latency;
   - [cost_evaluations_mined] and [reduction_factor] per mined_candidates
     star case — the states the workload-pruned search costs and its
     advantage over the identically-budgeted unpruned search; mined work
     more than 20% above baseline, or a reduction more than 20% below,
     fails the build (the pruning stopped pruning);
   - the corruption study's [checksummed_refresh_io] and [scrub_io] (exact
     page counts of the fault-free checksummed refresh and of one clean
     scrub pass), its [read_overhead_frac] (a float ratio under the
     baseline's float_tolerance), and detection completeness — the
     measured run's [convicted] must equal its [injected], whatever the
     baseline says.

   Integer counters use the fixed 20% tolerance.  Float metrics —
   today only [p99_batch_latency_ms], a simulated-clock figure that
   shifts with any legitimate cost-model retune — use the explicit
   [float_tolerance] the baseline file itself declares, so the slack
   given to float gates is visible and versioned next to the numbers it
   guards rather than buried here.

   Improvements only print; they are recorded by refreshing the
   baseline. *)

module Json = Vis_util.Json

let tolerance = 1.20

let read_json path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Json.of_string s

let rows_by_schema json =
  match Json.member "incremental_costing" json with
  | Json.List rows ->
      List.filter_map
        (fun row ->
          match (Json.member "schema" row, Json.member "jobs" row) with
          | Json.String name, Json.Int 1 ->
              Some (name, Json.to_float (Json.member "cost_evaluations" row))
          | _ -> None)
        rows
  | _ -> []

(* The parallel_scaling study's per-case modeled speedup at 4 workers —
   lower is worse, so the guard direction is inverted vs cost_evaluations. *)
let scaling_by_case json =
  match Json.member "parallel_scaling" json with
  | Json.Obj _ as obj -> (
      match Json.member "cases" obj with
      | Json.List cases ->
          List.filter_map
            (fun case ->
              match
                (Json.member "run" case, Json.member "modeled_speedup_4" case)
              with
              | Json.String name, (Json.Float _ | Json.Int _) ->
                  Some
                    (name, Json.to_float (Json.member "modeled_speedup_4" case))
              | _ -> None)
            cases
      | _ -> [])
  | _ -> []

(* The storage_engine study's exact durability-barrier counts per
   group-commit row, keyed by max_group. *)
let syncs_by_group json =
  match Json.member "storage_engine" json with
  | Json.Obj _ as obj -> (
      match Json.member "group_commit" obj with
      | Json.List rows ->
          List.filter_map
            (fun row ->
              match (Json.member "max_group" row, Json.member "wal_syncs" row) with
              | Json.Int g, Json.Int s -> Some (g, float_of_int s)
              | _ -> None)
            rows
      | _ -> [])
  | _ -> []

(* The service study's deterministic guard pair: re-optimization churn and
   simulated-clock p99 batch latency.  Both are exact in (seed, scenario);
   higher is worse for both. *)
(* The explicit relative tolerance the baseline declares for float
   metrics.  Mandatory: a baseline without it fails loudly rather than
   silently borrowing the integer tolerance. *)
let float_tolerance json =
  match Json.member "float_tolerance" json with
  | Json.Float f when f >= 1. -> f
  | Json.Int i when i >= 1 -> float_of_int i
  | _ ->
      prerr_endline
        "check_perf: baseline lacks a float_tolerance >= 1 for its float \
         metrics";
      exit 2

(* The mined_candidates study's per-case guard pair: the states the
   workload-pruned search costs (lower is better) and its reduction factor
   over the identically-budgeted unpruned search (higher is better). *)
let mined_by_case json =
  match Json.member "mined_candidates" json with
  | Json.Obj _ as obj -> (
      match Json.member "reduction" obj with
      | Json.List rows ->
          List.filter_map
            (fun row ->
              match
                ( Json.member "case" row,
                  Json.member "cost_evaluations_mined" row,
                  Json.member "reduction_factor" row )
              with
              | Json.String name, Json.Int evals, (Json.Float _ | Json.Int _)
                ->
                  Some
                    ( name,
                      ( float_of_int evals,
                        Json.to_float (Json.member "reduction_factor" row) ) )
              | _ -> None)
            rows
      | _ -> [])
  | _ -> []

(* The corruption study's guard set: the fault-free checksummed refresh
   I/O and the clean-scrub I/O (both exact page counts, higher is worse),
   the fault-free read-overhead fraction (a float ratio, gated by the
   baseline's float_tolerance), and detection completeness — convicted
   must equal injected within the measured run itself. *)
let corruption_figures json =
  match Json.member "corruption" json with
  | Json.Obj _ as obj ->
      List.filter_map
        (fun key ->
          match Json.member key obj with
          | Json.Int _ | Json.Float _ ->
              Some (key, Json.to_float (Json.member key obj))
          | _ -> None)
        [
          "checksummed_refresh_io";
          "scrub_io";
          "read_overhead_frac";
          "injected";
          "convicted";
        ]
  | _ -> []

let service_figures json =
  match Json.member "service" json with
  | Json.Obj _ as obj ->
      List.filter_map
        (fun key ->
          match Json.member key obj with
          | Json.Int _ | Json.Float _ ->
              Some (key, Json.to_float (Json.member key obj))
          | _ -> None)
        [ "reopts"; "p99_batch_latency_ms" ]
  | _ -> []

let () =
  let measured_path, baseline_path =
    match Sys.argv with
    | [| _; m; b |] -> (m, b)
    | _ ->
        prerr_endline "usage: check_perf <measured.json> <baseline.json>";
        exit 2
  in
  let measured_json = read_json measured_path in
  let baseline_json = read_json baseline_path in
  let measured = rows_by_schema measured_json in
  let baseline = rows_by_schema baseline_json in
  if baseline = [] then begin
    prerr_endline "check_perf: baseline has no incremental_costing jobs=1 rows";
    exit 2
  end;
  let failures = ref 0 in
  List.iter
    (fun (name, base) ->
      match List.assoc_opt name measured with
      | None ->
          Printf.eprintf "FAIL %-20s missing from measured run\n" name;
          incr failures
      | Some got ->
          let limit = tolerance *. base in
          if got > limit then begin
            Printf.eprintf
              "FAIL %-20s cost_evaluations %.0f > %.0f (baseline %.0f +20%%)\n"
              name got limit base;
            incr failures
          end
          else
            Printf.printf "ok   %-20s cost_evaluations %.0f (baseline %.0f)\n"
              name got base)
    baseline;
  let measured_scaling = scaling_by_case measured_json in
  let baseline_scaling = scaling_by_case baseline_json in
  if baseline_scaling = [] then begin
    prerr_endline "check_perf: baseline has no parallel_scaling cases";
    exit 2
  end;
  List.iter
    (fun (name, base) ->
      match List.assoc_opt name measured_scaling with
      | None ->
          Printf.eprintf "FAIL %-34s missing from measured run\n" name;
          incr failures
      | Some got ->
          let limit = base /. tolerance in
          if got < limit then begin
            Printf.eprintf
              "FAIL %-34s modeled_speedup_4 %.2fx < %.2fx (baseline %.2fx \
               -20%%)\n"
              name got limit base;
            incr failures
          end
          else
            Printf.printf "ok   %-34s modeled_speedup_4 %.2fx (baseline %.2fx)\n"
              name got base)
    baseline_scaling;
  let measured_syncs = syncs_by_group measured_json in
  let baseline_syncs = syncs_by_group baseline_json in
  if baseline_syncs = [] then begin
    prerr_endline "check_perf: baseline has no storage_engine group_commit rows";
    exit 2
  end;
  List.iter
    (fun (group, base) ->
      let name = Printf.sprintf "group commit (max_group %d)" group in
      match List.assoc_opt group measured_syncs with
      | None ->
          Printf.eprintf "FAIL %-34s missing from measured run\n" name;
          incr failures
      | Some got ->
          let limit = tolerance *. base in
          if got > limit then begin
            Printf.eprintf
              "FAIL %-34s wal_syncs %.0f > %.0f (baseline %.0f +20%%)\n" name
              got limit base;
            incr failures
          end
          else
            Printf.printf "ok   %-34s wal_syncs %.0f (baseline %.0f)\n" name
              got base)
    baseline_syncs;
  let measured_service = service_figures measured_json in
  let baseline_service = service_figures baseline_json in
  if baseline_service = [] then begin
    prerr_endline "check_perf: baseline has no service figures";
    exit 2
  end;
  let ftol = float_tolerance baseline_json in
  List.iter
    (fun (key, base) ->
      let name = Printf.sprintf "service %s" key in
      (* p99 is a float metric: simulated-clock milliseconds, not a count.
         It gets the baseline's explicit float_tolerance; the integer
         reopts counter keeps the fixed 20%. *)
      let tol = if key = "p99_batch_latency_ms" then ftol else tolerance in
      match List.assoc_opt key measured_service with
      | None ->
          Printf.eprintf "FAIL %-34s missing from measured run\n" name;
          incr failures
      | Some got ->
          let limit = tol *. base in
          if got > limit then begin
            Printf.eprintf "FAIL %-34s %.2f > %.2f (baseline %.2f +%.0f%%)\n"
              name got limit base ((tol -. 1.) *. 100.);
            incr failures
          end
          else Printf.printf "ok   %-34s %.2f (baseline %.2f)\n" name got base)
    baseline_service;
  let measured_mined = mined_by_case measured_json in
  let baseline_mined = mined_by_case baseline_json in
  if baseline_mined = [] then begin
    prerr_endline "check_perf: baseline has no mined_candidates rows";
    exit 2
  end;
  List.iter
    (fun (case, (base_evals, base_red)) ->
      let name = Printf.sprintf "mined %s" case in
      match List.assoc_opt case measured_mined with
      | None ->
          Printf.eprintf "FAIL %-34s missing from measured run\n" name;
          incr failures
      | Some (got_evals, got_red) ->
          let limit = tolerance *. base_evals in
          if got_evals > limit then begin
            Printf.eprintf
              "FAIL %-34s cost_evaluations_mined %.0f > %.0f (baseline %.0f \
               +20%%)\n"
              name got_evals limit base_evals;
            incr failures
          end
          else
            Printf.printf
              "ok   %-34s cost_evaluations_mined %.0f (baseline %.0f)\n" name
              got_evals base_evals;
          let floor = base_red /. tolerance in
          if got_red < floor then begin
            Printf.eprintf
              "FAIL %-34s reduction_factor %.2fx < %.2fx (baseline %.2fx \
               -20%%)\n"
              name got_red floor base_red;
            incr failures
          end
          else
            Printf.printf "ok   %-34s reduction_factor %.2fx (baseline %.2fx)\n"
              name got_red base_red)
    baseline_mined;
  let measured_corruption = corruption_figures measured_json in
  let baseline_corruption = corruption_figures baseline_json in
  if baseline_corruption = [] then begin
    prerr_endline "check_perf: baseline has no corruption figures";
    exit 2
  end;
  List.iter
    (fun (key, base) ->
      (* injected/convicted are compared against each other below, not
         against the baseline — the damage plan size is a choice, the
         detection of all of it is the invariant. *)
      if key <> "injected" && key <> "convicted" then begin
        let name = Printf.sprintf "corruption %s" key in
        let tol = if key = "read_overhead_frac" then ftol else tolerance in
        match List.assoc_opt key measured_corruption with
        | None ->
            Printf.eprintf "FAIL %-34s missing from measured run\n" name;
            incr failures
        | Some got ->
            let limit = tol *. base in
            if got > limit then begin
              Printf.eprintf "FAIL %-34s %.3f > %.3f (baseline %.3f +%.0f%%)\n"
                name got limit base ((tol -. 1.) *. 100.);
              incr failures
            end
            else Printf.printf "ok   %-34s %.3f (baseline %.3f)\n" name got base
      end)
    baseline_corruption;
  (match
     ( List.assoc_opt "injected" measured_corruption,
       List.assoc_opt "convicted" measured_corruption )
   with
  | Some inj, Some conv when inj > 0. && conv = inj ->
      Printf.printf "ok   %-34s convicted %.0f of %.0f injected\n"
        "corruption detection" conv inj
  | Some inj, Some conv ->
      Printf.eprintf
        "FAIL %-34s convicted %.0f of %.0f injected (must detect all)\n"
        "corruption detection" conv inj;
      incr failures
  | _ ->
      prerr_endline "FAIL corruption detection: injected/convicted missing";
      incr failures);
  if !failures > 0 then begin
    Printf.eprintf
      "check_perf: %d number(s) regressed; if intentional, refresh \
       bench/perf_baseline.json\n"
      !failures;
    exit 1
  end;
  print_endline
    "check_perf: incremental-costing work, parallel scaling, group-commit \
     syncs, service figures, mined-candidate pruning and corruption \
     detection within baseline"
