(* CI perf-smoke guard: compare the machine-independent numbers of a fresh
   BENCH_vis.json against the checked-in baseline and fail when one
   regresses.

     dune exec bench/check_perf.exe -- BENCH_vis.json bench/perf_baseline.json

   Every guarded number is exact and machine-independent, so the check is
   immune to CI timing noise.  The gate list below names them:

   - [cost_evaluations] (the states A* costs, [Search_stats.evaluated])
     per Table 2 schema at jobs=1, from the search_cost_evaluations study;
   - [modeled_speedup_4] per parallel-scaling case — the deterministic
     replay of the recorded per-round shard work on 4 ideal workers (work
     re-serialized into fewer, fatter shards shows up here);
   - [wal_syncs] per group-commit row of the storage_engine study — the
     durability barriers one deterministic 8-batch stream pays at group
     sizes 1 and 4;
   - [reopts] and [p99_batch_latency_sim_ms] of the service study — the
     daemon's re-optimization churn on its fixed drift scenario and the
     simulated-clock p99 batch commit latency;
   - [cost_evaluations_mined] and [reduction_factor] per mined_candidates
     star case — the states the workload-pruned search costs and its
     advantage over the identically-budgeted unpruned search;
   - the corruption study's [checksummed_refresh_io], [scrub_io] and
     [read_overhead_frac], plus detection completeness: the measured run's
     [convicted] must equal its [injected], whatever the baseline says.

   Integer counters use the fixed 20% tolerance.  Float metrics
   ([p99_batch_latency_sim_ms], [read_overhead_frac]) use the explicit
   [float_tolerance] the baseline file itself declares, so their slack is
   versioned next to the numbers it guards.  A baseline without a family's
   rows is a usage error (exit 2); a regression or a number missing from
   the measured run fails (exit 1).  Improvements only print; they are
   recorded by refreshing the baseline. *)

module Json = Vis_util.Json

let tolerance = 1.20

type direction = Higher_is_worse | Lower_is_worse

type gate = {
  path : string list;  (* study, then the member holding its rows *)
  key : string option;  (* the rows' name field; [None]: one object *)
  only : (string * Json.t) list;  (* rows must carry these values *)
  metrics : (string * direction * [ `Fixed | `Declared ]) list;
}

let gates =
  [
    {
      path = [ "search_cost_evaluations" ];
      key = Some "schema";
      only = [ ("jobs", Json.Int 1) ];
      metrics = [ ("cost_evaluations", Higher_is_worse, `Fixed) ];
    };
    {
      path = [ "parallel_scaling"; "cases" ];
      key = Some "run";
      only = [];
      metrics = [ ("modeled_speedup_4", Lower_is_worse, `Fixed) ];
    };
    {
      path = [ "storage_engine"; "group_commit" ];
      key = Some "max_group";
      only = [];
      metrics = [ ("wal_syncs", Higher_is_worse, `Fixed) ];
    };
    {
      path = [ "service" ];
      key = None;
      only = [];
      metrics =
        [
          ("reopts", Higher_is_worse, `Fixed);
          ("p99_batch_latency_sim_ms", Higher_is_worse, `Declared);
        ];
    };
    {
      path = [ "mined_candidates"; "reduction" ];
      key = Some "case";
      only = [];
      metrics =
        [
          ("cost_evaluations_mined", Higher_is_worse, `Fixed);
          ("reduction_factor", Lower_is_worse, `Fixed);
        ];
    };
    {
      path = [ "corruption" ];
      key = None;
      only = [];
      metrics =
        [
          ("checksummed_refresh_io", Higher_is_worse, `Fixed);
          ("scrub_io", Higher_is_worse, `Fixed);
          ("read_overhead_frac", Higher_is_worse, `Declared);
        ];
    };
  ]

let read_json path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Json.of_string s

let number = function
  | (Json.Int _ | Json.Float _) as v -> Some (Json.to_float v)
  | _ -> None

(* A gate's rows in [json], each under a display name. *)
let rows gate json =
  let family = String.concat "." gate.path in
  let at = List.fold_left (fun v k -> Json.member k v) json gate.path in
  match (gate.key, at) with
  | None, (Json.Obj _ as row) -> [ (family, row) ]
  | Some key, Json.List items ->
      List.filter_map
        (fun row ->
          let name =
            match Json.member key row with
            | Json.String s -> Some s
            | Json.Int i -> Some (Printf.sprintf "%s %d" key i)
            | _ -> None
          in
          if List.for_all (fun (k, v) -> Json.member k row = v) gate.only then
            Option.map (fun n -> (Printf.sprintf "%s[%s]" family n, row)) name
          else None)
        items
  | _ -> []

(* The explicit relative tolerance the baseline declares for float
   metrics.  Mandatory: a baseline without it fails loudly rather than
   silently borrowing the integer tolerance. *)
let float_tolerance json =
  match number (Json.member "float_tolerance" json) with
  | Some f when f >= 1. -> f
  | _ ->
      prerr_endline
        "check_perf: baseline lacks a float_tolerance >= 1 for its float \
         metrics";
      exit 2

let () =
  let measured_path, baseline_path =
    match Sys.argv with
    | [| _; m; b |] -> (m, b)
    | _ ->
        prerr_endline "usage: check_perf <measured.json> <baseline.json>";
        exit 2
  in
  let measured = read_json measured_path in
  let baseline = read_json baseline_path in
  let ftol = float_tolerance baseline in
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Printf.eprintf ("FAIL " ^^ fmt ^^ "\n")
  in
  List.iter
    (fun gate ->
      let base_rows =
        List.filter
          (fun (_, row) ->
            List.exists
              (fun (m, _, _) -> number (Json.member m row) <> None)
              gate.metrics)
          (rows gate baseline)
      in
      if base_rows = [] then begin
        Printf.eprintf "check_perf: baseline has no %s rows\n"
          (String.concat "." gate.path);
        exit 2
      end;
      let got_rows = rows gate measured in
      List.iter
        (fun (name, base_row) ->
          List.iter
            (fun (metric, direction, slack) ->
              match number (Json.member metric base_row) with
              | None -> ()
              | Some base -> (
                  let tol = if slack = `Declared then ftol else tolerance in
                  let got =
                    Option.bind (List.assoc_opt name got_rows) (fun row ->
                        number (Json.member metric row))
                  in
                  match (got, direction) with
                  | None, _ ->
                      fail "%s %s missing from measured run" name metric
                  | Some got, Higher_is_worse when got > tol *. base ->
                      fail "%s %s %g > %g (baseline %g +%.0f%%)" name metric
                        got (tol *. base) base ((tol -. 1.) *. 100.)
                  | Some got, Lower_is_worse when got < base /. tol ->
                      fail "%s %s %g < %g (baseline %g -%.0f%%)" name metric
                        got (base /. tol) base ((tol -. 1.) *. 100.)
                  | Some got, _ ->
                      Printf.printf "ok   %s %s %g (baseline %g)\n" name
                        metric got base))
            gate.metrics)
        base_rows)
    gates;
  (* Detection completeness is an invariant of the measured run itself:
     the damage plan size is a choice, convicting all of it is not. *)
  let corruption = Json.member "corruption" measured in
  (match
     ( number (Json.member "injected" corruption),
       number (Json.member "convicted" corruption) )
   with
  | Some inj, Some conv when inj > 0. && conv = inj ->
      Printf.printf "ok   corruption detection: convicted %g of %g injected\n"
        conv inj
  | Some inj, Some conv ->
      fail "corruption detection: convicted %g of %g injected (must detect all)"
        conv inj
  | _ -> fail "corruption detection: injected/convicted missing");
  if !failures > 0 then begin
    Printf.eprintf
      "check_perf: %d number(s) regressed; if intentional, refresh \
       bench/perf_baseline.json\n"
      !failures;
    exit 1
  end;
  print_endline "check_perf: every guarded number within baseline"
