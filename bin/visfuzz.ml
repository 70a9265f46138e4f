(* visfuzz — property-based fuzzer for the VIS optimizer stack.

   Each trial generates a random bounded schema and checks it against a
   registry of differential oracles: A* vs exhaustive enumeration, parallel
   vs sequential search, the cost-cache ablation, heuristic orderings, the
   Section-6 staircase and sensitivity shapes, the Appendix-A page
   estimators, and executed refreshes on the storage engine.  Failing
   schemas are shrunk to minimal repros and written as replayable JSON.

     visfuzz --seed 42 --trials 200
     visfuzz --seed 42 --trials 5000 --time-budget 600 --out repros
     visfuzz --oracles astar-optimal,space-staircase --stats
     visfuzz --replay repros/repro-17-astar-optimal.json

   Exit status: 0 when every trial passed, 1 on any oracle failure,
   2 on usage errors. *)

open Cmdliner
module Json = Vis_util.Json
module Oracles = Vis_fuzz.Oracles
module Runner = Vis_fuzz.Runner
module Repro = Vis_fuzz.Repro

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("visfuzz: " ^ msg);
      exit 2)
    fmt

let ensure_dir path =
  match Unix.mkdir path 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | exception Unix.Unix_error (e, _, _) ->
      die "cannot create %s: %s" path (Unix.error_message e)

let outcome_tag = function
  | Oracles.Pass -> "pass"
  | Oracles.Skip _ -> "skip"
  | Oracles.Fail _ -> "FAIL"

(* ------------------------------------------------------------------ *)
(* Arguments. *)

let seed_arg =
  let doc = "Seed for the deterministic trial stream." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)

let trials_arg =
  let doc = "Maximum number of trials." in
  Arg.(value & opt int 100 & info [ "trials" ] ~docv:"N" ~doc)

let budget_arg =
  let doc = "Stop after $(docv) seconds of wall clock, whichever of trial \
             count and budget comes first." in
  Arg.(value & opt (some float) None & info [ "time-budget" ] ~docv:"SECONDS" ~doc)

let oracles_arg =
  let doc = "Comma-separated oracle names to run (default: all); see \
             $(b,--list-oracles)." in
  Arg.(value & opt (some string) None & info [ "oracles" ] ~docv:"NAMES" ~doc)

let replay_arg =
  let doc = "Replay a saved repro JSON against its recorded oracle instead \
             of fuzzing." in
  (* A plain string, not [Arg.file]: a missing path should get the same
     one-line file-naming diagnostic (exit 2) as a malformed one, not a
     cmdliner usage dump. *)
  Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)

let stats_arg =
  let doc = "Print the per-oracle pass/skip/fail table." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let json_arg =
  let doc = "Emit one machine-readable JSON report instead of the tables." in
  Arg.(value & flag & info [ "json" ] ~doc)

let out_arg =
  let doc = "Directory for repro JSON files of any failures." in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc)

let max_states_arg =
  let doc = "State-count budget above which exhaustive-comparison oracles \
             skip an instance." in
  Arg.(value & opt float 20_000. & info [ "max-states" ] ~docv:"N" ~doc)

let io_band_arg =
  let doc = "Allowed measured/predicted I/O ratio band for executed \
             refreshes." in
  Arg.(value & opt float 25. & info [ "io-band" ] ~docv:"FACTOR" ~doc)

let exec_tuples_arg =
  let doc = "Total-cardinality budget above which the maintenance oracle \
             skips an instance." in
  Arg.(value & opt float 20_000. & info [ "exec-tuples" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc = "Worker-pool width checked against the sequential run by the \
             determinism oracle." in
  Arg.(value & opt int 3 & info [ "jobs" ] ~docv:"N" ~doc)

let faults_arg =
  let doc = "Random fault plans the crash-recovery oracle injects per \
             schema (default 1).  With $(b,--replay), overrides the value \
             the repro recorded." in
  Arg.(value & opt (some int) None & info [ "faults" ] ~docv:"N" ~doc)

let fault_seed_arg =
  let doc = "Extra seed folded into the crash-recovery oracle's fault \
             plans; vary it to explore different fault schedules over the \
             same schema stream (default 0).  With $(b,--replay), overrides \
             the value the repro recorded." in
  Arg.(value & opt (some int) None & info [ "fault-seed" ] ~docv:"N" ~doc)

let no_shrink_arg =
  let doc = "Report failing schemas as generated, without minimization." in
  Arg.(value & flag & info [ "no-shrink" ] ~doc)

let max_failures_arg =
  let doc = "Stop fuzzing after $(docv) failures." in
  Arg.(value & opt int 20 & info [ "max-failures" ] ~docv:"N" ~doc)

let list_arg =
  let doc = "List the registered oracles and exit." in
  Arg.(value & flag & info [ "list-oracles" ] ~doc)

(* ------------------------------------------------------------------ *)
(* Modes. *)

let list_oracles () =
  let t = Vis_util.Tableprint.create [ "oracle"; "checks" ] in
  List.iter
    (fun (o : Oracles.t) -> Vis_util.Tableprint.add_row t [ o.o_name; o.o_doc ])
    Oracles.all;
  Vis_util.Tableprint.print t

let select_oracles = function
  | None -> Oracles.all
  | Some names -> (
      let names =
        String.split_on_char ',' names
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      match Oracles.select names with
      | Ok oracles -> oracles
      | Error msg -> die "%s" msg)

(* A repro replays with the fault knobs it recorded, unless the command
   line sets them. *)
let replay config ~faults ~fault_seed path json =
  let repro = try Repro.load path with
    | Repro.Malformed msg -> die "%s: %s" path msg
    | Json.Parse_error msg -> die "%s: %s" path msg
    | Vis_catalog.Schema.Invalid msg -> die "%s: field %S: %s" path "schema" msg
    | Sys_error msg -> die "%s" msg
  in
  let config =
    {
      config with
      Runner.cf_seed = repro.Repro.r_seed;
      cf_fault_rounds = Option.value faults ~default:repro.Repro.r_fault_rounds;
      cf_fault_seed = Option.value fault_seed ~default:repro.Repro.r_fault_seed;
      cf_oracles =
        (match Oracles.resolve repro.Repro.r_oracle with
        | Ok o -> [ o ]
        | Error msg -> die "%s: field %S: %s" path "oracle" msg);
    }
  in
  let outcomes =
    Runner.check_schema config ~trial:repro.Repro.r_trial repro.Repro.r_schema
  in
  let failed =
    List.exists (fun (_, o) -> match o with Oracles.Fail _ -> true | _ -> false)
      outcomes
  in
  let doc =
    Json.Obj
      [
        ("replay", Json.String path);
        ("seed", Json.Int repro.Repro.r_seed);
        ("trial", Json.Int repro.Repro.r_trial);
        ("fault_rounds", Json.Int config.Runner.cf_fault_rounds);
        ("fault_seed", Json.Int config.Runner.cf_fault_seed);
        ("recorded_failure", Json.String repro.Repro.r_failure);
        ( "outcomes",
          Json.List
            (List.map
               (fun (name, o) ->
                 Json.Obj
                   [
                     ("oracle", Json.String name);
                     ("outcome", Json.String (outcome_tag o));
                     ( "detail",
                       Json.String
                         (match o with
                         | Oracles.Pass -> ""
                         | Oracles.Skip r | Oracles.Fail r -> r) );
                   ])
               outcomes) );
      ]
  in
  if json then print_endline (Json.to_string ~indent:2 doc)
  else begin
    Printf.printf "replaying %s (seed %d, trial %d, faults %d, fault seed %d)\n"
      path repro.Repro.r_seed repro.Repro.r_trial config.Runner.cf_fault_rounds
      config.Runner.cf_fault_seed;
    Printf.printf "recorded failure: %s\n" repro.Repro.r_failure;
    print_string
      (Vis_util.Tableprint.of_json ~title:"outcomes"
         (Json.member "outcomes" doc))
  end;
  if failed then exit 1

let save_repros out report =
  match (out, report.Runner.rp_failures) with
  | None, _ | _, [] -> ()
  | Some dir, failures ->
      ensure_dir dir;
      List.iter
        (fun (f : Runner.failure) ->
          let path =
            Filename.concat dir
              (Printf.sprintf "repro-%d-%s.json" f.Runner.f_trial
                 f.Runner.f_oracle)
          in
          Repro.save path (Runner.failure_to_repro report.Runner.rp_config f);
          Printf.printf "wrote %s\n" path)
        failures

let fuzz seed trials budget oracles stats json out max_states io_band
    exec_tuples jobs faults fault_seed no_shrink max_failures list replay_file
    =
  if list then (list_oracles (); exit 0);
  if trials < 1 then die "--trials must be >= 1 (got %d)" trials;
  if jobs < 1 then die "--jobs must be >= 1 (got %d)" jobs;
  (match faults with
  | Some n when n < 0 -> die "--faults must be >= 0 (got %d)" n
  | Some _ | None -> ());
  if max_failures < 1 then die "--max-failures must be >= 1 (got %d)" max_failures;
  (match budget with
  | Some b when b <= 0. -> die "--time-budget must be > 0 (got %g)" b
  | Some _ | None -> ());
  let config =
    {
      Runner.cf_seed = seed;
      cf_trials = trials;
      cf_time_budget = budget;
      cf_oracles = select_oracles oracles;
      cf_max_states = max_states;
      cf_io_band = io_band;
      cf_exec_tuples = exec_tuples;
      cf_jobs = jobs;
      cf_fault_seed = Option.value fault_seed ~default:Repro.default_fault_seed;
      cf_fault_rounds = Option.value faults ~default:Repro.default_fault_rounds;
      cf_shrink = not no_shrink;
      cf_max_failures = max_failures;
    }
  in
  match replay_file with
  | Some path -> replay config ~faults ~fault_seed path json
  | None ->
      let report = Runner.run config in
      let doc = Runner.report_json report in
      if json then print_endline (Json.to_string ~indent:2 doc)
      else begin
        Printf.printf "seed %d: %d trials in %.1fs, %d failures\n"
          config.Runner.cf_seed report.Runner.rp_trials_run
          report.Runner.rp_elapsed
          (List.length report.Runner.rp_failures);
        List.iter
          (fun (f : Runner.failure) ->
            Printf.printf "FAIL trial %d oracle %s: %s\n" f.Runner.f_trial
              f.Runner.f_oracle f.Runner.f_message)
          report.Runner.rp_failures;
        if stats then
          print_string
            (Vis_util.Tableprint.of_json ~title:"oracles"
               (Json.member "oracles" doc))
      end;
      save_repros out report;
      if report.Runner.rp_failures <> [] then exit 1

let cmd =
  let doc = "property-based fuzzing of the VIS optimizer stack" in
  let info = Cmd.info "visfuzz" ~version:"%%VERSION%%" ~doc in
  Cmd.v info
    Term.(
      const fuzz $ seed_arg $ trials_arg $ budget_arg $ oracles_arg
      $ stats_arg $ json_arg $ out_arg $ max_states_arg $ io_band_arg
      $ exec_tuples_arg $ jobs_arg $ faults_arg $ fault_seed_arg
      $ no_shrink_arg $ max_failures_arg $ list_arg $ replay_arg)

let () = exit (Cmd.eval cmd)
