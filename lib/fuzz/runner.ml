module Schema = Vis_catalog.Schema
module Json = Vis_util.Json

type config = {
  cf_seed : int;
  cf_trials : int;
  cf_time_budget : float option;
  cf_oracles : Oracles.t list;
  cf_max_states : float;
  cf_io_band : float;
  cf_exec_tuples : float;
  cf_jobs : int;
  cf_fault_seed : int;
  cf_fault_rounds : int;
  cf_shrink : bool;
  cf_max_failures : int;
}

let default_config () =
  {
    cf_seed = 0;
    cf_trials = 100;
    cf_time_budget = None;
    cf_oracles = Oracles.all;
    cf_max_states = 20_000.;
    cf_io_band = 25.;
    cf_exec_tuples = 20_000.;
    cf_jobs = 3;
    cf_fault_seed = Repro.default_fault_seed;
    cf_fault_rounds = Repro.default_fault_rounds;
    cf_shrink = true;
    cf_max_failures = 20;
  }

type oracle_stats = {
  os_name : string;
  os_pass : int;
  os_skip : int;
  os_fail : int;
  os_seconds : float;
}

type failure = {
  f_trial : int;
  f_oracle : string;
  f_message : string;
  f_schema : Schema.t;
  f_original : Schema.t option;
}

type report = {
  rp_config : config;
  rp_trials_run : int;
  rp_elapsed : float;
  rp_oracles : oracle_stats list;
  rp_failures : failure list;
}

(* The context RNG is keyed by the oracle's position in the full registry,
   not in [cf_oracles], so fuzzing a subset replays the same draws. *)
let registry_index (o : Oracles.t) =
  let rec go i = function
    | [] -> invalid_arg ("unregistered oracle " ^ o.Oracles.o_name)
    | (r : Oracles.t) :: rest -> if r.o_name = o.o_name then i else go (i + 1) rest
  in
  go 0 Oracles.all

let ctx_for cf ~trial o =
  let rng = Random.State.make [| cf.cf_seed; trial; registry_index o |] in
  Oracles.make_ctx ~max_states:cf.cf_max_states ~io_band:cf.cf_io_band
    ~exec_tuples:cf.cf_exec_tuples ~jobs:cf.cf_jobs
    ~fault_seed:cf.cf_fault_seed ~fault_rounds:cf.cf_fault_rounds ~rng ()

let check_once cf ~trial (o : Oracles.t) schema =
  match o.Oracles.o_check (ctx_for cf ~trial o) schema with
  | outcome -> outcome
  | exception e -> Oracles.Fail (Printf.sprintf "exception: %s" (Printexc.to_string e))

let check_schema cf ~trial schema =
  List.map (fun o -> (o.Oracles.o_name, check_once cf ~trial o schema)) cf.cf_oracles

let run cf =
  let t0 = Unix.gettimeofday () in
  let stats =
    List.map
      (fun (o : Oracles.t) ->
        (o.Oracles.o_name, ref { os_name = o.o_name; os_pass = 0; os_skip = 0; os_fail = 0; os_seconds = 0. }))
      cf.cf_oracles
  in
  let failures = ref [] in
  let n_failures = ref 0 in
  let trials_run = ref 0 in
  let out_of_budget () =
    match cf.cf_time_budget with
    | None -> false
    | Some budget -> Unix.gettimeofday () -. t0 >= budget
  in
  (try
     for trial = 0 to cf.cf_trials - 1 do
       if out_of_budget () || !n_failures >= cf.cf_max_failures then raise Exit;
       incr trials_run;
       let rng = Random.State.make [| cf.cf_seed; trial |] in
       let schema = Gen.schema ~rng () in
       List.iter
         (fun (o : Oracles.t) ->
           let cell = List.assoc o.Oracles.o_name stats in
           let t1 = Unix.gettimeofday () in
           let outcome = check_once cf ~trial o schema in
           let dt = Unix.gettimeofday () -. t1 in
           let s = !cell in
           let s = { s with os_seconds = s.os_seconds +. dt } in
           cell :=
             (match outcome with
             | Oracles.Pass -> { s with os_pass = s.os_pass + 1 }
             | Oracles.Skip _ -> { s with os_skip = s.os_skip + 1 }
             | Oracles.Fail message ->
                 incr n_failures;
                 let shrunk =
                   if cf.cf_shrink then
                     Shrink.shrink ~oracle:o
                       ~ctx:(fun () -> ctx_for cf ~trial o)
                       schema
                   else schema
                 in
                 let message =
                   (* Report the failure message of the shrunk instance; it
                      names the same breakage on the smaller schema. *)
                   match check_once cf ~trial o shrunk with
                   | Oracles.Fail m -> m
                   | Oracles.Pass | Oracles.Skip _ -> message
                 in
                 failures :=
                   {
                     f_trial = trial;
                     f_oracle = o.Oracles.o_name;
                     f_message = message;
                     f_schema = shrunk;
                     f_original = (if shrunk = schema then None else Some schema);
                   }
                   :: !failures;
                 { s with os_fail = s.os_fail + 1 }))
         cf.cf_oracles
     done
   with Exit -> ());
  {
    rp_config = cf;
    rp_trials_run = !trials_run;
    rp_elapsed = Unix.gettimeofday () -. t0;
    rp_oracles = List.map (fun (_, cell) -> !cell) stats;
    rp_failures = List.rev !failures;
  }

let failure_to_repro cf f =
  {
    Repro.r_seed = cf.cf_seed;
    r_trial = f.f_trial;
    r_oracle = f.f_oracle;
    r_failure = f.f_message;
    r_schema = f.f_schema;
    r_original = f.f_original;
    r_fault_rounds = cf.cf_fault_rounds;
    r_fault_seed = cf.cf_fault_seed;
  }

let report_json rp =
  Json.Obj
    [
      ("seed", Json.Int rp.rp_config.cf_seed);
      ("trials_run", Json.Int rp.rp_trials_run);
      ("elapsed_seconds", Json.Float rp.rp_elapsed);
      ( "oracles",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.String s.os_name);
                   ("pass", Json.Int s.os_pass);
                   ("skip", Json.Int s.os_skip);
                   ("fail", Json.Int s.os_fail);
                   ("seconds", Json.Float s.os_seconds);
                 ])
             rp.rp_oracles) );
      ( "failures",
        Json.List
          (List.map
             (fun f ->
               Repro.to_json (failure_to_repro rp.rp_config f))
             rp.rp_failures) );
    ]
