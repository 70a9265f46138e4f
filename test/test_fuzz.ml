(* Tests for the fuzzing library itself: the generator only produces
   valid (and, for the executable flavor, engine-compatible) schemas, the
   repro JSON round-trips exactly, the oracle registry resolves names, a
   short deterministic run of the full loop is failure-free and
   reproducible, and the shrinker minimizes a schema against a synthetic
   oracle. *)

module Schema = Vis_catalog.Schema
module Json = Vis_util.Json
module Datagen = Vis_workload.Datagen
module Gen = Vis_fuzz.Gen
module Oracles = Vis_fuzz.Oracles
module Repro = Vis_fuzz.Repro
module Runner = Vis_fuzz.Runner
module Shrink = Vis_fuzz.Shrink

let checkb = Alcotest.(check bool)

let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Generator. *)

let test_executable_schemas_valid () =
  for seed = 0 to 49 do
    let rng = Random.State.make [| 11; seed |] in
    let s = Gen.executable ~rng () in
    checkb "connected" true (Schema.connected s (Schema.all_relations s));
    checkb "foreign-key-consistent" true (Gen.fk_consistent s);
    (* The whole point of the executable flavor: the storage engine can
       realize its statistics. *)
    let data = Datagen.generate ~rng:(Random.State.make [| 12; seed |]) s in
    ignore (Datagen.deltas ~rng:(Random.State.make [| 13; seed |]) s data);
    Array.iteri
      (fun i (r : Schema.relation) ->
        checki
          (Printf.sprintf "tuple width matches the engine for %s"
             r.Schema.rel_name)
          (List.length r.Schema.attrs * Vis_maintenance.Warehouse.attr_bytes)
          r.Schema.tuple_bytes;
        ignore i)
      s.Schema.relations
  done

let test_schema_mixes_flavors () =
  (* Over many seeds the mixed generator must produce both the executable
     flavor (FK-consistent) and the abstract one (usually not). *)
  let consistent = ref 0 and total = 100 in
  for seed = 0 to total - 1 do
    let rng = Random.State.make [| 17; seed |] in
    let s = Gen.schema ~rng () in
    if Gen.fk_consistent s then incr consistent
  done;
  checkb "mostly executable schemas" true (!consistent > total / 2);
  checkb "some abstract schemas too" true (!consistent < total)

(* ------------------------------------------------------------------ *)
(* Repro JSON. *)

let test_schema_roundtrip () =
  for seed = 0 to 19 do
    let rng = Random.State.make [| 23; seed |] in
    let s = Gen.schema ~rng () in
    let back = Repro.schema_of_json (Repro.schema_to_json s) in
    checkb "schema survives the JSON round trip exactly" true (s = back)
  done

let test_repro_roundtrip_and_file () =
  let rng = Random.State.make [| 29; 0 |] in
  let schema = Gen.executable ~rng () in
  let original = Gen.executable ~rng () in
  let r =
    {
      Repro.r_seed = 42;
      r_trial = 17;
      r_oracle = "astar-optimal";
      r_failure = "A* cost 1.5 differs from exhaustive optimum 1.0";
      r_schema = schema;
      r_original = Some original;
      r_fault_rounds = 3;
      r_fault_seed = 5;
    }
  in
  checkb "repro survives the JSON round trip" true
    (Repro.of_json (Repro.to_json r) = r);
  let path = Filename.temp_file "visfuzz-test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Repro.save path r;
      checkb "repro survives the file round trip" true (Repro.load path = r));
  (* Without the original schema the field is simply absent. *)
  let r' = { r with Repro.r_original = None } in
  checkb "repro without an original round-trips too" true
    (Repro.of_json (Repro.to_json r') = r');
  (* A document written before repros recorded the fault knobs loads with
     visfuzz's defaults for them. *)
  let old =
    match Repro.to_json r with
    | Json.Obj fields ->
        Json.Obj
          (List.filter (fun (k, _) -> k <> "fault_rounds" && k <> "fault_seed") fields)
    | _ -> Alcotest.fail "a repro is a JSON object"
  in
  checkb "an old repro loads with the default fault knobs" true
    (Repro.of_json old
    = { r with Repro.r_fault_rounds = Repro.default_fault_rounds;
               r_fault_seed = Repro.default_fault_seed })

(* [visfuzz --replay] runs with the fault knobs the repro recorded, and the
   command-line flags override them. *)
let test_replay_uses_recorded_faults () =
  let visfuzz =
    Filename.concat
      (Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin")
      "visfuzz.exe"
  in
  let rng = Random.State.make [| 29; 1 |] in
  let r =
    {
      Repro.r_seed = 3;
      r_trial = 9;
      r_oracle = "corruption-recovery";
      r_failure = "recorded";
      r_schema = Gen.executable ~rng ();
      r_original = None;
      r_fault_rounds = 3;
      r_fault_seed = 5;
    }
  in
  let path = Filename.temp_file "visfuzz-repro" ".json" in
  let out = Filename.temp_file "visfuzz-replay" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path; Sys.remove out)
    (fun () ->
      Repro.save path r;
      let knobs flags =
        let cmd = Printf.sprintf "%s --replay %s --json %s > %s" visfuzz path flags out in
        checki ("replay exits 0: " ^ flags) 0 (Sys.command cmd);
        let ic = open_in out in
        let doc =
          Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
              Json.of_string (really_input_string ic (in_channel_length ic)))
        in
        (Json.member "fault_rounds" doc, Json.member "fault_seed" doc)
      in
      checkb "the recorded knobs are replayed" true (knobs "" = (Json.Int 3, Json.Int 5));
      checkb "flags override the recorded knobs" true
        (knobs "--faults 1 --fault-seed 0" = (Json.Int 1, Json.Int 0)))

let test_malformed_repro_rejected () =
  let raises f =
    match f () with
    | _ -> false
    | exception Repro.Malformed _ -> true
  in
  checkb "an empty document is malformed" true
    (raises (fun () -> Repro.of_json (Json.Obj [])));
  checkb "negative fault rounds are malformed" true
    (raises (fun () ->
         let rng = Random.State.make [| 29; 2 |] in
         Repro.of_json
           (Repro.to_json
              {
                Repro.r_seed = 1;
                r_trial = 0;
                r_oracle = "crash-recovery";
                r_failure = "";
                r_schema = Gen.executable ~rng ();
                r_original = None;
                r_fault_rounds = -1;
                r_fault_seed = 0;
              })));
  checkb "a wrongly-typed field is malformed" true
    (raises (fun () ->
         Repro.of_json
           (Json.Obj [ ("seed", Json.String "not a number") ])))

(* ------------------------------------------------------------------ *)
(* Oracle registry. *)

let test_registry () =
  checkb "the registry is not empty" true (Oracles.all <> []);
  List.iter
    (fun (o : Oracles.t) ->
      match Oracles.find o.Oracles.o_name with
      | Some found ->
          Alcotest.(check string) "find returns the named oracle"
            o.Oracles.o_name found.Oracles.o_name
      | None -> Alcotest.failf "oracle %s not found" o.Oracles.o_name)
    Oracles.all;
  (match Oracles.select [ "yao-bounds"; "astar-optimal" ] with
  | Ok selected ->
      Alcotest.(check (list string))
        "select preserves registry order"
        [ "astar-optimal"; "yao-bounds" ]
        (List.map (fun (o : Oracles.t) -> o.Oracles.o_name) selected)
  | Error msg -> Alcotest.fail msg);
  match Oracles.select [ "no-such-oracle" ] with
  | Ok _ -> Alcotest.fail "select accepted an unknown oracle"
  | Error msg -> checkb "the error names the oracle" true (msg <> "")

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_resolve_diagnostics () =
  (* [resolve] backs both [--oracles] and the repro-JSON replay path: an
     unknown name must produce one message that names the typo and lists
     every known oracle, so a stale saved repro is self-diagnosing. *)
  (match Oracles.resolve "service-replay" with
  | Ok o ->
      Alcotest.(check string)
        "the daemon oracle is registered" "service-replay" o.Oracles.o_name
  | Error msg -> Alcotest.fail msg);
  (match Oracles.resolve "mined-candidates" with
  | Ok o ->
      Alcotest.(check string)
        "the mining oracle is registered" "mined-candidates" o.Oracles.o_name
  | Error msg -> Alcotest.fail msg);
  (match Oracles.resolve "mined-candidate" with
  | Ok _ -> Alcotest.fail "resolve accepted a misspelled mining oracle"
  | Error msg ->
      checkb "the error quotes the unknown mining name" true
        (contains ~needle:"mined-candidate" msg));
  match Oracles.resolve "service-reply" with
  | Ok _ -> Alcotest.fail "resolve accepted a misspelled oracle"
  | Error msg ->
      checkb "the error quotes the unknown name" true
        (contains ~needle:"service-reply" msg);
      List.iter
        (fun (o : Oracles.t) ->
          checkb
            (Printf.sprintf "the error lists known oracle %s" o.Oracles.o_name)
            true
            (contains ~needle:o.Oracles.o_name msg))
        Oracles.all

(* ------------------------------------------------------------------ *)
(* Runner. *)

let smoke_config () =
  { (Runner.default_config ()) with Runner.cf_seed = 5; cf_trials = 4 }

let smoke = lazy (Runner.run (smoke_config ()))

let test_runner_smoke () =
  let report = Lazy.force smoke in
  checki "all trials ran" 4 report.Runner.rp_trials_run;
  checki "no failures on main" 0 (List.length report.Runner.rp_failures);
  List.iter
    (fun (s : Runner.oracle_stats) ->
      checki
        (Printf.sprintf "%s accounted for every trial" s.Runner.os_name)
        4
        (s.Runner.os_pass + s.Runner.os_skip + s.Runner.os_fail))
    report.Runner.rp_oracles;
  (* Something must actually run: not everything skipped. *)
  checkb "some oracle passed on some trial" true
    (List.exists (fun (s : Runner.oracle_stats) -> s.Runner.os_pass > 0)
       report.Runner.rp_oracles)

let test_runner_deterministic () =
  let strip (report : Runner.report) =
    List.map
      (fun (s : Runner.oracle_stats) ->
        (s.Runner.os_name, s.Runner.os_pass, s.Runner.os_skip, s.Runner.os_fail))
      report.Runner.rp_oracles
  in
  let a = Lazy.force smoke in
  let b = Runner.run (smoke_config ()) in
  checkb "two identical runs agree outcome for outcome" true
    (strip a = strip b)

let test_check_schema_replays () =
  (* check_schema with the recorded (seed, trial) is the replay path: it
     must agree with what the loop observed. *)
  let config = smoke_config () in
  let rng = Random.State.make [| config.Runner.cf_seed; 2 |] in
  let schema = Gen.schema ~rng () in
  let once = Runner.check_schema config ~trial:2 schema in
  let again = Runner.check_schema config ~trial:2 schema in
  checkb "replay is deterministic" true (once = again);
  checki "one outcome per configured oracle"
    (List.length config.Runner.cf_oracles)
    (List.length once)

(* ------------------------------------------------------------------ *)
(* Shrinker. *)

let test_candidates_are_simpler () =
  let rng = Random.State.make [| 31; 3 |] in
  let s = Gen.executable ~rng () in
  let cands = Shrink.candidates s in
  checkb "a generated schema has shrink candidates" true (cands <> []);
  List.iter
    (fun (c : Schema.t) ->
      checkb "candidates stay connected" true
        (Schema.connected c (Schema.all_relations c));
      checkb "candidates never grow" true
        (Schema.n_relations c <= Schema.n_relations s
        && List.length c.Schema.selections <= List.length s.Schema.selections))
    cands

let test_shrink_minimizes () =
  (* A synthetic oracle that fails on any schema with a selection: the
     shrinker must walk down to a minimal instance that still has one. *)
  let fake =
    {
      Oracles.o_name = "has-selection";
      o_doc = "synthetic";
      o_check =
        (fun _ s ->
          if s.Schema.selections <> [] then Oracles.Fail "has a selection"
          else Oracles.Pass);
    }
  in
  let ctx () = Oracles.make_ctx ~rng:(Random.State.make [| 1 |]) () in
  (* Find a fat failing instance: several relations and a selection. *)
  let rec fat seed =
    let rng = Random.State.make [| 37; seed |] in
    let s = Gen.executable ~rng () in
    if Schema.n_relations s >= 3 && s.Schema.selections <> [] then s
    else fat (seed + 1)
  in
  let s = fat 0 in
  let small = Shrink.shrink ~oracle:fake ~ctx s in
  checkb "the shrunk schema still fails" true
    (fake.Oracles.o_check (ctx ()) small = Oracles.Fail "has a selection");
  checki "shrunk to a single relation" 1 (Schema.n_relations small);
  checki "exactly one selection survives" 1
    (List.length small.Schema.selections);
  Array.iter
    (fun (r : Schema.relation) ->
      checkb "cardinalities rounded down" true (r.Schema.card <= 100.))
    small.Schema.relations;
  Array.iter
    (fun (d : Schema.delta) ->
      checkb "deltas zeroed" true
        (d.Schema.n_ins = 0. && d.Schema.n_del = 0. && d.Schema.n_upd = 0.))
    small.Schema.deltas

let () =
  Alcotest.run "fuzz"
    [
      ( "gen",
        [
          Alcotest.test_case "executable schemas" `Quick
            test_executable_schemas_valid;
          Alcotest.test_case "flavor mix" `Quick test_schema_mixes_flavors;
        ] );
      ( "repro",
        [
          Alcotest.test_case "schema round trip" `Quick test_schema_roundtrip;
          Alcotest.test_case "repro round trip + file" `Quick
            test_repro_roundtrip_and_file;
          Alcotest.test_case "malformed rejected" `Quick
            test_malformed_repro_rejected;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "resolve diagnostics" `Quick
            test_resolve_diagnostics;
        ] );
      ( "runner",
        [
          Alcotest.test_case "smoke" `Quick test_runner_smoke;
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "replay path" `Quick test_check_schema_replays;
          Alcotest.test_case "replay uses recorded faults" `Quick
            test_replay_uses_recorded_faults;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "candidates" `Quick test_candidates_are_simpler;
          Alcotest.test_case "minimizes" `Quick test_shrink_minimizes;
        ] );
    ]
