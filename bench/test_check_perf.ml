(* Tests for check_perf: the checked-in baseline passes against itself;
   every guarded number pushed past its tolerance in the regressing
   direction fails the check (and passes in the improving one); a measured
   run missing a study fails; a baseline missing one is a usage error; and
   an undetected injection fails whatever the baseline says. *)

module Json = Vis_util.Json

let baseline_path = "perf_baseline.json"

let baseline =
  let ic = open_in_bin baseline_path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Json.of_string s

let write json =
  let path = Filename.temp_file "check_perf" ".json" in
  let oc = open_out_bin path in
  output_string oc (Json.to_string json);
  close_out oc;
  path

(* Exit status of check_perf on (measured, baseline). *)
let check ?(base = baseline) measured =
  let m = write measured and b = write base in
  let code =
    Sys.command
      (Printf.sprintf "./check_perf.exe %s %s >/dev/null 2>&1"
         (Filename.quote m) (Filename.quote b))
  in
  Sys.remove m;
  Sys.remove b;
  code

(* Every guarded number, by study path and metric, with the direction in
   which it regresses. *)
let guarded =
  [
    ([ "search_cost_evaluations" ], "cost_evaluations", `Up);
    ([ "parallel_scaling"; "cases" ], "modeled_speedup_4", `Down);
    ([ "storage_engine"; "group_commit" ], "wal_syncs", `Up);
    ([ "service" ], "reopts", `Up);
    ([ "service" ], "p99_batch_latency_sim_ms", `Up);
    ([ "mined_candidates"; "reduction" ], "cost_evaluations_mined", `Up);
    ([ "mined_candidates"; "reduction" ], "reduction_factor", `Down);
    ([ "corruption" ], "checksummed_refresh_io", `Up);
    ([ "corruption" ], "scrub_io", `Up);
    ([ "corruption" ], "read_overhead_frac", `Up);
  ]

(* Beyond both the 20% integer and the baseline's 25% float tolerance. *)
let factor = 1.3

let scale up = function
  | Json.Int i ->
      let x = float_of_int i in
      let y = if up then Float.ceil (x *. factor) else Float.floor (x /. factor) in
      Json.Int (int_of_float y)
  | Json.Float x -> Json.Float (if up then x *. factor else x /. factor)
  | v -> v

(* [update path f json] rewrites the value at [path] (object members). *)
let rec update path f json =
  match (path, json) with
  | [], v -> f v
  | key :: rest, Json.Obj members ->
      Json.Obj
        (List.map
           (fun (k, v) -> if k = key then (k, update rest f v) else (k, v))
           members)
  | _, v -> v

(* Copies of [json] with the [i]-th occurrence of [metric] under [path]
   scaled, one per occurrence. *)
let variants path metric ~up json =
  let at = List.fold_left (fun v k -> Json.member k v) json path in
  let set_metric row =
    Json.Obj
      (List.map
         (fun (k, v) -> if k = metric then (k, scale up v) else (k, v))
         (Json.fields row))
  in
  match at with
  | Json.List rows ->
      List.mapi
        (fun i _ ->
          update path
            (fun _ ->
              Json.List
                (List.mapi (fun j r -> if i = j then set_metric r else r) rows))
            json)
        rows
  | Json.Obj _ -> [ update path set_metric json ]
  | _ -> Alcotest.failf "baseline has no %s" (String.concat "." path)

let studies =
  List.sort_uniq compare (List.map (fun (path, _, _) -> List.hd path) guarded)

let without key json =
  Json.Obj (List.filter (fun (k, _) -> k <> key) (Json.fields json))

let test_self () =
  Alcotest.(check int) "baseline against itself" 0 (check baseline)

let test_regressions () =
  List.iter
    (fun (path, metric, dir) ->
      let name = String.concat "." path ^ " " ^ metric in
      List.iter
        (fun v -> Alcotest.(check int) (name ^ " regressed") 1 (check v))
        (variants path metric ~up:(dir = `Up) baseline);
      List.iter
        (fun v -> Alcotest.(check int) (name ^ " improved") 0 (check v))
        (variants path metric ~up:(dir = `Down) baseline))
    guarded

let test_missing_family () =
  List.iter
    (fun study ->
      Alcotest.(check int)
        (study ^ " missing from the measured run")
        1
        (check (without study baseline));
      Alcotest.(check int)
        (study ^ " missing from the baseline")
        2
        (check ~base:(without study baseline) baseline))
    studies

let test_detection () =
  let missed =
    update [ "corruption" ]
      (fun c ->
        Json.Obj
          (List.map
             (fun (k, v) -> if k = "convicted" then (k, Json.Int 3) else (k, v))
             (Json.fields c)))
      baseline
  in
  Alcotest.(check int) "a missed injection fails" 1 (check missed)

let () =
  Alcotest.run "check_perf"
    [
      ( "gates",
        [
          Alcotest.test_case "baseline passes itself" `Quick test_self;
          Alcotest.test_case "every guarded number" `Quick test_regressions;
          Alcotest.test_case "missing study" `Quick test_missing_family;
          Alcotest.test_case "detection completeness" `Quick test_detection;
        ] );
    ]
