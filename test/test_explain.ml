(* Tests for the explanation layer: the per-propagation cost report (its
   totals re-evaluate against the cost model), the ASCII rendering, the
   JSON form (round-trips through the parser), and the regression for
   non-finite floats in JSON output — an unachievable budget's infinite
   cost must serialize as null, not as "inf" the parser rejects. *)

module Schema = Vis_catalog.Schema
module Config = Vis_costmodel.Config
module Json = Vis_util.Json
module Problem = Vis_core.Problem
module Astar = Vis_core.Astar
module Explain = Vis_core.Explain
module Space = Vis_core.Space

let checkb = Alcotest.(check bool)

let checkf msg = Alcotest.(check (float 1e-6)) msg

let checks = Alcotest.(check string)

let contains ~affix text =
  let n = String.length affix and m = String.length text in
  let rec at i = i + n <= m && (String.sub text i n = affix || at (i + 1)) in
  n = 0 || at 0

let problem () = Problem.make (Vis_workload.Schemas.two_relation ())

let optimal = lazy ((Astar.search (problem ())).Astar.best)

(* ------------------------------------------------------------------ *)
(* The report. *)

let test_report_totals () =
  let p = problem () in
  let best = Lazy.force optimal in
  let report = Explain.explain p best in
  checkf "the report total is the configuration's cost"
    (Problem.total p best) report.Explain.r_total;
  checkf "the report space is the configuration's footprint"
    (Config.space p.Problem.derived best)
    report.Explain.r_space;
  checkb "a maintained design has propagation lines" true
    (report.Explain.r_lines <> []);
  List.iter
    (fun l ->
      checkf
        (Printf.sprintf "line %s/%s total is the sum of its components"
           l.Explain.l_element l.Explain.l_delta)
        (l.Explain.l_eval +. l.Explain.l_apply +. l.Explain.l_save
       +. l.Explain.l_index)
        l.Explain.l_total)
    report.Explain.r_lines

let test_render () =
  let p = problem () in
  let report = Explain.explain p (Lazy.force optimal) in
  let text = Vis_util.Tableprint.of_json (Explain.report_json report) in
  checkb "render is newline-terminated" true
    (String.length text > 0 && text.[String.length text - 1] = '\n');
  List.iter
    (fun l ->
      checkb
        (Printf.sprintf "render mentions element %s" l.Explain.l_element)
        true
        (contains ~affix:l.Explain.l_element text))
    report.Explain.r_lines

let test_compare_designs () =
  let p = problem () in
  let text =
    Explain.compare_designs p
      [ ("empty", Config.empty); ("optimal", Lazy.force optimal) ]
  in
  checkb "comparison names the empty design" true
    (contains ~affix:"empty" text);
  checkb "comparison names the optimal design" true
    (contains ~affix:"optimal" text)

(* ------------------------------------------------------------------ *)
(* JSON. *)

let test_report_json_roundtrip () =
  let p = problem () in
  let report = Explain.explain p (Lazy.force optimal) in
  let doc = Explain.report_json report in
  let parsed = Json.of_string (Json.to_string ~indent:2 doc) in
  checkf "total_cost survives the round trip" report.Explain.r_total
    (Json.to_float (Json.member "total_cost" parsed));
  match Json.member "propagations" parsed with
  | Json.List lines ->
      Alcotest.(check int)
        "every line survives the round trip"
        (List.length report.Explain.r_lines)
        (List.length lines)
  | _ -> Alcotest.fail "report_json lacks a propagations list"

let test_json_non_finite_floats () =
  (* The PR-1 regression: Printf's "inf"/"nan" are not JSON.  Non-finite
     floats must print as null and parse back. *)
  checks "infinity prints as null" "null" (Json.to_string (Json.Float infinity));
  checks "negative infinity prints as null" "null"
    (Json.to_string (Json.Float neg_infinity));
  checks "nan prints as null" "null" (Json.to_string (Json.Float nan));
  checkb "a document holding an infinite cost still parses" true
    (Json.of_string
       (Json.to_string
          (Json.Obj [ ("cost", Json.Float infinity); ("n", Json.Int 3) ]))
    = Json.Obj [ ("cost", Json.Null); ("n", Json.Int 3) ])

let test_json_infinite_cost_at () =
  (* An unachievable budget produces an infinite cost; embedding it in a
     JSON document must not produce unparseable output. *)
  let p = problem () in
  let sw = Space.sweep p in
  let unachievable = Space.cost_at sw ~budget:(-1.) in
  checkb "cost below the staircase is infinite" true
    (unachievable = Float.infinity);
  let doc = Json.Obj [ ("cost_at", Json.Float unachievable) ] in
  checkb "the infinite lookup serializes to a parseable document" true
    (Json.of_string (Json.to_string doc) = Json.Obj [ ("cost_at", Json.Null) ])

let () =
  Alcotest.run "explain"
    [
      ( "report",
        [
          Alcotest.test_case "totals re-evaluate" `Quick test_report_totals;
          Alcotest.test_case "render" `Quick test_render;
          Alcotest.test_case "compare_designs" `Quick test_compare_designs;
        ] );
      ( "json",
        [
          Alcotest.test_case "report round trip" `Quick
            test_report_json_roundtrip;
          Alcotest.test_case "non-finite floats" `Quick
            test_json_non_finite_floats;
          Alcotest.test_case "infinite cost_at" `Quick
            test_json_infinite_cost_at;
        ] );
    ]
