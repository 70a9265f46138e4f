(* Benchmark process: runs one workload and prints its result as
   one JSON line.  Usually started by run.py, which pins the environment,
   times set-up from outside and prints the final summary. *)

module W = Perfbench.Pb_workloads
module Json = Vis_util.Json

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let setup_only = ref false and out = ref "perfbench/_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME advise, ingest or serve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
      ("--setup-only", Arg.Set setup_only, " exit once set-up is done");
      ("--out", Arg.Set_string out, "DIR where a traced run writes its span dump");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  if not (List.mem !workload W.workloads) then begin
    prerr_endline ("bench: --workload must be one of " ^ String.concat ", " W.workloads);
    exit 2
  end;
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "bench: --seconds must be > 0 and --trace 0 or 1";
    exit 2
  end;
  let ready gen_s =
    Printf.printf "READY %.9f\n%!" gen_s
  in
  let ctx = { W.seed = !seed; seconds = !seconds; ready } in
  match W.run ~workload:!workload ~trace:(!trace = 1) ~setup_only:!setup_only ~out:!out ctx with
  | None -> ()
  | Some r ->
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("attempted", Json.Int r.W.attempted);
                ("failed", Json.Int r.W.failed);
                ("correct", Json.Bool r.W.correct);
                ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.W.metrics));
                ("latencies_s", Json.List (Array.to_list (Array.map (fun x -> Json.Float x) r.W.latencies)));
                ("work", Json.Float r.W.work);
                ( "info",
                  Json.Obj
                    (r.W.info
                    @ [
                        ("jobs", Json.Int W.jobs);
                        ("ocaml", Json.String Sys.ocaml_version);
                        ("domains", Json.Int (Domain.recommended_domain_count ()));
                      ]) );
              ]))
