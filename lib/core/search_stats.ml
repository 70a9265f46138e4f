module Json = Vis_util.Json

type t = {
  algo : string;
  mutable expanded : int;
  mutable generated : int;
  mutable evaluated : int;
  mutable max_frontier : int;
  mutable adm_checks : int;
  mutable adm_violations : int;
  pruning : (string, int) Hashtbl.t;
  phases : (string, float) Hashtbl.t;
  mutable phase_order : string list;  (* reversed first-use order *)
  mutable jobs : int;  (* worker slots of the parallel run; 0 = unrecorded *)
  mutable domain_work : int array;  (* chunks executed per worker slot *)
  mutable rounds : int array list;  (* per exchange round, work per task; newest first *)
}

let create ~algorithm () =
  {
    algo = algorithm;
    expanded = 0;
    generated = 0;
    evaluated = 0;
    max_frontier = 0;
    adm_checks = 0;
    adm_violations = 0;
    pruning = Hashtbl.create 8;
    phases = Hashtbl.create 8;
    phase_order = [];
    jobs = 0;
    domain_work = [||];
    rounds = [];
  }

let algorithm t = t.algo

let expand t = t.expanded <- t.expanded + 1

let generate t = t.generated <- t.generated + 1

let evaluate t = t.evaluated <- t.evaluated + 1

(* Bulk increments: sharded algorithms count states per shard and charge the
   totals once, so the scoreboard only ever mutates on the coordinating
   domain and totals match a sequential run exactly. *)

let add_expanded t n = t.expanded <- t.expanded + n

let add_generated t n = t.generated <- t.generated + n

let add_evaluated t n = t.evaluated <- t.evaluated + n

let expanded t = t.expanded

let generated t = t.generated

let evaluated t = t.evaluated

let prune ?(count = 1) t rule =
  let current = Option.value ~default:0 (Hashtbl.find_opt t.pruning rule) in
  Hashtbl.replace t.pruning rule (current + count)

let pruned t rule = Option.value ~default:0 (Hashtbl.find_opt t.pruning rule)

let pruning_counts t =
  Hashtbl.fold (fun rule count acc -> (rule, count) :: acc) t.pruning []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let observe_frontier t n = if n > t.max_frontier then t.max_frontier <- n

let max_frontier t = t.max_frontier

let admissibility_check t ~violated =
  t.adm_checks <- t.adm_checks + 1;
  if violated then t.adm_violations <- t.adm_violations + 1

let admissibility_checks t = t.adm_checks

let admissibility_violations t = t.adm_violations

(* ------------------------------------------------------------------ *)
(* Parallel-run accounting. *)

let set_parallel t ~jobs ~work =
  t.jobs <- jobs;
  t.domain_work <- Array.copy work

(* Exchange-round accounting for the sharded searches: one entry per
   parallel batch, holding the exact work units (cost evaluations) each
   task of that batch performed.  The shard boundaries are jobs-independent,
   so the recorded rounds are identical at any pool width — they are the
   input to the machine-independent speedup model below. *)

let record_round t tasks =
  if Array.length tasks > 0 then t.rounds <- Array.copy tasks :: t.rounds

let rounds t = List.rev_map Array.copy t.rounds

let round_count t = List.length t.rounds

let round_work t =
  List.fold_left
    (fun acc tasks -> Array.fold_left ( + ) acc tasks)
    0 t.rounds

(* Speedup the recorded rounds admit on [jobs] equally-fast workers under
   the pool's claim-in-order schedule, with a barrier after every round:
   total work / Σ per-round makespan.  Purely a function of deterministic
   counters — the figure a multicore host can approach, computable even on
   a single-core machine. *)
let modeled_speedup t ~jobs =
  if jobs < 1 || t.rounds = [] then None
  else begin
    let total = ref 0 and span = ref 0 in
    List.iter
      (fun tasks ->
        Array.iter (fun w -> total := !total + w) tasks;
        span := !span + Vis_util.Parallel.simulate_schedule ~jobs tasks)
      t.rounds;
    if !span <= 0 then None
    else Some (float_of_int !total /. float_of_int !span)
  end

let parallel_jobs t = t.jobs

let domain_work t = Array.copy t.domain_work

(* Load balance of the sharded phases: 1.0 means every worker slot executed
   the same number of chunks; total/(slots*max) < 1 measures the idle tail.
   This is an upper bound on achievable parallel efficiency — wall-clock
   speedup is additionally capped by the sequential sections. *)
let work_balance t =
  if t.jobs <= 1 || Array.length t.domain_work = 0 then None
  else begin
    let total = Array.fold_left ( + ) 0 t.domain_work in
    let peak = Array.fold_left max 0 t.domain_work in
    if total = 0 || peak = 0 then None
    else
      Some
        (float_of_int total
        /. (float_of_int (Array.length t.domain_work) *. float_of_int peak))
  end

(* Wall-clock time.  [Sys.time] counts CPU seconds summed over every
   domain, which would over-report parallel phases by up to the number of
   workers; [Unix.gettimeofday] measures elapsed time. *)
let now = Unix.gettimeofday

let time t phase f =
  if not (Hashtbl.mem t.phases phase) then begin
    Hashtbl.replace t.phases phase 0.;
    t.phase_order <- phase :: t.phase_order
  end;
  let started = now () in
  Fun.protect
    ~finally:(fun () ->
      let elapsed = now () -. started in
      Hashtbl.replace t.phases phase (Hashtbl.find t.phases phase +. elapsed))
    f

let phase_timings t =
  List.rev_map (fun phase -> (phase, Hashtbl.find t.phases phase)) t.phase_order

let to_json t =
  Json.Obj
    [
      ("algorithm", Json.String t.algo);
      ("expanded", Json.Int t.expanded);
      ("generated", Json.Int t.generated);
      ("cost_evaluations", Json.Int t.evaluated);
      ("max_frontier", Json.Int t.max_frontier);
      ("admissibility_checks", Json.Int t.adm_checks);
      ("admissibility_violations", Json.Int t.adm_violations);
      ( "pruning",
        Json.Obj
          (List.map (fun (rule, n) -> (rule, Json.Int n)) (pruning_counts t)) );
      ( "phases_seconds",
        Json.Obj
          (List.map (fun (phase, s) -> (phase, Json.Float s)) (phase_timings t))
      );
      ( "sharded_rounds",
        if t.rounds = [] then Json.Null
        else
          Json.Obj
            [
              ("rounds", Json.Int (round_count t));
              ("work_units", Json.Int (round_work t));
              ( "modeled_speedup",
                Json.Obj
                  (List.filter_map
                     (fun jobs ->
                       match modeled_speedup t ~jobs with
                       | Some s ->
                           Some (string_of_int jobs, Json.Float s)
                       | None -> None)
                     [ 2; 4; 8 ]) );
            ] );
      ( "parallel",
        if t.jobs = 0 then Json.Null
        else
          Json.Obj
            [
              ("jobs", Json.Int t.jobs);
              ( "domain_work",
                Json.List
                  (Array.to_list (Array.map (fun n -> Json.Int n) t.domain_work))
              );
              ( "work_balance",
                match work_balance t with
                | Some b -> Json.Float b
                | None -> Json.Null );
            ] );
    ]
