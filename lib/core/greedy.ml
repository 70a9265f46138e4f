module Parallel = Vis_util.Parallel
module Config = Vis_costmodel.Config

type step = { s_feature : Problem.feature; s_cost_after : float }

type result = {
  best : Config.t;
  best_cost : float;
  steps : step list;
  evaluations : int;
  search_stats : Search_stats.t;
}

let search_with_pool ~pool ?space_budget p =
  let sstats = Search_stats.create ~algorithm:"greedy" () in
  let evaluations = ref 0 in
  let cost config =
    incr evaluations;
    Search_stats.evaluate sstats;
    Problem.total p config
  in
  let within_budget config =
    match space_budget with
    | None -> true
    | Some b -> Config.space p.Problem.derived config <= b
  in
  (* Cost the candidate in a worker; the budget check and the evaluation are
     pure, so the entries are identical at any [jobs] setting. *)
  let score config f =
    let config' = Problem.add_feature config f in
    if not (within_budget config') then None
    else Some (config', Problem.total p config')
  in
  let rec loop config current steps =
    Search_stats.expand sstats;
    let candidates =
      List.filter
        (fun f ->
          (not (Problem.has_feature config f)) && Problem.applicable p config f)
        p.Problem.features
    in
    Search_stats.observe_frontier sstats (List.length candidates);
    let arr = Array.of_list candidates in
    let entries =
      if Parallel.jobs pool > 1 && Array.length arr > 1 then
        Parallel.map_array pool (score config) arr
      else Array.map (score config) arr
    in
    (* Sequential replay over the precomputed entries: same accumulator
       semantics and same counter sequence as the all-sequential version. *)
    let best = ref None in
    Array.iteri
      (fun i f ->
        match entries.(i) with
        | None -> Search_stats.prune sstats "space-budget"
        | Some (config', c) ->
            Search_stats.generate sstats;
            incr evaluations;
            Search_stats.evaluate sstats;
            (match !best with
            | Some (_, _, best_c) when best_c <= c -> ()
            | _ when c < current -> best := Some (f, config', c)
            | _ -> ()))
      arr;
    match !best with
    | None ->
        {
          best = config;
          best_cost = current;
          steps = List.rev steps;
          evaluations = !evaluations;
          search_stats = sstats;
        }
    | Some (f, config', c) ->
        loop config' c ({ s_feature = f; s_cost_after = c } :: steps)
  in
  let before = Parallel.work_counts pool in
  Fun.protect
    ~finally:(fun () ->
      if Parallel.jobs pool > 1 then
        Search_stats.set_parallel sstats ~jobs:(Parallel.jobs pool)
          ~work:
            (Parallel.diff_counts ~before ~after:(Parallel.work_counts pool)))
    (fun () ->
      Search_stats.time sstats "search" (fun () ->
          Search_stats.generate sstats;
          (* the empty start configuration *)
          loop Config.empty (cost Config.empty) []))

let search ?jobs ?pool ?space_budget p =
  Parallel.using ?jobs ?pool (fun pool -> search_with_pool ~pool ?space_budget p)
