module Config = Vis_costmodel.Config

type result = {
  best : Config.t;
  best_cost : float;
  moves : int;
  evaluations : int;
  search_stats : Search_stats.t;
}

let search ?seed ?space_budget ?(max_moves = 1000) p =
  let sstats = Search_stats.create ~algorithm:"local-search" () in
  let evaluations = ref 0 in
  let cost config =
    incr evaluations;
    Search_stats.evaluate sstats;
    Problem.total p config
  in
  let within config =
    match space_budget with
    | None -> true
    | Some b -> Config.space p.Problem.derived config <= b
  in
  let start =
    match seed with
    | Some c -> c
    | None ->
        Search_stats.time sstats "greedy-seed" (fun () ->
            (Greedy.search ?space_budget p).Greedy.best)
  in
  let rec climb config current moves =
    if moves >= max_moves then begin
      Search_stats.prune sstats "move-budget";
      (config, current, moves)
    end
    else begin
      Search_stats.expand sstats;
      let candidates_in =
        List.filter (fun f -> Problem.has_feature config f) p.Problem.features
      in
      let candidates_out =
        List.filter
          (fun f -> (not (Problem.has_feature config f)) && Problem.applicable p config f)
          p.Problem.features
      in
      Search_stats.observe_frontier sstats
        (List.length candidates_in + List.length candidates_out);
      let consider best config' =
        if not (within config') then begin
          Search_stats.prune sstats "space-budget";
          best
        end
        else begin
          Search_stats.generate sstats;
          let c = cost config' in
          match best with
          | Some (_, bc) when bc <= c -> best
          | _ when c < current -> Some (config', c)
          | _ -> best
        end
      in
      let best = List.fold_left (fun b f -> consider b (Problem.add_feature config f)) None candidates_out in
      let best = List.fold_left (fun b f -> consider b (Problem.drop_feature config f)) best candidates_in in
      let best =
        List.fold_left
          (fun b f_out ->
            List.fold_left
              (fun b f_in ->
                let config' = Problem.drop_feature config f_in in
                (* The added feature must still be applicable after the drop
                   (e.g. not an index on the dropped view). *)
                if Problem.applicable p config' f_out then
                  consider b (Problem.add_feature config' f_out)
                else b)
              b candidates_in)
          best candidates_out
      in
      match best with
      | None -> (config, current, moves)
      | Some (config', c) -> climb config' c (moves + 1)
    end
  in
  Search_stats.generate sstats;
  (* the seed configuration *)
  let seed_cost = cost start in
  let best, best_cost, moves =
    Search_stats.time sstats "climb" (fun () -> climb start seed_cost 0)
  in
  { best; best_cost; moves; evaluations = !evaluations; search_stats = sstats }
