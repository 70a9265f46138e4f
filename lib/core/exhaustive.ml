module Parallel = Vis_util.Parallel
module Config = Vis_costmodel.Config

exception Too_large of float

type result = {
  best : Config.t;
  best_cost : float;
  states : int;
  view_states : int;
  search_stats : Search_stats.t;
}

(* Subsets of a list, driven by an integer mask; [n] must stay small. *)
let list_subsets items ~f =
  let arr = Array.of_list items in
  let n = Array.length arr in
  if n > 24 then invalid_arg "Exhaustive: too many items to enumerate";
  for mask = 0 to (1 lsl n) - 1 do
    let subset = ref [] in
    for i = n - 1 downto 0 do
      if mask land (1 lsl i) <> 0 then subset := arr.(i) :: !subset
    done;
    f !subset
  done

(* Σ over view subsets S of 2^(always-on + Σ_{v∈S} per-view candidates)
   = 2^always-on · Π_v (1 + 2^candidates(v)) — closed form, since each
   view contributes its candidate indexes independently.  [always] counts
   base/primary indexes and compression candidates alike. *)
let count_states p =
  let always = List.length (Problem.extra_features_for_views p []) in
  List.fold_left
    (fun acc v ->
      let c =
        List.length
          (Problem.candidate_indexes_on p (Vis_costmodel.Element.View v))
      in
      acc *. (1. +. (2. ** float_of_int c)))
    (2. ** float_of_int always)
    p.Problem.candidate_views

let enumerate p ~f =
  let states = ref 0 in
  list_subsets p.Problem.candidate_views ~f:(fun views ->
      let extras = Problem.extra_features_for_views p views in
      list_subsets extras ~f:(fun feats ->
          let config =
            List.fold_left Problem.add_feature (Config.make ~views ~indexes:[]) feats
          in
          let cost = Problem.total p config in
          let space = Config.space p.Problem.derived config in
          incr states;
          f config ~cost ~space));
  !states

(* [subset_of_mask arr mask] builds the same list [list_subsets] would pass
   to [f] for [mask] — the shard boundaries below address enumeration states
   by (view mask, index mask) instead of iterating a nested loop. *)
let subset_of_mask arr mask =
  let n = Array.length arr in
  let subset = ref [] in
  for i = n - 1 downto 0 do
    if mask land (1 lsl i) <> 0 then subset := arr.(i) :: !subset
  done;
  !subset

(* The enumeration is sharded over the worker pool: every state has a global
   index [gidx] equal to its position in the sequential nested-loop order,
   the state space is cut into contiguous [gidx] ranges (never crossing a
   view-subset boundary, so a shard evaluates one eligible-index universe),
   and each shard reports its best (cost, gidx, config).  Shards share a
   lock-free incumbent bound so hopeless states are not recorded, but a
   state whose cost *ties* the bound is always kept — the merge therefore
   sees every state that attains the global minimum and picks the smallest
   [gidx], which is exactly the state the sequential first-strict-improvement
   scan would have kept.  Results are bit-identical at any [jobs] setting. *)
let search ?jobs ?(max_states = 2_000_000) p =
  let expected = count_states p in
  if expected > float_of_int max_states then raise (Too_large expected);
  let sstats = Search_stats.create ~algorithm:"exhaustive" () in
  Parallel.using ?jobs (fun pool ->
      let work_before = Parallel.work_counts pool in
      let views_arr = Array.of_list p.Problem.candidate_views in
      let nv = Array.length views_arr in
      if nv > 24 then invalid_arg "Exhaustive: too many items to enumerate";
      let view_states = 1 lsl nv in
      let per_view =
        Array.init view_states (fun vm ->
            let views = subset_of_mask views_arr vm in
            (views, Array.of_list (Problem.extra_features_for_views p views)))
      in
      let offsets = Array.make view_states 0 in
      let total = ref 0 in
      for vm = 0 to view_states - 1 do
        offsets.(vm) <- !total;
        total := !total + (1 lsl Array.length (snd per_view.(vm)))
      done;
      let total = !total in
      (* Fixed shard granularity (~64 shards), NOT derived from the pool
         width: shard boundaries are part of the deterministic structure
         (the sharding contract of {!Vis_util.Parallel}), and the per-shard
         state counts feed the machine-independent modeled speedup. *)
      let chunk_target = max 1 ((total + 63) / 64) in
      let ranges = ref [] in
      for vm = 0 to view_states - 1 do
        let n_inner = 1 lsl Array.length (snd per_view.(vm)) in
        let lo = ref 0 in
        while !lo < n_inner do
          let hi = min n_inner (!lo + chunk_target) in
          ranges := (vm, !lo, hi) :: !ranges;
          lo := hi
        done
      done;
      let ranges = Array.of_list (List.rev !ranges) in
      let bound = Atomic.make infinity in
      let rec lower_bound c =
        let cur = Atomic.get bound in
        if c < cur && not (Atomic.compare_and_set bound cur c) then
          lower_bound c
      in
      let shard_best =
        Array.make (Array.length ranges) (infinity, max_int, None)
      in
      Search_stats.time sstats "enumerate" (fun () ->
          Parallel.run pool ~chunks:(Array.length ranges) (fun c ->
              let vm, lo, hi = ranges.(c) in
              let views, extras = per_view.(vm) in
              let goff = offsets.(vm) in
              let best_c = ref infinity in
              let best_g = ref max_int in
              let best_cfg = ref None in
              for im = lo to hi - 1 do
                let config =
                  List.fold_left Problem.add_feature
                    (Config.make ~views ~indexes:[])
                    (subset_of_mask extras im)
                in
                let cost = Problem.total p config in
                if cost < !best_c && cost <= Atomic.get bound then begin
                  best_c := cost;
                  best_g := goff + im;
                  best_cfg := Some config;
                  lower_bound cost
                end
              done;
              shard_best.(c) <- (!best_c, !best_g, !best_cfg));
          (* One batch = one exchange round; each shard's work is its state
             count, known up front. *)
          Search_stats.record_round sstats
            (Array.map (fun (_, lo, hi) -> hi - lo) ranges);
          Search_stats.add_generated sstats total;
          Search_stats.add_evaluated sstats total;
          Search_stats.add_expanded sstats total);
      let best = ref Config.empty in
      let best_cost = ref infinity in
      let best_g = ref max_int in
      Array.iter
        (fun (c, g, cfg) ->
          match cfg with
          | Some cfg when c < !best_cost || (c = !best_cost && g < !best_g) ->
              best_cost := c;
              best_g := g;
              best := cfg
          | Some _ | None -> ())
        shard_best;
      if Parallel.jobs pool > 1 then
        Search_stats.set_parallel sstats ~jobs:(Parallel.jobs pool)
          ~work:
            (Parallel.diff_counts ~before:work_before
               ~after:(Parallel.work_counts pool));
      {
        best = !best;
        best_cost = !best_cost;
        states = total;
        view_states;
        search_stats = sstats;
      })

let fold_index_subsets p views ~init ~f =
  let indexes = Problem.indexes_for_views p views in
  let acc = ref init in
  let states = ref 0 in
  list_subsets indexes ~f:(fun ixs ->
      let config = Config.make ~views ~indexes:ixs in
      let cost = Problem.total p config in
      incr states;
      acc := f !acc config cost);
  (!acc, !states)

let best_indexes_for_views p views =
  let (config, cost), states =
    fold_index_subsets p views
      ~init:(Config.empty, infinity)
      ~f:(fun (bc, bcost) config cost ->
        if cost < bcost then (config, cost) else (bc, bcost))
  in
  (config, cost, states)

let worst_indexes_for_views p views =
  let (config, cost), states =
    fold_index_subsets p views
      ~init:(Config.empty, neg_infinity)
      ~f:(fun (bc, bcost) config cost ->
        if cost > bcost then (config, cost) else (bc, bcost))
  in
  (config, cost, states)

let per_view_set p =
  let results = ref [] in
  list_subsets p.Problem.candidate_views ~f:(fun views ->
      let (lo, hi), _ =
        fold_index_subsets p views ~init:(infinity, neg_infinity)
          ~f:(fun (lo, hi) _ cost -> (Float.min lo cost, Float.max hi cost))
      in
      results := (views, lo, hi) :: !results);
  List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b) !results
