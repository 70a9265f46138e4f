module Bitset = Vis_util.Bitset
module Parallel = Vis_util.Parallel
module Pqueue = Vis_util.Pqueue
module Schema = Vis_catalog.Schema
module Element = Vis_costmodel.Element
module Config = Vis_costmodel.Config
module Cost = Vis_costmodel.Cost

type stats = { expanded : int; generated : int; exhaustive_states : float }

type result = {
  best : Config.t;
  best_cost : float;
  stats : stats;
  search_stats : Search_stats.t;
}

exception Budget_exceeded of stats

(* ------------------------------------------------------------------ *)
(* Per-problem precomputation.

   For every feature we know, independently of the search state:
   - [lb_cost]: a lower bound on its own maintenance in any completion (its
     cost with *every* candidate structure materialized, which is the
     richest plan space a completion can offer; for views, index maintenance
     is excluded because indexes carry their own cost);
   - [key_benefit]: the configuration-independent saving of a key index for
     locating deleted/updated tuples;
   - [affected]: the insertion expressions (target view, delta relation)
     whose evaluation the feature can make cheaper;
   - the full-configuration *floors* of every expression: no completion can
     push an evaluation below its cost with everything materialized.

   Features whose [lb_cost] exceeds their largest possible benefit (taken
   under the empty configuration, where evaluations are most expensive) can
   never reduce the total and are dropped outright — a sound dominance rule
   that shrinks the search space before A* starts. *)

type prep = {
  features : Problem.feature array;
  view_pos : (int, int) Hashtbl.t;  (* candidate view -> feature position *)
  lb_cost : float array;
  key_benefit : float array;
  affected : (int * int) list array;  (* (target index, delta relation) *)
  targets : Element.t array;  (* target 0 is the primary view *)
  target_view_pos : int array;  (* feature position of the target's view; -1 for the primary *)
  full_ins : float array array;  (* ins eval floor per [target][rel] *)
  full_del : float array array;  (* del eval+apply floor *)
  full_upd : float array array;
  full_base_del : float array;  (* per base relation *)
  full_base_upd : float array;
  dropped : Problem.feature list;  (* dominance-pruned features *)
}

let lb_view_cost full_eval w =
  let elem = Element.View w in
  Bitset.fold
    (fun r acc ->
      let pi, _ = Cost.prop_ins full_eval ~target:elem ~rel:r in
      let pd, _ = Cost.prop_del full_eval ~target:elem ~rel:r in
      let pu, _ = Cost.prop_upd full_eval ~target:elem ~rel:r in
      acc
      +. (pi.Cost.p_eval +. pi.Cost.p_apply +. pi.Cost.p_save)
      +. (pd.Cost.p_eval +. pd.Cost.p_apply)
      +. (pu.Cost.p_eval +. pu.Cost.p_apply))
    w 0.

(* Saving of a key index on [elem] for deletions and updates; it does not
   depend on what else is materialized.  With compression in the feature
   space the costs around the index can swing by the per-page factors, so
   the bound stretches to [cw·without − cf·with]; without compression
   [cf = cw = 1] and the formula is bitwise the original. *)
let key_index_benefit p ~cf ~cw ix =
  let elem = ix.Element.ix_elem in
  let r = ix.Element.ix_attr.Element.a_rel in
  let key = (Schema.relation p.Problem.schema r).Schema.key_attr in
  if ix.Element.ix_attr.Element.a_name <> key || not (Bitset.mem r (Element.rels elem))
  then 0.
  else begin
    let cost config =
      let eval = Problem.evaluator p config in
      let pd, _ = Cost.prop_del eval ~target:elem ~rel:r in
      let pu, _ = Cost.prop_upd eval ~target:elem ~rel:r in
      pd.Cost.p_eval +. pd.Cost.p_apply +. pu.Cost.p_eval +. pu.Cost.p_apply
    in
    let without = cost Config.empty in
    let with_ix = cost (Config.make ~views:[] ~indexes:[ ix ]) in
    Float.max 0. ((cw *. without) -. (cf *. with_ix))
  end

(* Insertion expressions the feature can make cheaper, as indices into
   [targets].  Membership is tracked in hash sets keyed [(target, rel)]:
   the original [List.mem] rescans made the accumulation quadratic on
   join-heavy schemas.  Each accumulator mirrors the prepend chain of the
   scan-based version, so list order and membership are unchanged. *)
let affected_triples p targets feature =
  let schema = p.Problem.schema in
  let fresh () = (Hashtbl.create 32, ref []) in
  let add ((seen, items) : ((int * int, unit) Hashtbl.t * _) ) key =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      items := key :: !items
    end
  in
  let triples_over ~must_contain ~strict ~delta_outside =
    let acc = fresh () in
    Array.iteri
      (fun ti elem ->
        let rels = Element.rels elem in
        let contains =
          if strict then Bitset.proper_subset must_contain rels
          else Bitset.subset must_contain rels
        in
        if contains then
          let srels = if delta_outside then Bitset.diff rels must_contain else rels in
          Bitset.iter (fun r -> add acc (ti, r)) srels)
      targets;
    !(snd acc)
  in
  match feature with
  | Problem.F_view w -> triples_over ~must_contain:w ~strict:true ~delta_outside:false
  (* Compression's benefit is bounded by a config-independent constant in
     [key_benefit]; it claims no per-state insertion gaps. *)
  | Problem.F_compress _ -> []
  | Problem.F_index ix ->
      let e_rels = Element.rels ix.Element.ix_elem in
      let attr = ix.Element.ix_attr in
      let acc = fresh () in
      List.iter
        (fun (j : Schema.join) ->
          let outside =
            if
              j.Schema.left_rel = attr.Element.a_rel
              && j.Schema.left_attr = attr.Element.a_name
              && not (Bitset.mem j.Schema.right_rel e_rels)
            then Some j.Schema.right_rel
            else if
              j.Schema.right_rel = attr.Element.a_rel
              && j.Schema.right_attr = attr.Element.a_name
              && not (Bitset.mem j.Schema.left_rel e_rels)
            then Some j.Schema.left_rel
            else None
          in
          match outside with
          | None -> ()
          | Some x ->
              List.iter (add acc)
                (triples_over
                   ~must_contain:(Bitset.add x e_rels)
                   ~strict:false ~delta_outside:false))
        schema.Schema.joins;
      (match ix.Element.ix_elem with
      | Element.Base i
        when List.mem attr.Element.a_name (Schema.selection_attrs schema i) ->
          List.iter (add acc)
            (triples_over ~must_contain:(Bitset.singleton i) ~strict:false
               ~delta_outside:true)
      | Element.Base _ | Element.View _ -> ());
      !(snd acc)

let ins_eval_of eval elem r =
  (fst (Cost.prop_ins eval ~target:elem ~rel:r)).Cost.p_eval

let delupd_of eval elem r =
  let pd, _ = Cost.prop_del eval ~target:elem ~rel:r in
  let pu, _ = Cost.prop_upd eval ~target:elem ~rel:r in
  ( pd.Cost.p_eval +. pd.Cost.p_apply,
    pu.Cost.p_eval +. pu.Cost.p_apply )

let prepare ~pool p =
  let schema = p.Problem.schema in
  let n_rels = Schema.n_relations schema in
  let full_config =
    Config.make ~views:p.Problem.candidate_views
      ~indexes:(Problem.indexes_for_views p p.Problem.candidate_views)
  in
  let full_eval = Problem.evaluator p full_config in
  (* Compression scaling of the bounds.  Every charging site's cost moves
     by a per-page factor in [cf, cw] under any compression assignment, so
     scaling a floor or a feature's own lower bound by [cf] (and a cost
     ceiling by [cw]) keeps it sound over the compressed completions too.
     Without compression candidates both factors are [1.] and every formula
     below is bitwise identical to the compression-free search. *)
  let has_compression = p.Problem.compress_elems <> [] in
  let cf = if has_compression then Cost.compress_read_factor else 1. in
  let cw = if has_compression then Cost.compress_write_factor else 1. in
  (* An [F_compress] maintains nothing of its own; its possible saving is
     bounded by the whole maintenance bill at its most expensive (the empty
     configuration, stretched by [cw]). *)
  let compress_benefit =
    if has_compression then cw *. Problem.total p Config.empty else 0.
  in
  let lb_of full_eval f =
    cf
    *.
    match f with
    | Problem.F_view w -> lb_view_cost full_eval w
    | Problem.F_index ix -> Cost.index_maint_cost full_eval ix
    | Problem.F_compress _ -> 0.
  in
  (* Per-feature precomputation fans out over the pool.  Each chunk builds
     private evaluators with [init] (an evaluator memoizes plan prefixes in
     single-domain mutable state, so it must not be shared across workers);
     the mapped values are pure, so every [jobs] setting computes the same
     arrays. *)
  let par_map ~init f arr =
    if Parallel.jobs pool > 1 && Array.length arr > 1 then
      Parallel.map_init pool ~init f arr
    else
      let ctx = init () in
      Array.map (f ctx) arr
  in
  let evaluators () =
    (Problem.evaluator p full_config, Problem.evaluator p Config.empty)
  in
  (* Dominance fixpoint: drop features that can never pay for themselves,
     re-evaluating as dropped views stop being benefit targets. *)
  let rec fixpoint features views =
    let targets =
      Array.of_list
        (Element.View (Schema.all_relations schema)
        :: List.map (fun w -> Element.View w) views)
    in
    let keep (full_eval, empty_eval) feature =
      let lb = lb_of full_eval feature in
      let benefit =
        key_index_benefit_or_zero p feature
        +. List.fold_left
             (fun acc (ti, r) ->
               let elem = targets.(ti) in
               let gap =
                 (cw *. ins_eval_of empty_eval elem r)
                 -. (cf *. ins_eval_of full_eval elem r)
               in
               acc +. Float.max 0. gap)
             0.
             (affected_triples p targets feature)
      in
      lb < benefit -. 1e-9
    in
    let flags = par_map ~init:evaluators keep (Array.of_list features) in
    let kept = List.filteri (fun i _ -> flags.(i)) features in
    let kept_views =
      List.filter_map
        (function
          | Problem.F_view w -> Some w
          | Problem.F_index _ | Problem.F_compress _ -> None)
        kept
    in
    (* Indexes on dropped candidate views can never apply. *)
    let kept =
      List.filter
        (function
          | Problem.F_view _ | Problem.F_compress _ -> true
          | Problem.F_index ix -> (
              match ix.Element.ix_elem with
              | Element.Base _ -> true
              | Element.View w ->
                  Bitset.equal w (Schema.all_relations schema)
                  || List.exists (Bitset.equal w) kept_views))
        kept
    in
    if List.length kept = List.length features then (kept, kept_views)
    else fixpoint kept kept_views
  and key_index_benefit_or_zero p = function
    | Problem.F_view _ -> 0.
    | Problem.F_index ix -> key_index_benefit p ~cf ~cw ix
    | Problem.F_compress _ -> compress_benefit
  in
  let kept, kept_views = fixpoint p.Problem.features p.Problem.candidate_views in
  let dropped =
    List.filter
      (fun f -> not (List.exists (Problem.equal_feature f) kept))
      p.Problem.features
  in
  let features = Array.of_list kept in
  let view_pos = Hashtbl.create 16 in
  Array.iteri
    (fun i f ->
      match f with
      | Problem.F_view w -> Hashtbl.replace view_pos (Bitset.to_int w) i
      | Problem.F_index _ | Problem.F_compress _ -> ())
    features;
  let targets =
    Array.of_list
      (Element.View (Schema.all_relations schema)
      :: List.map (fun w -> Element.View w) kept_views)
  in
  let target_view_pos =
    Array.map
      (fun elem ->
        match elem with
        | Element.View w when not (Bitset.equal w (Schema.all_relations schema))
          -> (
            match Hashtbl.find_opt view_pos (Bitset.to_int w) with
            | Some pos -> pos
            | None -> -1)
        | Element.View _ | Element.Base _ -> -1)
      targets
  in
  let per_target f =
    Array.map
      (fun elem ->
        Array.init n_rels (fun r ->
            if Bitset.mem r (Element.rels elem) then f elem r else 0.))
      targets
  in
  (* Floors carry the [cf] scaling: a compressed completion can push an
     evaluation below its everything-materialized cost, but never below
     [cf] times it. *)
  let full_ins = per_target (fun elem r -> cf *. ins_eval_of full_eval elem r) in
  let full_del =
    per_target (fun elem r -> cf *. fst (delupd_of full_eval elem r))
  in
  let full_upd =
    per_target (fun elem r -> cf *. snd (delupd_of full_eval elem r))
  in
  let full_base_del =
    Array.init n_rels (fun r ->
        cf *. fst (delupd_of full_eval (Element.Base r) r))
  in
  let full_base_upd =
    Array.init n_rels (fun r ->
        cf *. snd (delupd_of full_eval (Element.Base r) r))
  in
  {
    features;
    view_pos;
    lb_cost =
      par_map
        ~init:(fun () -> Problem.evaluator p full_config)
        lb_of features;
    key_benefit =
      par_map
        ~init:(fun () -> ())
        (fun () -> function
          | Problem.F_view _ -> 0.
          | Problem.F_index ix -> key_index_benefit p ~cf ~cw ix
          | Problem.F_compress _ -> compress_benefit)
        features;
    affected =
      par_map ~init:(fun () -> ()) (fun () -> affected_triples p targets) features;
    targets;
    target_view_pos;
    full_ins;
    full_del;
    full_upd;
    full_base_del;
    full_base_upd;
    dropped;
  }

(* ------------------------------------------------------------------ *)

type certificate = Optimal | Bounded of { lower_bound : float; gap : float }

(* Growable float buffer: the popped-[ĉ] audit trail, one per shard. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1
end

(* One sub-frontier of the sharded search: a private priority queue plus
   shard-local counters and a local view of the incumbent bound.  A worker
   touches only its own shard between barriers (the sharding contract of
   {!Vis_util.Parallel}); the coordinator merges the [d_*] round deltas and
   the [s_best] incumbents in shard order after every round, which keeps
   every global counter and the winning configuration independent of the
   pool width. *)
type shard = {
  sq : (int * Config.t * float) Pqueue.t;  (* (pos, config, g) at priority ĉ *)
  s_popped : Fbuf.t;
  mutable s_bound : float;  (* round-start global bound, improved locally *)
  mutable s_best : (float * Config.t) option;  (* best completion found here *)
  mutable s_done : bool;
  mutable s_dropped_lb : float;  (* smallest beam-dropped ĉ; ∞ if none *)
  mutable s_complete : float;  (* cost of own popped completion; ∞ if none *)
  (* Round deltas, merged and zeroed by the coordinator at the barrier. *)
  mutable d_exp : int;
  mutable d_gen : int;
  mutable d_eval : int;
  mutable d_inc : int;
  mutable d_inel : int;
  mutable d_stale : int;
  mutable d_beam : int;
}

(* Features a problem must retain (post-dominance) before the search shards
   its frontier by default; below this the coarse-grained machinery costs
   more than it can overlap. *)
let shard_threshold = 32

(* Expansions each shard performs per exchange round: large enough that a
   round amortizes the barrier, small enough that improved incumbents
   propagate before shards over-expand against a stale bound. *)
let shard_quantum = 48

(* BFS depth of the sequential prefix that seeds the shards — up to
   [2^shard_prefix_depth] sub-frontiers, keyed by the first feature
   decisions of the configuration mask. *)
let shard_prefix_depth = 6

let search_internal ?warm_start ~max_expanded ~beam ~shard ~on_budget ~pool p =
  let schema = p.Problem.schema in
  let sstats = Search_stats.create ~algorithm:"astar" () in
  let work_before = Parallel.work_counts pool in
  let prep = Search_stats.time sstats "prepare" (fun () -> prepare ~pool p) in
  (match List.length prep.dropped with
  | 0 -> ()
  | n -> Search_stats.prune ~count:n sstats "dominance");
  let n = Array.length prep.features in
  let n_targets = Array.length prep.targets in
  let n_rels = Schema.n_relations schema in
  let exhaustive_states = Exhaustive.count_states p in
  let stats () =
    {
      expanded = Search_stats.expanded sstats;
      generated = Search_stats.generated sstats;
      exhaustive_states;
    }
  in
  (* Popped priorities, kept so admissibility ([ĉ ≤ C*] for every state
     popped before the goal) can be verified once the optimum is known. *)
  let popped = Fbuf.create () in
  let check_admissibility optimum =
    for i = 0 to popped.Fbuf.n - 1 do
      Search_stats.admissibility_check sstats
        ~violated:(popped.Fbuf.a.(i) > optimum +. 1e-6)
    done
  in
  let eligible config pos k =
    match prep.features.(k) with
    | Problem.F_view _ | Problem.F_compress _ -> true
    | Problem.F_index ix -> (
        match ix.Element.ix_elem with
        | Element.Base _ -> true
        | Element.View w ->
            Bitset.equal w (Schema.all_relations schema)
            || Config.has_view config w
            ||
            (match Hashtbl.find_opt prep.view_pos (Bitset.to_int w) with
            | Some vp -> vp >= pos
            | None -> false))
  in
  (* A target still matters at (config, pos) when it is the primary view,
     already materialized, or not yet decided. *)
  let target_alive config pos ti =
    let vp = prep.target_view_pos.(ti) in
    vp < 0 || vp >= pos
    ||
    match prep.targets.(ti) with
    | Element.View w -> Config.has_view config w
    | Element.Base _ -> true
  in
  let h_hat eval config pos =
    (* Gap tables: how far each expression's current cost sits above its
       full-configuration floor — an upper bound on what future features can
       still save on it. *)
    let ins_gap = Array.make_matrix n_targets n_rels 0. in
    for ti = 0 to n_targets - 1 do
      let elem = prep.targets.(ti) in
      if target_alive config pos ti then
        Bitset.iter
          (fun r ->
            let gap = ins_eval_of eval elem r -. prep.full_ins.(ti).(r) in
            if gap > 0. then ins_gap.(ti).(r) <- gap)
          (Element.rels elem)
    done;
    (* Bound 1 (per-feature): each remaining feature nets at least
       lb_cost − its capped benefit. *)
    let h1 = ref 0. in
    for k = pos to n - 1 do
      if eligible config pos k then begin
        let benefit =
          List.fold_left
            (fun acc (ti, r) -> acc +. ins_gap.(ti).(r))
            prep.key_benefit.(k) prep.affected.(k)
        in
        let term = prep.lb_cost.(k) -. benefit in
        if term < 0. then h1 := !h1 +. term
      end
    done;
    (* Bound 2 (per-expression): the cost already counted in g can drop at
       most to its floor, and future features' own maintenance is >= 0. *)
    let h2 = ref 0. in
    for ti = 0 to n_targets - 1 do
      let elem = prep.targets.(ti) in
      let maintained =
        match elem with
        | Element.View w ->
            Bitset.equal w (Schema.all_relations schema)
            || Config.has_view config w
        | Element.Base _ -> true
      in
      if maintained then
        Bitset.iter
          (fun r ->
            let d, u = delupd_of eval elem r in
            let dgap = Float.max 0. (d -. prep.full_del.(ti).(r)) in
            let ugap = Float.max 0. (u -. prep.full_upd.(ti).(r)) in
            h2 := !h2 -. ins_gap.(ti).(r) -. dgap -. ugap)
          (Element.rels elem)
    done;
    for r = 0 to n_rels - 1 do
      let d, u = delupd_of eval (Element.Base r) r in
      h2 := !h2 -. Float.max 0. (d -. prep.full_base_del.(r));
      h2 := !h2 -. Float.max 0. (u -. prep.full_base_upd.(r))
    done;
    Float.max !h1 !h2
  in
  let queue = Pqueue.create () in
  (* A known complete solution bounds the search from above: states that
     cannot beat it are never enqueued, which keeps the frontier small.
     The greedy heuristic provides a good initial bound cheaply. *)
  let seed =
    Search_stats.time sstats "greedy-seed" (fun () -> Greedy.search ~pool p)
  in
  let upper_bound = ref seed.Greedy.best_cost in
  let incumbent = ref seed.Greedy.best in
  (* A caller-supplied warm start (e.g. the advisor service re-optimizing
     from the incumbent design after a rate drift) tightens the initial
     bound further when it beats the greedy seed.  Invalid configurations —
     features that are not candidates of [p] — are ignored rather than
     rejected, so callers may pass a mask optimized for a differently-scaled
     schema without re-validating it first.  The bound only ever tightens,
     so optimality and the Bounded certificate's lower bound are unaffected. *)
  (match warm_start with
  | Some config when Problem.valid_config p config ->
      let c = Problem.total p config in
      if c < !upper_bound then begin
        upper_bound := c;
        incumbent := config
      end
  | Some _ | None -> ());
  (* Successor handling is split in two: [eval_state] is a pure function of
     the state (the expensive cost-model work, safe to fan out over the
     pool), while [commit] performs every bound check, incumbent update,
     queue mutation and counter bump sequentially on the coordinator, in the
     same order the all-sequential code would.  [g] and [ĉ] do not read the
     incumbent bound, so evaluating successors concurrently and committing
     them in order is bit-identical to sequential search.  A successor that
     rejects its feature keeps the parent's configuration, so it carries the
     parent's [g] instead of re-costing it. *)
  let eval_state (pos, config, known_g) =
    let eval = Problem.evaluator p config in
    let g = match known_g with Some g -> g | None -> Cost.total eval in
    (pos, config, g, g +. h_hat eval config pos)
  in
  let commit (pos, config, g, c_hat) =
    Search_stats.evaluate sstats;
    if c_hat <= !upper_bound +. 1e-9 then begin
      if pos = n && g < !upper_bound then begin
        upper_bound := g;
        incumbent := config
      end;
      Search_stats.generate sstats;
      (* Among equal bounds, prefer the deeper state: it completes sooner. *)
      Pqueue.push ~tie:(n - pos) queue c_hat (pos, config, g);
      Search_stats.observe_frontier sstats (Pqueue.length queue)
    end
    else Search_stats.prune sstats "incumbent-bound"
  in
  (* Successor generation shared by the sequential, prefix and shard phases;
     [inel] is charged when an index position is skipped as ineligible (the
     phases count it in different scoreboards). *)
  let successors ~inel (pos, config, g) =
    let keep = (pos + 1, config, Some g) in
    let both config' = [| keep; (pos + 1, config', None) |] in
    match prep.features.(pos) with
    | Problem.F_view w -> both (Config.add_view config w)
    | Problem.F_compress e -> both (Config.add_compress config e)
    | Problem.F_index ix ->
        if eligible config pos pos then both (Config.add_index config ix)
        else begin
          inel ();
          [| keep |]
        end
  in
  (* Beam trim with hysteresis: only once the queue outgrows twice the beam,
     keep the [b] best entries and discard the rest.  [on_drop] receives the
     smallest dropped ĉ — a lower bound on everything discarded, which is
     what keeps the optimality-gap certificate sound. *)
  let trim_queue q ~on_drop =
    match beam with
    | Some b when Pqueue.length q > 2 * b ->
        let kept = Array.init b (fun _ -> Option.get (Pqueue.pop_min q)) in
        let count = Pqueue.length q in
        let lb =
          match Pqueue.peek_min q with Some (c, _) -> c | None -> infinity
        in
        Pqueue.clear q;
        Array.iter
          (fun (c, ((pos, _, _) as v)) -> Pqueue.push ~tie:(n - pos) q c v)
          kept;
        on_drop ~lb ~count
    | Some _ | None -> ()
  in
  let dropped_any = ref false in
  let dropped_lb = ref infinity in
  let certificate_of ~ub ~lb =
    if lb >= ub -. 1e-9 then Optimal
    else
      Bounded
        { lower_bound = lb; gap = (ub -. lb) /. Float.max 1e-9 (Float.abs ub) }
  in
  let mk_result () =
    {
      best = !incumbent;
      best_cost = !upper_bound;
      stats = stats ();
      search_stats = sstats;
    }
  in
  (* The popped-ĉ audit needs a proven optimum to compare against: run it
     only for [Optimal] finishes with no beam drops (a dropped state may
     have hidden a better completion, voiding [ĉ ≤ C*]). *)
  let finish_seq best best_cost cert =
    (match cert with
    | Optimal when not !dropped_any -> check_admissibility best_cost
    | Optimal | Bounded _ -> ());
    ({ best; best_cost; stats = stats (); search_stats = sstats }, cert)
  in
  let seq_drop ~lb ~count =
    dropped_any := true;
    if lb < !dropped_lb then dropped_lb := lb;
    Search_stats.prune ~count sstats "beam-width"
  in
  let rec seq_loop () =
    match Pqueue.pop_min queue with
    | None ->
        (* The frontier emptied without a complete state being popped: every
           remaining completion was pruned by the incumbent bound (or, under
           a beam, dropped — the certificate accounts for those). *)
        finish_seq !incumbent !upper_bound
          (certificate_of ~ub:!upper_bound ~lb:!dropped_lb)
    | Some (c_hat, (pos, config, g)) ->
        Fbuf.push popped c_hat;
        if pos = n then
          finish_seq config g
            (certificate_of ~ub:g ~lb:!dropped_lb)
        else begin
          Search_stats.expand sstats;
          if Search_stats.expanded sstats > max_expanded then begin
            Search_stats.prune ~count:(Pqueue.length queue) sstats
              "expansion-budget";
            let r = mk_result () in
            on_budget r;
            let lb =
              Float.min c_hat
                (Float.min !dropped_lb
                   (match Pqueue.peek_min queue with
                   | Some (c, _) -> c
                   | None -> infinity))
            in
            (r, certificate_of ~ub:!upper_bound ~lb)
          end
          else begin
            let succs =
              successors
                ~inel:(fun () -> Search_stats.prune sstats "ineligible-index")
                (pos, config, g)
            in
            Array.iter (fun sc -> commit (eval_state sc)) succs;
            trim_queue queue ~on_drop:seq_drop;
            seq_loop ()
          end
        end
  in
  (* -------------------- coarse-grained sharded search -----------------

     Phase 1 (sequential prefix): BFS over the first [p] feature decisions
     partitions the reachable frontier by configuration-mask prefix.  Each
     level's successor evaluations fan out over the pool as one pure batch;
     commits happen on the coordinator in batch order.

     Phase 2 (rounds): every surviving prefix state seeds one shard — a
     private A* sub-frontier.  Each exchange round submits one pool batch
     with one chunk per live shard; a chunk expands up to [shard_quantum]
     states against the round-start bound (improved locally when the shard
     itself completes), then the coordinator merges counters and incumbents
     in shard order and redistributes the tightened bound.  Because chunk
     boundaries, per-shard work and merge order are all independent of the
     pool width, results and every counter are bit-identical at any [jobs]
     (and match [jobs = 1] exactly). *)
  let shard_loop () =
    let budget_hit = ref false in
    let depth = min shard_prefix_depth (n - 1) in
    let root = eval_state (0, Config.empty, None) in
    Search_stats.evaluate sstats;
    let level =
      ref
        (let _, _, _, c0 = root in
         if c0 <= !upper_bound +. 1e-9 then begin
           Search_stats.generate sstats;
           [ root ]
         end
         else begin
           Search_stats.prune sstats "incumbent-bound";
           []
         end)
    in
    let d = ref 0 in
    while (not !budget_hit) && !d < depth do
      if Search_stats.expanded sstats > max_expanded then budget_hit := true
      else begin
        let batch = ref [] in
        List.iter
          (fun (pos, config, g, _) ->
            Search_stats.expand sstats;
            let succs =
              successors
                ~inel:(fun () -> Search_stats.prune sstats "ineligible-index")
                (pos, config, g)
            in
            Array.iter (fun sc -> batch := sc :: !batch) succs)
          !level;
        let batch = Array.of_list (List.rev !batch) in
        let evaled =
          if Parallel.jobs pool > 1 && Array.length batch > 1 then
            Parallel.map_array ~chunk:1 pool eval_state batch
          else Array.map eval_state batch
        in
        let next = ref [] in
        Array.iter
          (fun ((_, _, _, c) as t) ->
            Search_stats.evaluate sstats;
            if c <= !upper_bound +. 1e-9 then begin
              Search_stats.generate sstats;
              next := t :: !next
            end
            else Search_stats.prune sstats "incumbent-bound")
          evaled;
        level := List.rev !next;
        Search_stats.observe_frontier sstats (List.length !level);
        incr d
      end
    done;
    if !budget_hit then begin
      Search_stats.prune ~count:(List.length !level) sstats "expansion-budget";
      let r = mk_result () in
      on_budget r;
      let lb =
        List.fold_left (fun a (_, _, _, c) -> Float.min a c) !dropped_lb !level
      in
      (r, certificate_of ~ub:!upper_bound ~lb)
    end
    else begin
      let shards =
        Array.of_list
          (List.map
             (fun (pos, config, g, c) ->
               let s =
                 {
                   sq = Pqueue.create ();
                   s_popped = Fbuf.create ();
                   s_bound = !upper_bound;
                   s_best = None;
                   s_done = false;
                   s_dropped_lb = infinity;
                   s_complete = infinity;
                   d_exp = 0;
                   d_gen = 0;
                   d_eval = 0;
                   d_inc = 0;
                   d_inel = 0;
                   d_stale = 0;
                   d_beam = 0;
                 }
               in
               Pqueue.push ~tie:(n - pos) s.sq c (pos, config, g);
               s)
             !level)
      in
      let run_shard s =
        let left = ref shard_quantum in
        let continue_ = ref true in
        while !continue_ && !left > 0 do
          match Pqueue.pop_min s.sq with
          | None ->
              s.s_done <- true;
              continue_ := false
          | Some (c_hat, (pos, config, g)) ->
              if c_hat > s.s_bound +. 1e-9 then begin
                (* Everything left in this queue is ≥ [c_hat]; the bound the
                   round started with already beats it all. *)
                s.d_stale <- s.d_stale + 1 + Pqueue.length s.sq;
                Pqueue.clear s.sq;
                s.s_done <- true;
                continue_ := false
              end
              else begin
                Fbuf.push s.s_popped c_hat;
                if pos = n then begin
                  (* Shard-local optimum popped: everything still queued has
                     ĉ ≥ g and completions ≥ ĉ, so this shard is finished. *)
                  s.s_complete <- Float.min s.s_complete g;
                  if g < s.s_bound then begin
                    s.s_bound <- g;
                    s.s_best <- Some (g, config)
                  end;
                  s.s_done <- true;
                  continue_ := false
                end
                else begin
                  s.d_exp <- s.d_exp + 1;
                  decr left;
                  let succs =
                    successors
                      ~inel:(fun () -> s.d_inel <- s.d_inel + 1)
                      (pos, config, g)
                  in
                  Array.iter
                    (fun sc ->
                      let pos', config', g', c' = eval_state sc in
                      s.d_eval <- s.d_eval + 1;
                      if c' <= s.s_bound +. 1e-9 then begin
                        if pos' = n && g' < s.s_bound then begin
                          s.s_bound <- g';
                          s.s_best <- Some (g', config')
                        end;
                        s.d_gen <- s.d_gen + 1;
                        Pqueue.push ~tie:(n - pos') s.sq c' (pos', config', g')
                      end
                      else s.d_inc <- s.d_inc + 1)
                    succs;
                  trim_queue s.sq ~on_drop:(fun ~lb ~count ->
                      s.s_dropped_lb <- Float.min s.s_dropped_lb lb;
                      s.d_beam <- s.d_beam + count)
                end
              end
        done
      in
      let live s = (not s.s_done) && not (Pqueue.is_empty s.sq) in
      let frontier_size () =
        Array.fold_left
          (fun a s -> a + if live s then Pqueue.length s.sq else 0)
          0 shards
      in
      let finished = ref false in
      while (not !finished) && not !budget_hit do
        let act = Array.of_list (List.filter live (Array.to_list shards)) in
        if Array.length act = 0 then finished := true
        else if Search_stats.expanded sstats > max_expanded then
          budget_hit := true
        else begin
          let bound = !upper_bound in
          Array.iter (fun s -> s.s_bound <- bound) act;
          Parallel.run pool ~chunks:(Array.length act) (fun i ->
              run_shard act.(i));
          Search_stats.record_round sstats (Array.map (fun s -> s.d_eval) act);
          let sum f = Array.fold_left (fun a s -> a + f s) 0 act in
          Search_stats.add_expanded sstats (sum (fun s -> s.d_exp));
          Search_stats.add_generated sstats (sum (fun s -> s.d_gen));
          Search_stats.add_evaluated sstats (sum (fun s -> s.d_eval));
          let charge rule f =
            match sum f with
            | 0 -> ()
            | c -> Search_stats.prune ~count:c sstats rule
          in
          charge "incumbent-bound" (fun s -> s.d_inc);
          charge "ineligible-index" (fun s -> s.d_inel);
          charge "stale-bound" (fun s -> s.d_stale);
          charge "beam-width" (fun s -> s.d_beam);
          Array.iter
            (fun s ->
              s.d_exp <- 0;
              s.d_gen <- 0;
              s.d_eval <- 0;
              s.d_inc <- 0;
              s.d_inel <- 0;
              s.d_stale <- 0;
              s.d_beam <- 0)
            act;
          (* Incumbent exchange, in shard order — deterministic at any pool
             width ([s_best] keeps strictly improving, so re-merging is
             idempotent). *)
          Array.iter
            (fun s ->
              match s.s_best with
              | Some (g, config) when g < !upper_bound ->
                  upper_bound := g;
                  incumbent := config
              | Some _ | None -> ())
            act;
          Search_stats.observe_frontier sstats (frontier_size ())
        end
      done;
      let min_dropped =
        Array.fold_left
          (fun a s -> Float.min a s.s_dropped_lb)
          !dropped_lb shards
      in
      if !budget_hit then begin
        Search_stats.prune ~count:(frontier_size ()) sstats "expansion-budget";
        let r = mk_result () in
        on_budget r;
        let lb =
          Array.fold_left
            (fun a s ->
              if live s then
                match Pqueue.peek_min s.sq with
                | Some (c, _) -> Float.min a c
                | None -> a
              else a)
            min_dropped shards
        in
        (r, certificate_of ~ub:!upper_bound ~lb)
      end
      else begin
        (* Per-shard audit: while a shard's eventual completion is still
           reachable, one of its ancestors sits in that shard's queue with
           ĉ ≤ its completion cost, so every recorded pop is bounded by the
           shard's own [s_complete] — even across stale-bound rounds.
           Shards that never popped a completion (emptied by pruning)
           contribute nothing; beam drops void the ancestor argument, so
           the audit only runs without a beam. *)
        (match beam with
        | None ->
            Array.iter
              (fun s ->
                if s.s_complete < infinity then
                  for i = 0 to s.s_popped.Fbuf.n - 1 do
                    Search_stats.admissibility_check sstats
                      ~violated:(s.s_popped.Fbuf.a.(i) > s.s_complete +. 1e-6)
                  done)
              shards
        | Some _ -> ());
        (mk_result (), certificate_of ~ub:!upper_bound ~lb:min_dropped)
      end
    end
  in
  let use_shard =
    (match shard with Some b -> b | None -> n >= shard_threshold) && n >= 2
  in
  (* Record the pool shape even when the search exits through the expansion
     budget (Budget_exceeded unwinds through here). *)
  Fun.protect
    ~finally:(fun () ->
      if Parallel.jobs pool > 1 then
        Search_stats.set_parallel sstats ~jobs:(Parallel.jobs pool)
          ~work:
            (Parallel.diff_counts ~before:work_before
               ~after:(Parallel.work_counts pool)))
    (fun () ->
      Search_stats.time sstats "search" (fun () ->
          if use_shard then shard_loop ()
          else begin
            commit (eval_state (0, Config.empty, None));
            seq_loop ()
          end))

let search ?(max_expanded = 5_000_000) ?jobs ?shard ?warm_start p =
  Parallel.using ?jobs (fun pool ->
      fst
        (search_internal ?warm_start ~max_expanded ~beam:None ~shard
           ~on_budget:(fun r -> raise (Budget_exceeded r.stats))
           ~pool p))

let search_budgeted ?(max_expanded = 5_000_000) ?beam ?jobs ?shard ?warm_start
    p =
  (match beam with
  | Some b when b < 1 -> invalid_arg "Astar.search_budgeted: beam must be >= 1"
  | Some _ | None -> ());
  Parallel.using ?jobs (fun pool ->
      search_internal ?warm_start ~max_expanded ~beam ~shard
        ~on_budget:(fun _ -> ()) ~pool p)
