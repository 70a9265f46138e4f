module Bitset = Vis_util.Bitset
module Num = Vis_util.Num
module Schema = Vis_catalog.Schema
module Config = Vis_costmodel.Config
module Cost = Vis_costmodel.Cost
module Yao = Vis_costmodel.Yao
module Problem = Vis_core.Problem
module Astar = Vis_core.Astar
module Exhaustive = Vis_core.Exhaustive
module Greedy = Vis_core.Greedy
module Local_search = Vis_core.Local_search
module Space = Vis_core.Space
module Sensitivity = Vis_core.Sensitivity
module Search_stats = Vis_core.Search_stats
module Datagen = Vis_workload.Datagen
module Querygen = Vis_workload.Querygen
module Miner = Vis_workload.Miner
module Validate = Vis_maintenance.Validate
module Refresh = Vis_maintenance.Refresh
module Warehouse = Vis_maintenance.Warehouse
module Faults = Vis_storage.Faults
module Buffer_pool = Vis_storage.Buffer_pool
module Heap_file = Vis_storage.Heap_file
module Btree = Vis_storage.Btree
module Wal = Vis_storage.Wal
module Scrub = Vis_storage.Scrub
module Table = Vis_relalg.Table
module Service = Vis_service.Service
module Stream = Vis_workload.Stream

type outcome = Pass | Skip of string | Fail of string

type ctx = {
  cx_rng : Random.State.t;
  cx_max_states : float;
  cx_max_expanded : int;
  cx_io_band : float;
  cx_exec_tuples : float;
  cx_jobs : int;
  cx_fault_seed : int;
  cx_fault_rounds : int;
}

let make_ctx ?(max_states = 20_000.) ?(max_expanded = 12_000) ?(io_band = 25.)
    ?(exec_tuples = 20_000.) ?(jobs = 3) ?(fault_seed = 0) ?(fault_rounds = 1)
    ~rng () =
  {
    cx_rng = rng;
    cx_max_states = max_states;
    cx_max_expanded = max_expanded;
    cx_io_band = io_band;
    cx_exec_tuples = exec_tuples;
    cx_jobs = jobs;
    cx_fault_seed = fault_seed;
    cx_fault_rounds = fault_rounds;
  }

type t = {
  o_name : string;
  o_doc : string;
  o_check : ctx -> Schema.t -> outcome;
}

let fail fmt = Printf.ksprintf (fun s -> Fail s) fmt

let skip fmt = Printf.ksprintf (fun s -> Skip s) fmt

let approx = Num.approx_equal ~eps:1e-9

(* The searches compare costs against each other with a small relative
   slack: totals are sums of hundreds of float terms whose association
   order differs between algorithms. *)
let close = Num.approx_equal ~eps:1e-6

(* A* worst case is exponential, and the generator occasionally produces an
   instance where the heuristic barely prunes.  Every oracle that runs A*
   caps the expansion count and skips (or degrades) past the cap, keeping
   trial time bounded. *)
let astar_capped ?jobs ?shard cx p =
  match Astar.search ~max_expanded:cx.cx_max_expanded ?jobs ?shard p with
  | r -> Some r
  | exception Astar.Budget_exceeded _ -> None

(* ------------------------------------------------------------------ *)
(* A* against exhaustive enumeration (Section 4's optimality claim). *)

let check_astar_optimal cx schema =
  let p = Problem.make schema in
  let states = Exhaustive.count_states p in
  if states > cx.cx_max_states then
    skip "state space too large (%.3g states)" states
  else
    let ex = Exhaustive.search ~max_states:(int_of_float cx.cx_max_states) p in
    let a = Astar.search p in
    if not (close ex.Exhaustive.best_cost a.Astar.best_cost) then
      fail "A* cost %.6f differs from exhaustive optimum %.6f"
        a.Astar.best_cost ex.Exhaustive.best_cost
    else if not (Problem.valid_config p a.Astar.best) then
      Fail "A* returned a configuration outside the candidate space"
    else if not (close (Problem.total p a.Astar.best) a.Astar.best_cost) then
      fail "A* best_cost %.6f does not re-evaluate (%.6f)" a.Astar.best_cost
        (Problem.total p a.Astar.best)
    else if
      Search_stats.admissibility_violations a.Astar.search_stats > 0
    then
      fail "heuristic admissibility violated on %d popped states"
        (Search_stats.admissibility_violations a.Astar.search_stats)
    else Pass

(* ------------------------------------------------------------------ *)
(* jobs=1 vs jobs=N bit-identical results (PR 2's determinism guarantee). *)

let check_parallel_determinism cx schema =
  match astar_capped ~jobs:1 cx (Problem.make schema) with
  | None -> skip "A* expansion budget exceeded (%d)" cx.cx_max_expanded
  | Some a1 ->
  match astar_capped ~jobs:cx.cx_jobs cx (Problem.make schema) with
  | None ->
      (* Identical expansion sequences are the guarantee: if jobs=1 fits
         under the cap, jobs=N must too. *)
      fail "jobs=%d exceeded the expansion budget jobs=1 finished under"
        cx.cx_jobs
  | Some an ->
  if a1.Astar.best_cost <> an.Astar.best_cost then
    fail "A* cost differs: jobs=1 %.17g vs jobs=%d %.17g" a1.Astar.best_cost
      cx.cx_jobs an.Astar.best_cost
  else if not (Config.equal a1.Astar.best an.Astar.best) then
    fail "A* configuration differs between jobs=1 and jobs=%d" cx.cx_jobs
  else if
    a1.Astar.stats.Astar.expanded <> an.Astar.stats.Astar.expanded
    || a1.Astar.stats.Astar.generated <> an.Astar.stats.Astar.generated
  then
    fail "A* counters differ: jobs=1 %d/%d vs jobs=%d %d/%d"
      a1.Astar.stats.Astar.expanded a1.Astar.stats.Astar.generated cx.cx_jobs
      an.Astar.stats.Astar.expanded an.Astar.stats.Astar.generated
  else
  (* The coarse-grained sharded mode (generated schemas are small, so the
     auto-gate would never pick it): the same jobs=1 vs jobs=N identity must
     hold with sharding forced on, and both modes must prove the same
     optimum.  Counters legitimately differ *between* modes (traversal
     order), never between pool widths. *)
  match astar_capped ~jobs:1 ~shard:true cx (Problem.make schema) with
  | None ->
      (* The sharded budget is checked at round granularity, so it can trip
         where the sequential loop finished — not a determinism failure. *)
      Pass
  | Some s1 ->
  match astar_capped ~jobs:cx.cx_jobs ~shard:true cx (Problem.make schema) with
  | None ->
      fail "sharded jobs=%d exceeded the expansion budget jobs=1 finished under"
        cx.cx_jobs
  | Some sn ->
  if s1.Astar.best_cost <> sn.Astar.best_cost then
    fail "sharded A* cost differs: jobs=1 %.17g vs jobs=%d %.17g"
      s1.Astar.best_cost cx.cx_jobs sn.Astar.best_cost
  else if not (Config.equal s1.Astar.best sn.Astar.best) then
    fail "sharded A* configuration differs between jobs=1 and jobs=%d"
      cx.cx_jobs
  else if
    s1.Astar.stats.Astar.expanded <> sn.Astar.stats.Astar.expanded
    || s1.Astar.stats.Astar.generated <> sn.Astar.stats.Astar.generated
  then
    fail "sharded A* counters differ: jobs=1 %d/%d vs jobs=%d %d/%d"
      s1.Astar.stats.Astar.expanded s1.Astar.stats.Astar.generated cx.cx_jobs
      sn.Astar.stats.Astar.expanded sn.Astar.stats.Astar.generated
  else if not (close s1.Astar.best_cost a1.Astar.best_cost) then
    fail "sharded optimum %.9f differs from single-queue optimum %.9f"
      s1.Astar.best_cost a1.Astar.best_cost
  else begin
    let p = Problem.make schema in
    if Exhaustive.count_states p > cx.cx_max_states then Pass
    else
      let e1 = Exhaustive.search ~jobs:1 (Problem.make schema) in
      let en = Exhaustive.search ~jobs:cx.cx_jobs (Problem.make schema) in
      if e1.Exhaustive.best_cost <> en.Exhaustive.best_cost then
        fail "exhaustive cost differs: jobs=1 %.17g vs jobs=%d %.17g"
          e1.Exhaustive.best_cost cx.cx_jobs en.Exhaustive.best_cost
      else if not (Config.equal e1.Exhaustive.best en.Exhaustive.best) then
        fail "exhaustive configuration differs between jobs=1 and jobs=%d"
          cx.cx_jobs
      else if e1.Exhaustive.states <> en.Exhaustive.states then
        fail "exhaustive state counts differ: %d vs %d" e1.Exhaustive.states
          en.Exhaustive.states
      else Pass
  end

(* ------------------------------------------------------------------ *)
(* Cost-cache on/off equivalence (PR 1's memoization transparency). *)

let check_cache_equivalence cx schema =
  match astar_capped cx (Problem.make schema) with
  | None -> skip "A* expansion budget exceeded (%d)" cx.cx_max_expanded
  | Some shared ->
  match astar_capped cx (Problem.make ~share_cache:false schema) with
  | None ->
      Fail "cache off exceeded the expansion budget cache on finished under"
  | Some private_ ->
  if not (approx shared.Astar.best_cost private_.Astar.best_cost) then
    fail "cache on/off changes the optimum: %.9f vs %.9f"
      shared.Astar.best_cost private_.Astar.best_cost
  else if not (Config.equal shared.Astar.best private_.Astar.best) then
    Fail "cache on/off changes the chosen configuration"
  else Pass

(* ------------------------------------------------------------------ *)
(* Heuristic cost ordering: optimum <= local search <= greedy <= empty. *)

let check_heuristics_bounded cx schema =
  let p = Problem.make schema in
  let a = astar_capped cx p in
  let g = Greedy.search p in
  let l = Local_search.search p in
  let empty = Problem.total p Config.empty in
  let eps = 1e-6 *. Float.max 1. empty in
  let beats_optimum =
    match a with
    | None -> None
    | Some a ->
        if g.Greedy.best_cost < a.Astar.best_cost -. eps then
          Some
            (Printf.sprintf "greedy %.6f beats the proven optimum %.6f"
               g.Greedy.best_cost a.Astar.best_cost)
        else if l.Local_search.best_cost < a.Astar.best_cost -. eps then
          Some
            (Printf.sprintf "local search %.6f beats the proven optimum %.6f"
               l.Local_search.best_cost a.Astar.best_cost)
        else None
  in
  match beats_optimum with
  | Some msg -> Fail msg
  | None ->
  if l.Local_search.best_cost > g.Greedy.best_cost +. eps then
    fail "local search %.6f worse than its greedy seed %.6f"
      l.Local_search.best_cost g.Greedy.best_cost
  else if g.Greedy.best_cost > empty +. eps then
    fail "greedy %.6f worse than the empty design %.6f" g.Greedy.best_cost
      empty
  else if not (Problem.valid_config p g.Greedy.best) then
    Fail "greedy returned an invalid configuration"
  else if not (Problem.valid_config p l.Local_search.best) then
    Fail "local search returned an invalid configuration"
  else
    (* Greedy steps must strictly improve. *)
    let rec decreasing prev = function
      | [] -> true
      | s :: rest ->
          s.Greedy.s_cost_after < prev && decreasing s.Greedy.s_cost_after rest
    in
    if not (decreasing empty g.Greedy.steps) then
      Fail "greedy accepted a non-improving step"
    else if Option.is_none a then
      skip "orderings hold; optimum unavailable (A* budget %d)"
        cx.cx_max_expanded
    else Pass

(* ------------------------------------------------------------------ *)
(* Space staircase (Section 6.1): monotone steps, consistent cost_at. *)

let check_space_staircase cx schema =
  let p = Problem.make schema in
  let states = Exhaustive.count_states p in
  if states > cx.cx_max_states then
    skip "state space too large (%.3g states)" states
  else
    match Space.sweep ~max_states:(int_of_float cx.cx_max_states) p with
    | exception Exhaustive.Too_large n -> skip "sweep too large (%.3g)" n
    | sw -> (
        let empty = Problem.total p Config.empty in
        match sw.Space.sw_steps with
        | [] -> Fail "sweep produced no steps"
        | first :: _ ->
            let last =
              List.nth sw.Space.sw_steps (List.length sw.Space.sw_steps - 1)
            in
            if first.Space.st_space <> 0. then
              fail "first step occupies %.1f pages, not 0" first.Space.st_space
            else if not (close first.Space.st_cost empty) then
              fail "first step cost %.6f is not the empty design's %.6f"
                first.Space.st_cost empty
            else if
              not (close last.Space.st_cost sw.Space.sw_unconstrained_cost)
            then
              fail "last step %.6f differs from the unconstrained optimum %.6f"
                last.Space.st_cost sw.Space.sw_unconstrained_cost
            else begin
              let rec monotone = function
                | a :: (b :: _ as rest) ->
                    if a.Space.st_space >= b.Space.st_space then
                      fail "staircase space not increasing at %.1f"
                        b.Space.st_space
                    else if a.Space.st_cost <= b.Space.st_cost then
                      fail "staircase cost not decreasing at space %.1f"
                        b.Space.st_space
                    else monotone rest
                | _ -> Pass
              in
              match monotone sw.Space.sw_steps with
              | (Fail _ | Skip _) as r -> r
              | Pass -> (
                  (* cost_at is the staircase: exact at boundaries, the
                     previous step between them. *)
                  let boundary_bad =
                    List.find_opt
                      (fun st ->
                        not
                          (close
                             (Space.cost_at sw ~budget:st.Space.st_space)
                             st.Space.st_cost))
                      sw.Space.sw_steps
                  in
                  let rec between_bad = function
                    | a :: (b :: _ as rest) ->
                        let mid =
                          (a.Space.st_space +. b.Space.st_space) /. 2.
                        in
                        (* The midpoint can coincide with b's budget when the
                           steps are one page apart; only probe real gaps. *)
                        if
                          mid > a.Space.st_space
                          && mid < b.Space.st_space
                          && not
                               (close (Space.cost_at sw ~budget:mid)
                                  a.Space.st_cost)
                        then Some mid
                        else between_bad rest
                    | _ -> None
                  in
                  match (boundary_bad, between_bad sw.Space.sw_steps) with
                  | Some st, _ ->
                      fail "cost_at(%.1f) is not the step cost %.6f"
                        st.Space.st_space st.Space.st_cost
                  | None, Some mid ->
                      fail "cost_at between steps wrong at budget %.1f" mid
                  | None, None ->
                      (* feature_order: unique names, budgets non-decreasing
                         and all on the staircase. *)
                      let order = Space.feature_order sw in
                      let names = List.map fst order in
                      if
                        List.length names
                        <> List.length (List.sort_uniq compare names)
                      then Fail "feature_order lists a feature twice"
                      else
                        let rec nondecreasing = function
                          | (_, b1) :: ((_, b2) :: _ as rest) ->
                              b1 <= b2 && nondecreasing rest
                          | _ -> true
                        in
                        if not (nondecreasing order) then
                          Fail "feature_order budgets decrease"
                        else if
                          List.exists
                            (fun (_, b) ->
                              not
                                (List.exists
                                   (fun st -> st.Space.st_space = b)
                                   sw.Space.sw_steps))
                            order
                        then Fail "feature_order budget off the staircase"
                        else Pass)
            end)

(* ------------------------------------------------------------------ *)
(* Sensitivity (Section 6.2): ratios >= 1, exactly 1 at the estimate,
   and the chosen design valid under every swept schema. *)

let check_sensitivity cx schema =
  let factors = [ 0.5; 1.0; 2.0 ] in
  let make f = Schema.scale_deltas schema f in
  (* [Sensitivity.sweep] runs unbounded A* per value; probe each value with
     the capped search first — the sweep repeats exactly these searches, so
     if every probe terminates under the cap the sweep terminates too. *)
  if
    List.exists
      (fun f -> Option.is_none (astar_capped cx (Problem.make (make f))))
      factors
  then skip "A* expansion budget exceeded (%d)" cx.cx_max_expanded
  else
  let series = Sensitivity.sweep ~make_schema:make ~values:factors in
  let problems = List.map (fun f -> (f, Problem.make (make f))) factors in
  let bad =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun (actual, ratio) ->
            if ratio < 1. -. 1e-6 then
              Some
                (Printf.sprintf
                   "design for estimate %g beats the optimum at %g (ratio %.9f)"
                   s.Sensitivity.se_estimate actual ratio)
            else if
              approx actual s.Sensitivity.se_estimate && ratio > 1. +. 1e-6
            then
              Some
                (Printf.sprintf
                   "design for estimate %g is not optimal at its own estimate \
                    (ratio %.9f)"
                   s.Sensitivity.se_estimate ratio)
            else None)
          s.Sensitivity.se_ratios
        @ List.filter_map
            (fun (f, p) ->
              if Problem.valid_config p s.Sensitivity.se_config then None
              else
                Some
                  (Printf.sprintf
                     "design for estimate %g invalid under factor %g"
                     s.Sensitivity.se_estimate f))
            problems)
      series
  in
  match bad with [] -> Pass | msg :: _ -> Fail msg

(* ------------------------------------------------------------------ *)
(* Yao / Y_WAP page-estimator bounds (Appendix A). *)

let check_yao_bounds cx schema =
  let rng = cx.cx_rng in
  (* Derive plausible magnitudes from the schema so the draws track the
     instances the cost model actually sees. *)
  let max_card =
    Array.fold_left
      (fun acc (r : Schema.relation) -> Float.max acc r.Schema.card)
      1. schema.Schema.relations
  in
  let draw_p () = 1. +. Random.State.float rng (4. *. max_card) in
  let result = ref Pass in
  let check cond fmt =
    Printf.ksprintf (fun s -> if not cond && !result = Pass then result := Fail s) fmt
  in
  for _ = 1 to 200 do
    let p = draw_p () in
    let n = p *. (1. +. Random.State.float rng 100.) in
    let k = -10. +. Random.State.float rng (3. *. p +. 20.) in
    let m = 1. +. Random.State.float rng 2000. in
    let y = Yao.yao ~n ~p ~k in
    let w = Yao.y_wap ~n ~p ~k ~m in
    check (y >= 0.) "yao(p=%g,k=%g) = %g < 0" p k y;
    check (w >= 0.) "y_wap(p=%g,k=%g,m=%g) = %g < 0" p k m w;
    if k <= 0. then begin
      check (y = 0.) "yao(p=%g,k=%g) = %g, expected 0 for k<=0" p k y;
      check (w = 0.) "y_wap(p=%g,k=%g) = %g, expected 0 for k<=0" p k w
    end
    else begin
      check
        (y <= Float.min k p +. 1e-9)
        "yao(p=%g,k=%g) = %g exceeds min(k, pages)" p k y;
      check (w <= k +. 1e-9) "y_wap(p=%g,k=%g,m=%g) = %g exceeds k" p k m w;
      if p <= m then
        check
          (approx w (Float.min k p))
          "y_wap(p=%g,k=%g,m=%g) = %g, expected min(k,p) when the relation \
           fits in memory"
          p k m w
    end;
    (* Monotone in the fetch count. *)
    let k' = k +. Random.State.float rng p in
    check
      (Yao.yao ~n ~p ~k:k' >= y -. 1e-9)
      "yao not monotone in k at p=%g, k=%g -> %g" p k k';
    check
      (Yao.y_wap ~n ~p ~k:k' ~m >= w -. 1e-9)
      "y_wap not monotone in k at p=%g, k=%g -> %g" p k k'
  done;
  !result

(* ------------------------------------------------------------------ *)
(* Executed maintenance: view contents exact, measured I/O inside the
   predicted band (the Extra-1 experiment as a property). *)

let executable_blockers cx schema =
  let n = Schema.n_relations schema in
  let total_tuples =
    Array.fold_left
      (fun acc (r : Schema.relation) -> acc +. r.Schema.card)
      0. schema.Schema.relations
  in
  if total_tuples > cx.cx_exec_tuples then
    Some (Printf.sprintf "too many tuples to execute (%.0f)" total_tuples)
  else if not (Gen.fk_consistent schema) then
    Some "join selectivities are not foreign-key-consistent"
  else if
    List.exists
      (fun i ->
        let d = Schema.delta schema i in
        d.Schema.n_upd > 0. && Datagen.protected_attrs schema i = [])
      (List.init n Fun.id)
  then Some "protected updates with no protected attribute"
  else if
    List.exists
      (fun i ->
        let r = Schema.relation schema i in
        r.Schema.tuple_bytes
        <> List.length r.Schema.attrs * Vis_maintenance.Warehouse.attr_bytes)
      (List.init n Fun.id)
  then Some "tuple_bytes disagrees with the engine's attribute width"
  else None

(* The fault oracles' rounds: [one round] for each of the context's fault
   rounds, stopping at the first outcome that is not a pass. *)
let fault_rounds cx one =
  let rec go round =
    if round >= cx.cx_fault_rounds then Pass
    else match one round with Pass -> go (round + 1) | r -> r
  in
  go 0

let check_maintenance_cycle cx schema =
  match executable_blockers cx schema with
  | Some reason -> Skip reason
  | None -> (
      let p = Problem.make schema in
      (* The cycle checks any configuration; fall back to the greedy design
         when the optimum is out of the A* budget. *)
      let best_name, best =
        match astar_capped cx p with
        | Some a -> ("optimal", a.Astar.best)
        | None -> ("greedy", (Greedy.search p).Greedy.best)
      in
      let seed = Random.State.int cx.cx_rng 1_000_000 in
      let run name config =
        match Validate.run_cycle ~seed schema config with
        | exception Datagen.Unsupported msg ->
            Skip (Printf.sprintf "datagen: %s" msg)
        | report, checks ->
            if not (Validate.all_ok checks) then
              let bad =
                List.find (fun c -> not c.Validate.vc_ok) checks
              in
              fail
                "%s design: view %s diverged from its recomputation \
                 (%d stored vs %d expected)"
                name bad.Validate.vc_view bad.Validate.vc_actual
                bad.Validate.vc_expected
            else begin
              let measured = float_of_int (Refresh.total_io report) in
              let predicted = report.Refresh.rp_predicted in
              (* Tiny batches drown in fixed costs; only judge the ratio
                 when both sides are macroscopic. *)
              if Float.min measured predicted < 20. then Pass
              else
                let ratio = measured /. predicted in
                if ratio > cx.cx_io_band || ratio < 1. /. cx.cx_io_band then
                  fail
                    "%s design: measured I/O %.0f vs predicted %.0f (ratio \
                     %.2f outside band %.0f)"
                    name measured predicted ratio cx.cx_io_band
                else Pass
            end
      in
      match run best_name best with
      | Pass -> run "empty" Config.empty
      | other -> other)

(* ------------------------------------------------------------------ *)
(* The problem's shared memo cache vs fresh evaluators.  Along a random
   walk of feature toggles every shared-cache total must equal a fresh
   evaluator's ([Cost.total_of] with a private cache) bitwise, and the
   shared cache must hold exactly one entry per memo key of every restrict
   class the walk touched: [1 + 3·|rels e|] (the element's sum plus an
   insertion, deletion and update propagation per base relation) per
   distinct [(e, Config.restrict c ~rels:(rels e))].  The walk runs on one
   domain, so it must also derive each entry exactly once (misses =
   entries).  A key that is too fine (lost sharing) or too coarse
   (collisions, wrong totals) shows up here.  Every insertion-propagation
   result along the walk — [p_eval] bits and the winning plan — must match
   a fresh evaluator too, which checks that the [Eval] skeletons the shared
   cache keeps are reused across configurations without leaking one
   configuration's choices into another's.  A*'s optimum is then re-costed
   the same way. *)

(* The first (element, relation) whose insertion propagation differs
   between two evaluators of the same configuration, if any. *)
let ins_mismatch schema a b =
  let differs target r =
    let pa, plan_a = Cost.prop_ins a ~target ~rel:r in
    let pb, plan_b = Cost.prop_ins b ~target ~rel:r in
    if
      Int64.equal
        (Int64.bits_of_float pa.Cost.p_eval)
        (Int64.bits_of_float pb.Cost.p_eval)
      && plan_a = plan_b
    then None
    else
      let plan = Cost.pp_ins_plan schema ~target ~rel:r in
      Some
        (Format.asprintf "%s rel %d: eval %h plan %a, fresh eval %h plan %a"
           (Vis_costmodel.Element.name schema target)
           r pa.Cost.p_eval plan plan_a pb.Cost.p_eval plan plan_b)
  in
  List.find_map
    (fun target ->
      Bitset.fold
        (fun r found ->
          match found with Some _ -> found | None -> differs target r)
        (Vis_costmodel.Element.rels target)
        None)
    (Cost.maintained_elements b)

let shared_vs_fresh ~compression cx schema =
  let p = Problem.make ~compression schema in
  let features = Array.of_list p.Problem.features in
  (* A problem without candidates has nothing to walk (the shrinker can
     reach one). *)
  if Array.length features = 0 then skip "no candidate features"
  else
    let derived = p.Problem.derived in
    let classes = Hashtbl.create 256 in
    let expected = ref 0 in
    let rec walk config steps =
      if steps = 0 then Pass
      else
        let f = features.(Random.State.int cx.cx_rng (Array.length features)) in
        let config' =
          if Problem.has_feature config f then Problem.drop_feature config f
          else if Problem.applicable p config f then Problem.add_feature config f
          else config
        in
        let shared = Problem.total p config' in
        let fresh = Cost.total_of derived config' in
        if shared <> fresh then
          fail "shared-cache total %.17g differs from fresh %.17g" shared fresh
        else
          let eval = Problem.evaluator p config' in
          List.iter
            (fun e ->
              let rels = Vis_costmodel.Element.rels e in
              let cls = (e, Config.signature (Config.restrict config' ~rels)) in
              if not (Hashtbl.mem classes cls) then begin
                Hashtbl.add classes cls ();
                expected := !expected + 1 + (3 * Bitset.cardinal rels)
              end)
            (Cost.maintained_elements eval);
          match ins_mismatch schema eval (Cost.create derived config') with
          | Some m -> fail "shared-cache propagation differs: %s" m
          | None -> walk config' (steps - 1)
    in
    match walk Config.empty 16 with
    | (Fail _ | Skip _) as r -> r
    | Pass -> (
        let s = Cost.cache_stats p.Problem.cache in
        if s.Cost.cs_entries <> !expected || s.Cost.cs_misses <> !expected then
          fail
            "shared cache holds %d entries after %d misses; the walk's restrict \
             classes need %d"
            s.Cost.cs_entries s.Cost.cs_misses !expected
        else
          match astar_capped cx p with
          | None -> skip "A* expansion budget exceeded (%d)" cx.cx_max_expanded
          | Some a ->
              let fresh = Cost.total_of derived a.Astar.best in
              if a.Astar.best_cost <> fresh then
                fail "A* optimum %.17g differs from fresh %.17g" a.Astar.best_cost
                  fresh
              else Pass)

let check_shared_vs_fresh cx schema = shared_vs_fresh ~compression:false cx schema

(* The same walk with the compression axis enabled: page-compression
   features join the restricted configurations, and every shared-cache
   total — compression factors included — must stay bitwise equal to a
   fresh derivation.  A memo-key collision between a compressed and an
   uncompressed configuration shows up here immediately. *)
let check_shared_vs_fresh_compression cx schema =
  shared_vs_fresh ~compression:true cx schema

(* ------------------------------------------------------------------ *)
(* WAL-protected refresh under a random seeded fault plan (PR 5): the
   batch either completes — bit-identical to a fault-free refresh, or
   logically identical when it degraded to view recomputation — or every
   attempt rolled back and the warehouse is bit-identical to its pre-batch
   state.  Storage integrity (index structure, heap/index agreement) must
   hold in every terminal state, and no exception other than the typed
   [Faults.Injected] may escape the storage API — an escaping exception
   surfaces through the runner's catch-all as a Fail. *)

let check_crash_recovery cx schema =
  match executable_blockers cx schema with
  | Some reason -> Skip reason
  | None -> (
      let p = Problem.make schema in
      (* Greedy is cheap, deterministic, and still exercises views, indexes
         and saved-delta plans; the optimum adds nothing the WAL cares
         about. *)
      let config = (Greedy.search p).Greedy.best in
      let data_seed = Random.State.int cx.cx_rng 1_000_000 in
      let world () = Validate.world ~seed:data_seed schema config in
      match world () with
      | exception Datagen.Unsupported msg -> skip "datagen: %s" msg
      | w_ref, batch_ref ->
          ignore (Refresh.run w_ref batch_ref);
          let reference = Validate.reference w_ref in
          fault_rounds cx (fun round ->
              let w, batch = world () in
              let plan_rng =
                Random.State.make
                  [| Random.State.bits cx.cx_rng; cx.cx_fault_seed; round |]
              in
              let plan = Faults.random ~rng:plan_rng () in
              let t = Validate.refresh_trial reference ~faults:plan w batch in
              match (t.Validate.tr_verdict, t.Validate.tr_result) with
              | v, _ when Validate.verdict_ok v -> Pass
              | Validate.Integrity_broken m, _ ->
                  fail "round %d: storage integrity broken: %s" round m
              | _, Ok (_, fs) when fs.Refresh.fs_degraded ->
                  fail
                    "round %d: degraded refresh (%d rows recomputed) is not \
                     logically identical to the fault-free run"
                    round fs.Refresh.fs_recomputed_rows
              | _, Ok (_, fs) ->
                  fail
                    "round %d: recovered state (%d attempts, %d injected) \
                     differs bit-for-bit from the fault-free refresh"
                    round fs.Refresh.fs_attempts fs.Refresh.fs_injected
              | _, Error e ->
                  fail
                    "round %d: failed batch (%s) did not roll back to the \
                     pre-batch state"
                    round
                    (Format.asprintf "%a" Faults.pp_fault e.Refresh.err_fault)))

(* ------------------------------------------------------------------ *)
(* Group-commit stream under faults, on a compressed design (PR 7): a
   stream of sub-batches refreshed with deferred commits and grouped syncs
   must spend fewer durability barriers than batches, and under a random
   fault plan must end either bit-identical to the fault-free stream
   (logically identical when degraded) or with storage integrity intact
   after a clean failure.  Compression is enabled in the searched design so
   the WAL's before-images and the denser heap layout are exercised
   together. *)

let check_group_commit_recovery cx schema =
  match executable_blockers cx schema with
  | Some reason -> Skip reason
  | None -> (
      let p = Problem.make ~compression:true schema in
      let config = (Greedy.search p).Greedy.best in
      let data_seed = Random.State.int cx.cx_rng 1_000_000 in
      let world () =
        let w, batch = Validate.world ~seed:data_seed schema config in
        (w, Validate.split_batch 4 batch)
      in
      match world () with
      | exception Datagen.Unsupported msg -> skip "datagen: %s" msg
      | w_ref, batches_ref -> (
          match Refresh.run_protected_many w_ref batches_ref with
          | Error e ->
              fail "fault-free group stream failed: %s"
                (Format.asprintf "%a" Faults.pp_fault e.Refresh.err_fault)
          | Ok (r_ref, _, g_ref) ->
              if r_ref.Refresh.rp_wal_syncs >= g_ref.Refresh.gr_batches then
                fail
                  "group commit did not reduce syncs: %d syncs for %d batches"
                  r_ref.Refresh.rp_wal_syncs g_ref.Refresh.gr_batches
              else
                let reference = Validate.reference w_ref in
                fault_rounds cx (fun round ->
                    let w, batches = world () in
                    let plan_rng =
                      Random.State.make
                        [|
                          Random.State.bits cx.cx_rng; cx.cx_fault_seed;
                          round; 7;
                        |]
                    in
                    let plan = Faults.random ~rng:plan_rng () in
                    let t =
                      Validate.stream_trial reference ~faults:plan w batches
                    in
                    match (t.Validate.tr_verdict, t.Validate.tr_result) with
                    | v, _ when Validate.verdict_ok v -> Pass
                    | Validate.Integrity_broken m, _ ->
                        fail "round %d: storage integrity broken: %s" round m
                    | _, Ok (_, fs, _) when fs.Refresh.fs_degraded ->
                        fail
                          "round %d: degraded group stream is not logically \
                           identical to the fault-free stream"
                          round
                    | _, Ok (_, fs, g) ->
                        fail
                          "round %d: recovered stream (%d attempts, %d \
                           injected, %d replayed) differs bit-for-bit from \
                           the fault-free stream"
                          round fs.Refresh.fs_attempts fs.Refresh.fs_injected
                          g.Refresh.gr_replayed
                    | _, Error _ ->
                        fail "round %d: %s" round
                          (Validate.verdict_name t.Validate.tr_verdict))))

(* ------------------------------------------------------------------ *)
(* Workload-driven candidate mining (the querygen → miner → restricted
   Problem pipeline): the mined feature universe must be a subset of the
   exhaustive one, the mined optimum must be a valid configuration of both
   problems whose cost re-evaluates structurally and never beats the
   exhaustive optimum, and mining at minsup 0 must reproduce the
   unrestricted problem bit for bit — features, optimum, cost and search
   counters. *)

let check_mined_candidates cx schema =
  let seed = Random.State.int cx.cx_rng 1_000_000 in
  let minsup = 0.02 +. Random.State.float cx.cx_rng 0.38 in
  let log = Querygen.generate ~seed schema in
  let m = Miner.mine ~minsup schema log in
  let p_full = Problem.make schema in
  let p_mined = Problem.make ~candidates:m.Miner.m_candidates schema in
  let subset_of big small =
    List.for_all
      (fun f -> List.exists (Problem.equal_feature f) big.Problem.features)
      small.Problem.features
  in
  if not (subset_of p_full p_mined) then
    fail "minsup %.3f mined a feature outside the exhaustive enumeration"
      minsup
  else
    (* minsup 0 keeps every query-driven candidate: the restricted problem
       must equal the unrestricted one feature for feature, and the searches
       on both must be indistinguishable. *)
    let m0 = Miner.mine ~minsup:0. schema log in
    let p0 = Problem.make ~candidates:m0.Miner.m_candidates schema in
    if
      List.length p0.Problem.features <> List.length p_full.Problem.features
      || not
           (List.for_all2 Problem.equal_feature p0.Problem.features
              p_full.Problem.features)
    then
      fail "minsup 0 feature universe differs: %d features vs %d exhaustive"
        (List.length p0.Problem.features)
        (List.length p_full.Problem.features)
    else
      match astar_capped cx p_full with
      | None -> skip "A* expansion budget exceeded (%d)" cx.cx_max_expanded
      | Some full -> (
          match astar_capped cx p0 with
          | None ->
              Fail
                "minsup 0 search exceeded the budget the exhaustive search \
                 finished under"
          | Some a0 ->
              if
                a0.Astar.best_cost <> full.Astar.best_cost
                || not (Config.equal a0.Astar.best full.Astar.best)
                || a0.Astar.stats.Astar.expanded
                   <> full.Astar.stats.Astar.expanded
                || a0.Astar.stats.Astar.generated
                   <> full.Astar.stats.Astar.generated
              then
                fail
                  "minsup 0 search differs from exhaustive: cost %.17g/%.17g \
                   counters %d/%d vs %d/%d"
                  a0.Astar.best_cost full.Astar.best_cost
                  a0.Astar.stats.Astar.expanded
                  a0.Astar.stats.Astar.generated
                  full.Astar.stats.Astar.expanded
                  full.Astar.stats.Astar.generated
              else (
                match astar_capped cx p_mined with
                | None ->
                    skip "mined A* expansion budget exceeded (%d)"
                      cx.cx_max_expanded
                | Some mined ->
                    let eps =
                      1e-6 *. Float.max 1. full.Astar.best_cost
                    in
                    if not (Problem.valid_config p_mined mined.Astar.best)
                    then
                      Fail
                        "mined optimum is not a valid configuration of the \
                         mined problem"
                    else if not (Problem.valid_config p_full mined.Astar.best)
                    then
                      Fail
                        "mined optimum is not a valid configuration of the \
                         exhaustive problem"
                    else if
                      not
                        (close
                           (Problem.total p_full mined.Astar.best)
                           mined.Astar.best_cost)
                    then
                      fail
                        "mined best_cost %.9f does not re-evaluate \
                         structurally (%.9f)"
                        mined.Astar.best_cost
                        (Problem.total p_full mined.Astar.best)
                    else if
                      mined.Astar.best_cost < full.Astar.best_cost -. eps
                    then
                      fail
                        "mined optimum %.9f beats the exhaustive optimum \
                         %.9f on a subset space"
                        mined.Astar.best_cost full.Astar.best_cost
                    else Pass))

(* The advisor daemon end-to-end: a 3-tenant service over the generated
   schema (one tenant drifting, so the monitor/re-optimize/swap path runs)
   must reach bit-identical end states — physical signatures and every
   counter — at jobs=1 and jobs=N, fault-free and with a crash plan inside
   one tenant's refresh stream.  The crash must also leave the other
   tenants' end states exactly as in the fault-free run: tenants share no
   storage, so faults cannot leak across them. *)
let check_service_replay cx schema =
  match executable_blockers cx schema with
  | Some reason -> Skip reason
  | None -> (
      let data_seed = Random.State.int cx.cx_rng 1_000_000 in
      let design = (Greedy.search (Problem.make schema)).Greedy.best in
      let run ~jobs ~fault =
        let config =
          {
            Service.default_config with
            Service.sv_seed = data_seed;
            sv_jobs = jobs;
            sv_budget = min cx.cx_max_expanded 4_000;
            sv_warmup = 1;
            sv_band = 1.3;
          }
        in
        let svc = Service.create ~config () in
        Fun.protect
          ~finally:(fun () -> Service.shutdown svc)
          (fun () ->
            for k = 0 to 2 do
              let faults =
                if fault && k = 1 then
                  Some
                    (Faults.make
                       [
                         Faults.Fail_nth
                           {
                             op = Some Faults.Write;
                             n = 20;
                             kind = Faults.Crash;
                           };
                       ])
                else None
              in
              let drift =
                if k = 0 then Stream.Step { at = 2; factor = 2.5 }
                else Stream.Constant
              in
              ignore
                (Service.add_tenant ~seed:(data_seed + k)
                   ~rate:(2. -. (0.5 *. float_of_int k))
                   ~drift ?faults ~config:design svc schema)
            done;
            Service.run svc ~ticks:4;
            List.map
              (fun id ->
                (id, Service.signature svc id, Service.stats svc id))
              (Service.tenant_ids svc))
      in
      match run ~jobs:1 ~fault:false with
      | exception Datagen.Unsupported msg -> skip "datagen: %s" msg
      | base ->
          if run ~jobs:cx.cx_jobs ~fault:false <> base then
            fail "service end-state differs between jobs=1 and jobs=%d"
              cx.cx_jobs
          else
            let f1 = run ~jobs:1 ~fault:true in
            if run ~jobs:cx.cx_jobs ~fault:true <> f1 then
              fail
                "faulted service end-state differs between jobs=1 and jobs=%d"
                cx.cx_jobs
            else
              let others l = List.filter (fun (id, _, _) -> id <> 1) l in
              if others f1 <> others base then
                fail
                  "a crash inside tenant 1's refresh stream perturbed other \
                   tenants' end states"
              else Pass)

(* ------------------------------------------------------------------ *)
(* Silent corruption and self-healing (checksums + scrub + WAL CRCs):
   build the warehouse checksum-protected, refresh it fault-free, inject
   seeded bit-flips and torn writes into protected pages, and require

   - {e detection}: a scrub sweep convicts exactly the damaged pages —
     every one of them (100% detection) and nothing else (no false
     positives on clean pages);
   - {e classification}: damaged base-relation heap pages — which have no
     redundant source — are reported unrecoverable, never "repaired";
   - {e repair}: with only rebuildable damage (view heaps, index nodes),
     the post-scrub warehouse is logically identical to the fault-free
     run, passes the integrity check, and is {e bit-identical} to a
     fault-free reference performing the same canonical rebuilds;
   - {e replay}: the whole damage→scrub→rebuild episode is a pure
     function of (seed, trial) — running it twice gives bit-identical
     signatures and reports, which is what makes corruption schedules
     reproducible at any --jobs.

   A separate WAL leg exercises the record-CRC envelope on a live batch:
   a torn tail must be truncated (recovery proceeds and restores the
   pre-batch state), while mid-log corruption must raise the typed
   [Wal.Corrupt_record] naming the first bad record. *)

let check_corruption_recovery cx schema =
  match executable_blockers cx schema with
  | Some reason -> Skip reason
  | None -> (
      let p = Problem.make schema in
      let config = (Greedy.search p).Greedy.best in
      let data_seed = Random.State.int cx.cx_rng 1_000_000 in
      let world () =
        Validate.world ~checksums:true ~seed:data_seed schema config
      in
      match world () with
      | exception Datagen.Unsupported msg -> skip "datagen: %s" msg
      | w_ref0, batch_ref0 ->
          ignore (Refresh.run w_ref0 batch_ref0);
          let logical_ref = Warehouse.logical_signature w_ref0 in
          let heap_gids tbl =
            let h = Table.heap tbl in
            List.init (Heap_file.n_pages h) (Heap_file.page_gid h)
          in
          (* Ownership map of one world's damaged gids, expressed in
             durable-table positions (bases first, then views — the WAL's
             own table ids).  Worlds are pure in [data_seed], so a
             classification computed on the damaged warehouse applies
             verbatim to the reference world. *)
          let classify w gid =
            let tables = Warehouse.durable_tables w in
            let n_bases = Array.length w.Warehouse.w_bases in
            let in_heap tbl = List.mem gid (heap_gids tbl) in
            let in_index tbl =
              List.find_opt
                (fun (_, ix) -> List.mem gid (Btree.page_gids ix))
                (Table.indexes tbl)
            in
            let rec walk ti =
              if ti >= Array.length tables then `Unowned
              else if in_heap tables.(ti) then
                if ti < n_bases then `Base else `View ti
              else
                match in_index tables.(ti) with
                | Some (off, _) -> `Index (ti, off)
                | None -> walk (ti + 1)
            in
            walk 0
          in
          (* The Bitset key of the view stored at durable-table position
             [ti] — what [Warehouse.rebuild_view] takes. *)
          let view_set w ti =
            let n_bases = Array.length w.Warehouse.w_bases in
            fst (List.nth w.Warehouse.w_views (ti - n_bases))
          in
          (* One full damage→scrub→rebuild episode, pure in [seeds]. *)
          let episode seeds =
            let w, batch = world () in
            ignore (Refresh.run w batch);
            Buffer_pool.flush w.Warehouse.w_pool;
            let damaged =
              Validate.damage_pages w ~rng:(Random.State.make seeds) ~n:3
                (Array.of_list (Buffer_pool.protected_gids w.Warehouse.w_pool))
            in
            (* Classify before the scrub: repair swaps rebuilt tables in,
               orphaning the damaged pages' gids. *)
            let kinds = List.map (fun g -> (g, classify w g)) damaged in
            let sweep = Scrub.sweep w.Warehouse.w_pool in
            let report = Warehouse.scrub ~fail_unrecoverable:false w in
            (w, damaged, kinds, sweep.Scrub.sr_corrupt, report)
          in
          let one round =
            let seeds =
              [| Random.State.bits cx.cx_rng; cx.cx_fault_seed; round; 13 |]
            in
            let w, damaged, kinds, convicted, report = episode seeds in
            let w2, _, _, convicted2, report2 = episode seeds in
            if convicted <> damaged then
              fail
                "round %d: scrub convicted pages [%s], damaged were [%s]"
                round
                (String.concat ";" (List.map string_of_int convicted))
                (String.concat ";" (List.map string_of_int damaged))
            else if
              convicted2 <> convicted || report2 <> report
              || Warehouse.signature w2 <> Warehouse.signature w
            then
              fail
                "round %d: the damage/scrub episode is not a pure function \
                 of (seed, trial)"
                round
            else
              let expect_unrec =
                List.filter_map
                  (fun (g, k) -> if k = `Base then Some g else None)
                  kinds
              in
              let got_unrec =
                List.sort_uniq compare
                  (List.map fst report.Warehouse.sc_unrecoverable)
              in
              if got_unrec <> expect_unrec then
                fail
                  "round %d: unrecoverable pages [%s], damaged base pages \
                   [%s]"
                  round
                  (String.concat ";" (List.map string_of_int got_unrec))
                  (String.concat ";" (List.map string_of_int expect_unrec))
              else if expect_unrec <> [] then Pass
                (* base damage has no redundant source; classification is
                   the whole guarantee *)
              else if Warehouse.logical_signature w <> logical_ref then
                fail
                  "round %d: repaired warehouse is not logically identical \
                   to the fault-free run"
                  round
              else begin
                match Warehouse.integrity_check w with
                | Error m ->
                    fail "round %d: integrity broken after repair: %s" round m
                | Ok () ->
                    (* Fresh fault-free reference performing the same
                       canonical rebuilds: physical signatures exclude page
                       ids, so the repaired state must match it bit for
                       bit. *)
                    let w_ref, batch_ref = world () in
                    ignore (Refresh.run w_ref batch_ref);
                    let tables_ref = Warehouse.durable_tables w_ref in
                    let view_tis =
                      List.sort_uniq compare
                        (List.filter_map
                           (fun (_, k) ->
                             match k with `View ti -> Some ti | _ -> None)
                           kinds)
                    in
                    List.iter
                      (fun (_, k) ->
                        match k with
                        | `Index (ti, off) when not (List.mem ti view_tis) ->
                            ignore
                              (Table.rebuild_index tables_ref.(ti) ~offset:off)
                        | _ -> ())
                      kinds;
                    List.iter
                      (fun ti ->
                        ignore
                          (Warehouse.rebuild_view w_ref (view_set w_ref ti)))
                      view_tis;
                    if Warehouse.signature w <> Warehouse.signature w_ref then
                      fail
                        "round %d: repaired state differs bit-for-bit from \
                         the fault-free reference with identical rebuilds \
                         (damage: %s; report: views %d indexes %d)"
                        round
                        (String.concat ", "
                           (List.map
                              (fun (g, k) ->
                                Printf.sprintf "%d=%s" g
                                  (match k with
                                  | `Base -> "base"
                                  | `View ti -> Printf.sprintf "view@%d" ti
                                  | `Index (ti, off) ->
                                      Printf.sprintf "ix@%d.%d" ti off
                                  | `Unowned -> "unowned"))
                              kinds))
                        report.Warehouse.sc_views_rebuilt
                        report.Warehouse.sc_indexes_rebuilt
                    else Pass
              end
          in
          (* The WAL's record-CRC envelope, on a live uncommitted batch. *)
          let wal_legs () =
            (* Torn tail: the newest appends never reached the disk image;
               recovery must truncate them, proceed, and restore the
               pre-batch state. *)
            let w, _ = world () in
            let pre = Warehouse.signature w in
            let tbl = (Warehouse.durable_tables w).(0) in
            let arity = Vis_relalg.Reldesc.arity (Table.desc tbl) in
            Warehouse.begin_batch w;
            for i = 1 to 6 do
              ignore (Warehouse.logged_insert w tbl (Array.make arity (9_000 + i)))
            done;
            let torn = Wal.tear_tail w.Warehouse.w_wal ~keep:3 in
            match Wal.verify_scan w.Warehouse.w_wal with
            | Wal.Torn { torn = t; _ } when t = torn -> (
                ignore (Warehouse.recover w);
                if Warehouse.signature w <> pre then
                  Fail
                    "torn-tail recovery did not restore the pre-batch state"
                else
                  (* Mid-log corruption: a bad CRC with intact records after
                     it is not a torn tail; recovery must stop with the
                     typed error naming the record, not replay past it. *)
                  let w2, _ = world () in
                  let tbl2 = (Warehouse.durable_tables w2).(0) in
                  Warehouse.begin_batch w2;
                  for i = 1 to 6 do
                    ignore
                      (Warehouse.logged_insert w2 tbl2 (Array.make arity i))
                  done;
                  let wal = w2.Warehouse.w_wal in
                  let seq =
                    Wal.total_records wal - Wal.n_records wal + 2
                  in
                  if not (Wal.corrupt_record wal ~seq) then
                    fail "no WAL record with seq %d to corrupt" seq
                  else (
                    match Wal.verify_scan wal with
                    | Wal.Corrupt { seq = s } when s = seq -> (
                        match Warehouse.recover w2 with
                        | exception Wal.Corrupt_record s when s = seq -> Pass
                        | exception Wal.Corrupt_record s ->
                            fail
                              "mid-log corruption named record %d, expected \
                               %d"
                              s seq
                        | _ ->
                            Fail
                              "recovery replayed past mid-log corruption \
                               without a typed error")
                    | _ ->
                        fail
                          "verify_scan did not classify a bad CRC at seq %d \
                           as mid-log corruption"
                          seq))
            | _ ->
                fail "verify_scan did not report the torn tail (%d entries)"
                  torn
          in
          (match fault_rounds cx one with Pass -> wal_legs () | r -> r))

(* ------------------------------------------------------------------ *)

let all =
  [
    {
      o_name = "astar-optimal";
      o_doc = "A* finds the exhaustive optimum (Section 4)";
      o_check = check_astar_optimal;
    };
    {
      o_name = "parallel-determinism";
      o_doc = "jobs=1 and jobs=N produce bit-identical results";
      o_check = check_parallel_determinism;
    };
    {
      o_name = "cache-equivalence";
      o_doc = "shared cost cache on/off leaves the optimum unchanged";
      o_check = check_cache_equivalence;
    };
    {
      o_name = "heuristics-bounded";
      o_doc = "optimum <= local search <= greedy <= empty design";
      o_check = check_heuristics_bounded;
    };
    {
      o_name = "space-staircase";
      o_doc = "Space.sweep staircase monotone, cost_at consistent (6.1)";
      o_check = check_space_staircase;
    };
    {
      o_name = "sensitivity";
      o_doc = "sensitivity ratios >= 1 and = 1 at the estimate (6.2)";
      o_check = check_sensitivity;
    };
    {
      o_name = "yao-bounds";
      o_doc = "yao / Y_WAP page estimators stay inside their bounds";
      o_check = check_yao_bounds;
    };
    {
      o_name = "maintenance-cycle";
      o_doc = "executed refresh: views exact, I/O inside the predicted band";
      o_check = check_maintenance_cycle;
    };
    (* Appended last: the trial RNG is keyed by registry position, so
       inserting earlier would perturb every older oracle's stream. *)
    {
      o_name = "shared-vs-fresh-cost";
      o_doc = "shared-cache costs equal fresh ones; one entry per restrict key";
      o_check = check_shared_vs_fresh;
    };
    (* Appended last — see the note above. *)
    {
      o_name = "crash-recovery";
      o_doc = "faulted refresh recovers bit-identical or rolls back cleanly";
      o_check = check_crash_recovery;
    };
    (* Appended last — see the note above. *)
    {
      o_name = "shared-vs-fresh-compression";
      o_doc = "shared-cache costs equal fresh ones with compression";
      o_check = check_shared_vs_fresh_compression;
    };
    (* Appended last — see the note above. *)
    {
      o_name = "group-commit-recovery";
      o_doc = "faulted group-commit stream on a compressed design recovers";
      o_check = check_group_commit_recovery;
    };
    {
      o_name = "service-replay";
      o_doc = "multi-tenant daemon end-state bit-identical at any jobs";
      o_check = check_service_replay;
    };
    (* Appended last — see the note above. *)
    {
      o_name = "mined-candidates";
      o_doc = "mined candidate space is sound; minsup 0 is bit-identical";
      o_check = check_mined_candidates;
    };
    (* Appended last — see the note above. *)
    {
      o_name = "corruption-recovery";
      o_doc = "scrub convicts all injected corruption; rebuilds bit-identical";
      o_check = check_corruption_recovery;
    };
  ]

let find name = List.find_opt (fun o -> o.o_name = name) all

let resolve name =
  match find name with
  | Some o -> Ok o
  | None ->
      Error
        (Printf.sprintf "unknown oracle %S (known: %s)" name
           (String.concat ", " (List.map (fun o -> o.o_name) all)))

let select names =
  let unknown =
    List.find_map
      (fun n -> match resolve n with Error e -> Some e | Ok _ -> None)
      names
  in
  match unknown with
  | Some e -> Error e
  | None -> Ok (List.filter (fun o -> List.mem o.o_name names) all)
