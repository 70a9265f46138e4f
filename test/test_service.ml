(* Tests for the multi-tenant advisor daemon: tenant lifecycle, the EWMA
   rate monitor and its trigger thresholds, warm-started budgeted
   re-optimization, swap atomicity across refresh groups, the
   budget-bounded degradation path, fault isolation between tenants, and
   jobs=1 vs jobs=4 end-state bit-identity on a fixed 3-tenant scenario. *)

module Schema = Vis_catalog.Schema
module Config = Vis_costmodel.Config
module Problem = Vis_core.Problem
module Astar = Vis_core.Astar
module Greedy = Vis_core.Greedy
module Datagen = Vis_workload.Datagen
module Faults = Vis_storage.Faults
module Parallel = Vis_util.Parallel
module Service = Vis_service.Service
module Stream = Vis_workload.Stream
module Monitor = Vis_service.Monitor

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

(* Batches the latency record of a tenant's stats accounts for. *)
let latency_count s =
  List.fold_left (fun acc (_, c) -> acc + c) 0 s.Service.ts_latencies_ms

let schema = Vis_workload.Schemas.validation ~base_card:200. ()

(* One shared initial design (the greedy one, for speed): every scenario
   tenant starts from it, so re-optimizations are the only source of
   configuration change. *)
let design = lazy (Greedy.search (Problem.make schema)).Greedy.best

let base_config =
  {
    Service.default_config with
    Service.sv_seed = 7;
    sv_warmup = 1;
    sv_band = 1.3;
    sv_gate = 1.0;
    sv_budget = 4_000;
  }

let crash_plan () =
  Faults.make
    [ Faults.Fail_nth { op = Some Faults.Write; n = 30; kind = Faults.Crash } ]

(* The fixed 3-tenant scenario: tenant 0 drifts (unless overridden),
   tenant 1 optionally gets a crash plan, tenant 2 is steady. *)
let scenario ?(config = base_config) ?(ticks = 6) ?fault_tenant
    ?(drift = Stream.Step { at = 2; factor = 4. }) () =
  let svc = Service.create ~config () in
  for k = 0 to 2 do
    let faults =
      match fault_tenant with
      | Some f when f = k -> Some (crash_plan ())
      | _ -> None
    in
    let dr = if k = 0 then drift else Stream.Constant in
    ignore
      (Service.add_tenant ~seed:(100 + k)
         ~rate:(2.5 -. (float_of_int k *. 0.75))
         ~drift:dr ?faults ~config:(Lazy.force design) svc schema)
  done;
  Service.run svc ~ticks;
  svc

let end_state svc =
  List.map
    (fun id -> (id, Service.signature svc id, Service.stats svc id))
    (Service.tenant_ids svc)

let with_scenario ?config ?ticks ?fault_tenant ?drift f =
  let svc = scenario ?config ?ticks ?fault_tenant ?drift () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) (fun () -> f svc)

(* ------------------------------------------------------------------ *)
(* Tenant lifecycle. *)

let test_registration () =
  let svc = Service.create () in
  let a =
    Service.add_tenant ~name:"alpha" ~config:(Lazy.force design) svc schema
  in
  let b = Service.add_tenant ~config:(Lazy.force design) svc schema in
  checki "first id" 0 a;
  checki "second id" 1 b;
  checki "two live tenants" 2 (Service.n_tenants svc);
  checkb "ids listed in order" true (Service.tenant_ids svc = [ 0; 1 ]);
  let s = Service.stats svc a in
  Alcotest.(check string) "name kept" "alpha" s.Service.ts_name;
  Alcotest.(check string)
    "default name" "tenant-1" (Service.stats svc b).Service.ts_name;
  checki "no batches before any tick" 0 s.Service.ts_batches;
  checki "no swaps before any tick" 0 s.Service.ts_swaps;
  checkb "incumbent is the registered design" true
    (Config.equal (Lazy.force design) (Service.incumbent svc a));
  Service.shutdown svc

let test_teardown () =
  let svc = Service.create () in
  let a = Service.add_tenant ~config:(Lazy.force design) svc schema in
  let b = Service.add_tenant ~config:(Lazy.force design) svc schema in
  let final = Service.remove_tenant svc a in
  checki "final stats carry the id" a final.Service.ts_id;
  checki "one tenant left" 1 (Service.n_tenants svc);
  checkb "the right one" true (Service.tenant_ids svc = [ b ]);
  checkb "stats of a removed tenant raise" true
    (match Service.stats svc a with
    | exception Not_found -> true
    | _ -> false);
  checkb "removing twice raises" true
    (match Service.remove_tenant svc a with
    | exception Not_found -> true
    | _ -> false);
  let t = Service.totals svc in
  checki "totals still count the retired tenant" 2 t.Service.tt_tenants;
  Service.shutdown svc

let test_ingestion () =
  with_scenario (fun svc ->
      List.iter
        (fun id ->
          let s = Service.stats svc id in
          checkb "tenant ingested batches" true (s.Service.ts_batches > 0);
          checkb "tenant ingested rows" true (s.Service.ts_rows > 0);
          checkb "refresh groups ran" true (s.Service.ts_groups > 0);
          checkb "I/O was charged" true (s.Service.ts_io > 0);
          checki "no stream failed" 0 s.Service.ts_failed;
          checki "one latency per committed batch" s.Service.ts_batches
            (latency_count s);
          List.iter
            (fun (l, _) -> checkb "latencies are non-negative" true (l >= 0.))
            s.Service.ts_latencies_ms)
        (Service.tenant_ids svc);
      List.iter
        (fun id ->
          let s = Service.stats svc id in
          checkb "syncs never exceed batches" true
            (s.Service.ts_group_syncs <= s.Service.ts_batches))
        (Service.tenant_ids svc);
      (* Tenant 0 drifts to ~10 batches/tick, so 4-batch grouping must
         amortize its WAL syncs; tenant 2 at ~1 batch/tick cannot. *)
      checkb "grouping amortized the busy tenant's syncs" true
        ((Service.stats svc 0).Service.ts_group_syncs
        < (Service.stats svc 0).Service.ts_batches);
      let t = Service.totals svc in
      checkb "p99 covers the latency tail" true
        (t.Service.tt_p99_latency_ms >= t.Service.tt_mean_latency_ms))

(* ------------------------------------------------------------------ *)
(* The rate monitor. *)

let test_monitor_ewma () =
  let m = Monitor.create ~alpha:0.5 ~reference:100. in
  checkf "ratio is 1 before any observation" 1. (Monitor.ratio m);
  Monitor.observe m 100.;
  checkf "first observation initializes directly" 100. (Monitor.ewma m);
  checkb "on-reference rate does not drift" false (Monitor.drifted m ~band:1.5);
  Monitor.observe m 300.;
  checkf "ewma blends with alpha" 200. (Monitor.ewma m);
  checkf "ratio follows" 2. (Monitor.ratio m);
  checkb "2x rate drifts outside a 1.5 band" true (Monitor.drifted m ~band:1.5);
  Monitor.rebase m ~reference:200.;
  checkf "rebase resets the ratio" 1. (Monitor.ratio m);
  checkb "rebased monitor is calm" false (Monitor.drifted m ~band:1.5)

let test_monitor_thresholds () =
  (* alpha 1 makes the EWMA track the last observation exactly, pinning
     the band edges: the band is exclusive on both sides. *)
  let m = Monitor.create ~alpha:1.0 ~reference:100. in
  Monitor.observe m 150.;
  checkb "ratio exactly at the band does not trigger" false
    (Monitor.drifted m ~band:1.5);
  Monitor.observe m 151.;
  checkb "just above the band triggers" true (Monitor.drifted m ~band:1.5);
  Monitor.observe m 67.;
  checkb "just inside the low edge does not trigger" false
    (Monitor.drifted m ~band:1.5);
  Monitor.observe m 66.;
  checkb "below 1/band triggers" true (Monitor.drifted m ~band:1.5)

let test_trigger_in_service () =
  (* A 4x step drift must get tenant 0 past the 1.3 band after warmup;
     steady tenants with a wide band must never be examined. *)
  with_scenario (fun svc ->
      checkb "drifting tenant was examined" true
        ((Service.stats svc 0).Service.ts_checks > 0));
  (* The calm leg needs rates high enough that no tick is empty: an empty
     tick legitimately reads as drift (the EWMA collapses toward 0), so
     low-rate tenants can trigger even inside a wide band. *)
  let calm =
    Service.create ~config:{ base_config with Service.sv_band = 10. } ()
  in
  Fun.protect
    ~finally:(fun () -> Service.shutdown calm)
    (fun () ->
      ignore
        (Service.add_tenant ~seed:100 ~rate:8. ~config:(Lazy.force design)
           calm schema);
      ignore
        (Service.add_tenant ~seed:101 ~rate:6. ~config:(Lazy.force design)
           calm schema);
      Service.run calm ~ticks:6;
      List.iter
        (fun id ->
          checki "steady load inside a wide band never triggers" 0
            (Service.stats calm id).Service.ts_checks)
        (Service.tenant_ids calm))

(* ------------------------------------------------------------------ *)
(* Streams and data evolution. *)

let test_stream_determinism () =
  let a = Stream.arrivals ~seed:3 ~tenant:1 ~tick:5 ~mean:2.5 in
  let b = Stream.arrivals ~seed:3 ~tenant:1 ~tick:5 ~mean:2.5 in
  checki "arrivals are a pure function" a b;
  checkb "arrivals differ across ticks somewhere" true
    (List.exists
       (fun t -> Stream.arrivals ~seed:3 ~tenant:1 ~tick:t ~mean:2.5 <> a)
       [ 1; 2; 3; 4; 6; 7; 8 ]);
  checki "zero mean means zero arrivals" 0
    (Stream.arrivals ~seed:3 ~tenant:1 ~tick:5 ~mean:0.);
  checkf "no drift before a step" 1.
    (Stream.drift_factor (Stream.Step { at = 4; factor = 3. }) ~tick:3);
  checkf "step drift lands exactly" 3.
    (Stream.drift_factor (Stream.Step { at = 4; factor = 3. }) ~tick:4);
  checkf "ramp midpoint" 2.
    (Stream.drift_factor
       (Stream.Ramp { from_tick = 2; over = 4; factor = 3. })
       ~tick:4);
  checkf "ramp saturates" 3.
    (Stream.drift_factor
       (Stream.Ramp { from_tick = 2; over = 4; factor = 3. })
       ~tick:100);
  checkb "zipf weights decrease with rank" true
    (Stream.zipf_weight ~s:1. ~rank:0 > Stream.zipf_weight ~s:1. ~rank:3)

let test_stream_edge_cases () =
  let ramp = Stream.Ramp { from_tick = 2; over = 4; factor = 3. } in
  checkf "ramp is flat at tick 0" 1. (Stream.drift_factor ramp ~tick:0);
  checkf "ramp is still flat at its own start tick" 1.
    (Stream.drift_factor ramp ~tick:2);
  checkf "ramp reaches the factor exactly at the endpoint" 3.
    (Stream.drift_factor ramp ~tick:6);
  checkf "ramp holds the factor past the endpoint" 3.
    (Stream.drift_factor ramp ~tick:60);
  checkf "a degenerate ramp (over = 0) steps straight to the factor" 3.
    (Stream.drift_factor
       (Stream.Ramp { from_tick = 2; over = 0; factor = 3. })
       ~tick:3);
  checkf "a negative-length ramp behaves like the degenerate one" 3.
    (Stream.drift_factor
       (Stream.Ramp { from_tick = 2; over = -4; factor = 3. })
       ~tick:3);
  (* Volume factors are clamped at 0 — a negative factor cannot make the
     stream emit negative arrivals, mid-ramp or saturated. *)
  checkf "negative factor clamps to zero mid-ramp" 0.
    (Stream.drift_factor
       (Stream.Ramp { from_tick = 0; over = 2; factor = -9. })
       ~tick:1);
  checkf "negative factor clamps to zero once saturated" 0.
    (Stream.drift_factor
       (Stream.Ramp { from_tick = 2; over = 4; factor = -2. })
       ~tick:100);
  (* s = 0 is the uniform edge of the zipf family: every rank weighs 1, so
     tenant rates degrade to equal shares with no renormalization. *)
  checkf "zipf s=0 flattens rank 0 to weight 1" 1.
    (Stream.zipf_weight ~s:0. ~rank:0);
  checkf "zipf s=0 flattens rank 7 to weight 1" 1.
    (Stream.zipf_weight ~s:0. ~rank:7)

let test_monitor_empty_ticks () =
  (* Empty-arrival ticks feed the monitor literal 0-row observations: the
     EWMA decays toward zero, the low band edge triggers, and a rebase
     onto the collapsed rate calms it again — the same rebase the service
     performs after a swap. *)
  let m = Monitor.create ~alpha:0.5 ~reference:100. in
  Monitor.observe m 100.;
  Monitor.observe m 0.;
  checkf "one empty tick halves the ewma" 50. (Monitor.ewma m);
  checkb "a single empty tick already reads as drift at band 1.5" true
    (Monitor.drifted m ~band:1.5);
  Monitor.observe m 0.;
  Monitor.observe m 0.;
  checkb "sustained empty ticks keep the ewma collapsing" true
    (Monitor.ewma m < 15.);
  Monitor.rebase m ~reference:(Monitor.ewma m);
  checkf "rebase onto the collapsed rate resets the ratio" 1.
    (Monitor.ratio m);
  checkb "the rebased monitor is calm" false (Monitor.drifted m ~band:1.5)

let test_datagen_apply_and_evolving () =
  let rng = Random.State.make [| 11 |] in
  let ds = Datagen.generate ~rng schema in
  let b = Datagen.deltas_evolving ~rng schema ds in
  let ds' = Datagen.apply schema ds b in
  let key_pos rel =
    Schema.attr_pos schema rel (Schema.relation schema rel).Schema.key_attr
  in
  for rel = 0 to Schema.n_relations schema - 1 do
    let keys tuples = List.map (fun t -> t.(key_pos rel)) tuples in
    let before = keys ds.Datagen.ds_tuples.(rel) in
    let after = keys ds'.Datagen.ds_tuples.(rel) in
    checki "population moves by ins - del"
      (List.length before
      + List.length b.Datagen.b_ins.(rel)
      - List.length b.Datagen.b_del.(rel))
      (List.length after);
    List.iter
      (fun k -> checkb "deleted key gone" false (List.mem k after))
      b.Datagen.b_del.(rel);
    List.iter
      (fun t -> checkb "inserted key present" true (List.mem t.(key_pos rel) after))
      b.Datagen.b_ins.(rel);
    checkb "next_key advances past inserts" true
      (ds'.Datagen.ds_next_key.(rel)
      = ds.Datagen.ds_next_key.(rel) + List.length b.Datagen.b_ins.(rel))
  done;
  (* After deletions made the key space sparse, evolving deltas must only
     name live keys — the dense-key sampler would draw dangling ones. *)
  let b2 = Datagen.deltas_evolving ~rng schema ds' in
  for rel = 0 to Schema.n_relations schema - 1 do
    let live = List.map (fun t -> t.(key_pos rel)) ds'.Datagen.ds_tuples.(rel) in
    List.iter
      (fun k -> checkb "evolved delete names a live key" true (List.mem k live))
      b2.Datagen.b_del.(rel);
    List.iter
      (fun (k, _) ->
        checkb "evolved update names a live key" true (List.mem k live);
        checkb "updates avoid deleted keys" false
          (List.mem k b2.Datagen.b_del.(rel)))
      b2.Datagen.b_upd.(rel)
  done

(* ------------------------------------------------------------------ *)
(* Warm-started search. *)

let test_warm_start () =
  let p = Problem.make schema in
  let opt = Astar.search p in
  (* Warm-starting cannot change the proven optimum. *)
  let warm = Astar.search ~warm_start:(Lazy.force design) p in
  checkf "warm-started optimum cost unchanged" opt.Astar.best_cost
    warm.Astar.best_cost;
  (* Under a starving budget, the warm start is the floor: the result can
     never be worse than the configuration the caller already runs. *)
  let r, cert =
    Astar.search_budgeted ~max_expanded:1 ~warm_start:opt.Astar.best p
  in
  checkb "starved search reports a certificate" true
    (match cert with Astar.Bounded _ -> true | Astar.Optimal -> true);
  checkb "warm start floors the budgeted result" true
    (r.Astar.best_cost <= Problem.total p opt.Astar.best +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Re-optimization, swaps and degradation. *)

let test_swap_happens_and_preserves_content () =
  (* Same stream twice: with re-optimization enabled (A) and with the
     monitor effectively disabled (B).  A must swap at least once under
     the 4x drift; and because swaps rebuild from the logical mirror
     between refresh groups, the bases and primary view must end with
     exactly the same contents as the never-swapped run — no delta lost,
     none applied twice. *)
  with_scenario (fun a ->
      let calm = { base_config with Service.sv_band = 1e9 } in
      with_scenario ~config:calm (fun b ->
          let sa = Service.stats a 0 and sb = Service.stats b 0 in
          checkb "drifted tenant swapped" true (sa.Service.ts_swaps >= 1);
          checki "calm run never swapped" 0 sb.Service.ts_swaps;
          checki "same batches either way" sa.Service.ts_batches
            sb.Service.ts_batches;
          checki "no batch lost to a swap" sa.Service.ts_batches
            (latency_count sa);
          List.iter
            (fun id ->
              Alcotest.(check string)
                (Printf.sprintf "tenant %d core contents unchanged by swaps" id)
                (Service.core_digest b id) (Service.core_digest a id))
            (Service.tenant_ids a);
          checkb "swapped design differs from the seed design" false
            (Config.equal (Service.incumbent a 0) (Lazy.force design))))

let test_rebase_after_swap () =
  (* The swap rebases the monitor onto the rate the new design was
     optimized for, so a tenant that swapped under a sustained 4x step
     must end with its optimized-for factor tracking the drift and its
     EWMA ratio pulled back toward 1 — far below the raw 4x the
     un-rebased reference would report. *)
  with_scenario (fun svc ->
      let s = Service.stats svc 0 in
      checkb "drifted tenant swapped" true (s.Service.ts_swaps >= 1);
      checkb "swap recorded the drifted optimized-for factor" true
        (s.Service.ts_opt_factor > 1.5);
      checkb "rebased ratio is far below the raw drift factor" true
        (s.Service.ts_ewma_ratio < 2.))

let test_mined_reoptimization () =
  (* The workload-driven rung of the ladder: with [sv_minsup] set the
     drifted tenant still re-optimizes over the mined candidate space, the
     whole end state stays bit-identical across pool widths, and the core
     contents match the exhaustive run — mining restricts the search
     space, never the data. *)
  let mined jobs =
    {
      base_config with
      Service.sv_jobs = jobs;
      sv_minsup = Some 0.1;
      sv_log_queries = 128;
    }
  in
  let exhaustive_cores =
    with_scenario (fun svc ->
        List.map (fun id -> Service.core_digest svc id)
          (Service.tenant_ids svc))
  in
  let a = with_scenario ~config:(mined 1) end_state in
  with_scenario ~config:(mined 4) (fun svc ->
      checkb "mined end state bit-identical at jobs 1 vs 4" true
        (end_state svc = a);
      let s = Service.stats svc 0 in
      checkb "drifted tenant re-optimized under mining" true
        (s.Service.ts_reopts >= 1);
      Alcotest.(check (list string))
        "core contents identical to the exhaustive run" exhaustive_cores
        (List.map (fun id -> Service.core_digest svc id)
           (Service.tenant_ids svc)))

let test_budget_bounded_degradation () =
  (* A starving optimizer budget with an impossible swap threshold: every
     re-optimization comes back Bounded without improvement, the incumbent
     stays, and the stream keeps flowing — the degradation path. *)
  let cfg =
    {
      base_config with
      Service.sv_budget = 1;
      sv_beam = Some 1;
      sv_min_gain = 1.0;
    }
  in
  with_scenario ~config:cfg (fun svc ->
      let s = Service.stats svc 0 in
      checkb "re-optimizations ran" true (s.Service.ts_reopts >= 1);
      checkb "starved searches report Bounded" true
        (s.Service.ts_bounded >= 1);
      checki "no swap below the gain threshold" 0 s.Service.ts_swaps;
      checkb "incumbent kept" true
        (Config.equal (Service.incumbent svc 0) (Lazy.force design));
      checki "the stream never failed" 0 s.Service.ts_failed;
      checki "every batch still committed" s.Service.ts_batches
        (latency_count s))

(* ------------------------------------------------------------------ *)
(* Determinism and fault isolation. *)

let test_jobs_bit_identity () =
  let at jobs =
    with_scenario
      ~config:{ base_config with Service.sv_jobs = jobs }
      end_state
  in
  checkb "jobs=1 and jobs=4 end states are bit-identical" true
    (at 1 = at 4)

let test_fault_isolation () =
  let clean = with_scenario end_state in
  with_scenario ~fault_tenant:1 (fun svc ->
      let s1 = Service.stats svc 1 in
      checkb "the crash fired" true (s1.Service.ts_injected >= 1);
      checkb "recovery rolled back" true (s1.Service.ts_rollbacks >= 1);
      checkb "rolled-back batches were replayed" true
        (s1.Service.ts_replayed >= 1);
      let faulted = end_state svc in
      let others l = List.filter (fun (id, _, _) -> id <> 1) l in
      checkb "other tenants' end states untouched by the crash" true
        (others faulted = others clean);
      (* Crash recovery replays to the exact fault-free state, so even the
         faulted tenant's storage converges; only its counters differ. *)
      let sig_of l id =
        let _, s, _ = List.find (fun (i, _, _) -> i = id) l in
        s
      in
      Alcotest.(check string)
        "faulted tenant recovered bit-identically" (sig_of clean 1)
        (sig_of faulted 1))

let test_fault_determinism_across_jobs () =
  let at jobs =
    with_scenario
      ~config:{ base_config with Service.sv_jobs = jobs }
      ~fault_tenant:1 end_state
  in
  checkb "faulted scenario bit-identical at jobs=1 and jobs=4" true
    (at 1 = at 4)

(* ------------------------------------------------------------------ *)
(* Helpers. *)

(* Nearest-rank percentile over an explicit list: the reference the
   (latency, count) record must reproduce exactly. *)
let brute_percentile ~p xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let n = List.length sorted in
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      List.nth sorted (max 0 (min (n - 1) (rank - 1)))

let record xs = List.fold_left (fun h l -> Service.add_latency (l, 1) h) [] xs

let test_percentile () =
  checkf "empty record" 0. (Service.percentile ~p:0.99 []);
  checkf "singleton" 5. (Service.percentile ~p:0.99 [ (5., 1) ]);
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  checkf "p99 of 1..100" 99. (Service.percentile ~p:0.99 (record xs));
  checkf "p50 of 1..100" 50. (Service.percentile ~p:0.5 (record xs));
  checkf "p100 is the max" 100. (Service.percentile ~p:1.0 (record xs));
  checkb "arrival order does not change the record" true
    (record xs = record (List.rev xs));
  checkb "the record is ascending with merged counts" true
    (record [ 30.; 10.; 30.; 20.; 10.; 30. ]
    = [ (10., 2); (20., 1); (30., 3) ]);
  let counted = [ (10., 98); (20., 1); (40., 1) ] in
  checkf "counts weigh the rank" 20. (Service.percentile ~p:0.99 counted);
  checkf "p100 of a counted record" 40. (Service.percentile ~p:1.0 counted)

(* 200 ticks of one busy tenant keep the latency record a handful of
   entries, and 200 refresh groups run directly on a warehouse give the
   same p99 and mean through the record as through the plain list of every
   group's [gr_latencies_ms]. *)
let test_latency_record_bounded () =
  let calm = { base_config with Service.sv_band = 1e9 } in
  let svc = Service.create ~config:calm () in
  ignore
    (Service.add_tenant ~seed:5 ~rate:4. ~config:(Lazy.force design) svc
       schema);
  Service.run svc ~ticks:200;
  let s = Service.stats svc 0 in
  let t = Service.totals svc in
  Service.shutdown svc;
  checkb "record stays under 16 entries" true
    (List.length s.Service.ts_latencies_ms < 16);
  checki "the record counts every batch" s.Service.ts_batches
    (latency_count s);
  checkf "totals p99 reads the record" t.Service.tt_p99_latency_ms
    (Service.percentile ~p:0.99 s.Service.ts_latencies_ms);
  let module Refresh = Vis_maintenance.Refresh in
  let module Warehouse = Vis_maintenance.Warehouse in
  let rng = Random.State.make [| 11 |] in
  let ds = ref (Datagen.generate ~rng schema) in
  let w = Warehouse.build schema (Lazy.force design) !ds in
  let all = ref [] and hist = ref [] in
  for _ = 1 to 200 do
    let batches =
      List.init
        (1 + Random.State.int rng 9)
        (fun _ ->
          let b = Datagen.deltas_evolving ~rng schema !ds in
          ds := Datagen.apply schema !ds b;
          b)
    in
    match Refresh.run_protected_many w batches with
    | Error _ -> Alcotest.fail "fault-free group failed"
    | Ok (_, _, g) ->
        all := !all @ g.Refresh.gr_latencies_ms;
        List.iter
          (fun l -> hist := Service.add_latency (l, 1) !hist)
          g.Refresh.gr_latencies_ms
  done;
  checkb "direct record stays under 16 entries" true (List.length !hist < 16);
  List.iter
    (fun p ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "p%g equals the brute-force list" (100. *. p))
        (brute_percentile ~p !all)
        (Service.percentile ~p !hist))
    [ 0.5; 0.9; 0.99; 1.0 ];
  let n = List.length !all in
  Alcotest.(check (float 0.))
    "mean equals the brute-force list"
    (List.fold_left ( +. ) 0. !all /. float_of_int n)
    (List.fold_left (fun acc (v, c) -> acc +. (v *. float_of_int c)) 0. !hist
    /. float_of_int (List.fold_left (fun acc (_, c) -> acc + c) 0 !hist))

(* A churning daemon tenant's storage follows its live tuples: heap files
   reuse freed slots, so over 120 ticks of 2% inserts and 2% deletes per
   batch (about a quarter of each file per tick) the warehouse's pages stay
   within [slack] of the pages its tables' peak live cardinalities (seen
   between ticks) fill, plus one partly filled tail page per table.  The
   slack covers peaks inside a tick, where a batch's inserts run before
   its deletes.  With append-only heaps the footprint grows with every
   tick served. *)
let test_churning_footprint_bounded () =
  let module Warehouse = Vis_maintenance.Warehouse in
  let module Table = Vis_relalg.Table in
  let module Heap_file = Vis_storage.Heap_file in
  let slack = 1.25 in
  let schema = Vis_workload.Schemas.validation ~base_card:100. ~ins_frac:0.02 ~del_frac:0.02 () in
  let calm = { base_config with Service.sv_band = 1e9 } in
  let svc = Service.create ~config:calm () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown svc)
    (fun () ->
      let id =
        Service.add_tenant ~seed:3 ~rate:12. ~config:(Lazy.force design) svc schema
      in
      let heaps () = Array.map Table.heap (Warehouse.durable_tables (Service.warehouse svc id)) in
      let peak = Array.map Heap_file.n_tuples (heaps ()) in
      for tick = 1 to 120 do
        Service.tick svc;
        let heaps = heaps () in
        let needed = ref 0 in
        Array.iteri
          (fun i h ->
            peak.(i) <- max peak.(i) (Heap_file.n_tuples h);
            let tpp = Heap_file.tuples_per_page h in
            needed := !needed + ((peak.(i) + tpp - 1) / tpp))
          heaps;
        let pages = Warehouse.total_data_pages (Service.warehouse svc id) in
        let bound = int_of_float (slack *. float_of_int !needed) + Array.length heaps in
        if pages > bound then
          Alcotest.failf "tick %d: %d pages, peak live tuples fill %d (bound %d)" tick
            pages !needed bound
      done;
      checki "no swap replaced the warehouse" 0 (Service.stats svc id).Service.ts_swaps)

let test_run_tasks () =
  let pool = Parallel.create ~jobs:4 () in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown pool)
    (fun () ->
      let tasks = Array.init 17 (fun i () -> i * i) in
      let r = Parallel.run_tasks pool tasks in
      Array.iteri (fun i v -> checki "task order preserved" (i * i) v) r)

let () =
  Alcotest.run "service"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "registration" `Quick test_registration;
          Alcotest.test_case "teardown" `Quick test_teardown;
          Alcotest.test_case "ingestion" `Quick test_ingestion;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "ewma" `Quick test_monitor_ewma;
          Alcotest.test_case "band thresholds" `Quick test_monitor_thresholds;
          Alcotest.test_case "empty ticks" `Quick test_monitor_empty_ticks;
          Alcotest.test_case "service trigger" `Quick test_trigger_in_service;
        ] );
      ( "streams",
        [
          Alcotest.test_case "stream determinism" `Quick
            test_stream_determinism;
          Alcotest.test_case "drift edge cases" `Quick test_stream_edge_cases;
          Alcotest.test_case "apply + evolving deltas" `Quick
            test_datagen_apply_and_evolving;
        ] );
      ( "reoptimization",
        [
          Alcotest.test_case "warm start" `Quick test_warm_start;
          Alcotest.test_case "swap preserves content" `Quick
            test_swap_happens_and_preserves_content;
          Alcotest.test_case "rebase after swap" `Quick test_rebase_after_swap;
          Alcotest.test_case "mined re-optimization" `Quick
            test_mined_reoptimization;
          Alcotest.test_case "budget-bounded degradation" `Quick
            test_budget_bounded_degradation;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs bit-identity" `Quick test_jobs_bit_identity;
          Alcotest.test_case "fault isolation" `Quick test_fault_isolation;
          Alcotest.test_case "fault determinism across jobs" `Quick
            test_fault_determinism_across_jobs;
        ] );
      ( "helpers",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "bounded latency record" `Quick
            test_latency_record_bounded;
          Alcotest.test_case "churning footprint bounded" `Quick
            test_churning_footprint_bounded;
          Alcotest.test_case "run_tasks" `Quick test_run_tasks;
        ] );
    ]
