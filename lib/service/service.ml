module Schema = Vis_catalog.Schema
module Config = Vis_costmodel.Config
module Problem = Vis_core.Problem
module Astar = Vis_core.Astar
module Sensitivity = Vis_core.Sensitivity
module Datagen = Vis_workload.Datagen
module Stream = Vis_workload.Stream
module Warehouse = Vis_maintenance.Warehouse
module Refresh = Vis_maintenance.Refresh
module Parallel = Vis_util.Parallel
module Bitset = Vis_util.Bitset

type config = {
  sv_seed : int;
  sv_jobs : int;
  sv_tick_ms : float;
  sv_group : Refresh.group_policy;
  sv_max_attempts : int;
  sv_alpha : float;
  sv_band : float;
  sv_gate : float;
  sv_warmup : int;
  sv_budget : int;
  sv_beam : int option;
  sv_min_gain : float;
  sv_minsup : float option;
  sv_log_queries : int;
  sv_scrub_every : int;
}

let default_config =
  {
    sv_seed = 0;
    sv_jobs = 1;
    sv_tick_ms = 100.;
    sv_group = Refresh.default_group_policy;
    sv_max_attempts = 2;
    sv_alpha = 0.3;
    sv_band = 1.5;
    sv_gate = 1.02;
    sv_warmup = 2;
    sv_budget = 20_000;
    sv_beam = Some 64;
    sv_min_gain = 0.01;
    sv_minsup = None;
    sv_log_queries = 256;
    sv_scrub_every = 0;
  }

type tenant_stats = {
  ts_id : int;
  ts_name : string;
  ts_ticks : int;
  ts_batches : int;
  ts_rows : int;
  ts_groups : int;
  ts_group_syncs : int;
  ts_replayed : int;
  ts_failed : int;
  ts_injected : int;
  ts_rollbacks : int;
  ts_degraded : int;
  ts_io : int;
  ts_wal_syncs : int;
  ts_checks : int;
  ts_gated : int;
  ts_reopts : int;
  ts_bounded : int;
  ts_swaps : int;
  ts_scrubs : int;
  ts_scrub_corrupt : int;
  ts_scrub_rebuilt : int;
  ts_unrecoverable : int;
  ts_opt_factor : float;
  ts_ewma_ratio : float;
  ts_latencies_ms : (float * int) list;
}

type totals = {
  tt_tenants : int;
  tt_ticks : int;
  tt_clock_ms : float;
  tt_batches : int;
  tt_rows : int;
  tt_failed : int;
  tt_reopts : int;
  tt_swaps : int;
  tt_scrubs : int;
  tt_scrub_corrupt : int;
  tt_scrub_rebuilt : int;
  tt_mean_latency_ms : float;
  tt_p99_latency_ms : float;
}

type tenant = {
  tn_id : int;
  tn_name : string;
  tn_schema : Schema.t;
  tn_rate : float;
  tn_drift : Stream.drift;
  tn_faults : Vis_storage.Faults.t option;
  tn_rng : Random.State.t;  (* batch-content draws, advanced only by this
                               tenant's own arrivals *)
  tn_monitor : Monitor.t;
  tn_base_rows : float;  (* expected rows/tick at drift factor 1.0 *)
  mutable tn_config : Config.t;
  mutable tn_opt_factor : float;
  mutable tn_warehouse : Warehouse.t;
  mutable tn_dataset : Datagen.dataset;  (* logical mirror of the stored
                                            bases, for swap rebuilds *)
  mutable tn_pending : Datagen.batch list;
  (* counters *)
  mutable c_ticks : int;
  mutable c_batches : int;
  mutable c_rows : int;
  mutable c_groups : int;
  mutable c_group_syncs : int;
  mutable c_replayed : int;
  mutable c_failed : int;
  mutable c_injected : int;
  mutable c_rollbacks : int;
  mutable c_degraded : int;
  mutable c_io : int;
  mutable c_wal_syncs : int;
  mutable c_checks : int;
  mutable c_gated : int;
  mutable c_reopts : int;
  mutable c_bounded : int;
  mutable c_swaps : int;
  mutable c_scrubs : int;
  mutable c_scrub_corrupt : int;
  mutable c_scrub_rebuilt : int;
  mutable c_unrecoverable : int;
  mutable c_latencies : (float * int) list;
}

type t = {
  cfg : config;
  pool : Parallel.pool;
  mutable tenants : tenant list;  (* live, ascending id *)
  mutable retired : tenant_stats list;
  mutable next_id : int;
  mutable ticks : int;
}

let create ?(config = default_config) () =
  if config.sv_jobs < 1 then invalid_arg "Service.create: sv_jobs < 1";
  if config.sv_band <= 1. then invalid_arg "Service.create: sv_band <= 1";
  if config.sv_scrub_every < 0 then
    invalid_arg "Service.create: sv_scrub_every < 0";
  {
    cfg = config;
    pool = Parallel.create ~jobs:config.sv_jobs ();
    tenants = [];
    retired = [];
    next_id = 0;
    ticks = 0;
  }

let config t = t.cfg
let n_tenants t = List.length t.tenants
let tenant_ids t = List.map (fun tn -> tn.tn_id) t.tenants

let find t id =
  match List.find_opt (fun tn -> tn.tn_id = id) t.tenants with
  | Some tn -> tn
  | None -> raise Not_found

(* Expected delta rows one batch carries at drift factor 1.0 — the same
   rounding [Datagen] applies when drawing. *)
let rows_per_batch schema =
  let n = Schema.n_relations schema in
  let total = ref 0. in
  for rel = 0 to n - 1 do
    let d = Schema.delta schema rel in
    total :=
      !total
      +. Float.round d.Schema.n_ins
      +. Float.round d.Schema.n_del
      +. Float.round d.Schema.n_upd
  done;
  !total

let add_tenant ?name ?seed ?(rate = 2.0) ?(drift = Stream.Constant) ?faults
    ?config t schema =
  if rate < 0. then invalid_arg "Service.add_tenant: rate < 0";
  let id = t.next_id in
  t.next_id <- id + 1;
  let name =
    match name with Some n -> n | None -> Printf.sprintf "tenant-%d" id
  in
  let seed = match seed with Some s -> s | None -> id in
  let dataset = Datagen.generate ~rng:(Random.State.make [| seed |]) schema in
  let design =
    match config with
    | Some c -> c
    | None ->
        let r, _ =
          Astar.search_budgeted ~max_expanded:t.cfg.sv_budget
            ?beam:t.cfg.sv_beam ~jobs:t.cfg.sv_jobs (Problem.make schema)
        in
        r.Astar.best
  in
  let warehouse =
    Warehouse.build ~checksums:(t.cfg.sv_scrub_every > 0) schema design dataset
  in
  let base_rows = rate *. rows_per_batch schema in
  let tn =
    {
      tn_id = id;
      tn_name = name;
      tn_schema = schema;
      tn_rate = rate;
      tn_drift = drift;
      tn_faults = faults;
      tn_rng = Random.State.make [| t.cfg.sv_seed; seed; 0x7e4a47 |];
      tn_monitor =
        Monitor.create ~alpha:t.cfg.sv_alpha
          ~reference:(Float.max 1e-6 base_rows);
      tn_base_rows = base_rows;
      tn_config = design;
      tn_opt_factor = 1.;
      tn_warehouse = warehouse;
      tn_dataset = dataset;
      tn_pending = [];
      c_ticks = 0;
      c_batches = 0;
      c_rows = 0;
      c_groups = 0;
      c_group_syncs = 0;
      c_replayed = 0;
      c_failed = 0;
      c_injected = 0;
      c_rollbacks = 0;
      c_degraded = 0;
      c_io = 0;
      c_wal_syncs = 0;
      c_checks = 0;
      c_gated = 0;
      c_reopts = 0;
      c_bounded = 0;
      c_swaps = 0;
      c_scrubs = 0;
      c_scrub_corrupt = 0;
      c_scrub_rebuilt = 0;
      c_unrecoverable = 0;
      c_latencies = [];
    }
  in
  t.tenants <- t.tenants @ [ tn ];
  id

(* Batch latencies are kept as an ascending (latency, count) record rather
   than one entry per batch: simulated latencies are whole multiples of the
   group clock's batch interval, so the record stays a handful of entries
   however long the daemon runs, and nearest-rank percentiles and means
   over it equal those over the expanded list exactly. *)
let rec add_latency ((l, n) as obs) = function
  | [] -> [ obs ]
  | (v, c) :: rest when v = l -> (v, c + n) :: rest
  | ((v, _) as entry) :: rest when v < l -> entry :: add_latency obs rest
  | hist -> obs :: hist

let snapshot tn =
  {
    ts_id = tn.tn_id;
    ts_name = tn.tn_name;
    ts_ticks = tn.c_ticks;
    ts_batches = tn.c_batches;
    ts_rows = tn.c_rows;
    ts_groups = tn.c_groups;
    ts_group_syncs = tn.c_group_syncs;
    ts_replayed = tn.c_replayed;
    ts_failed = tn.c_failed;
    ts_injected = tn.c_injected;
    ts_rollbacks = tn.c_rollbacks;
    ts_degraded = tn.c_degraded;
    ts_io = tn.c_io;
    ts_wal_syncs = tn.c_wal_syncs;
    ts_checks = tn.c_checks;
    ts_gated = tn.c_gated;
    ts_reopts = tn.c_reopts;
    ts_bounded = tn.c_bounded;
    ts_swaps = tn.c_swaps;
    ts_scrubs = tn.c_scrubs;
    ts_scrub_corrupt = tn.c_scrub_corrupt;
    ts_scrub_rebuilt = tn.c_scrub_rebuilt;
    ts_unrecoverable = tn.c_unrecoverable;
    ts_opt_factor = tn.tn_opt_factor;
    ts_ewma_ratio = Monitor.ratio tn.tn_monitor;
    ts_latencies_ms = tn.c_latencies;
  }

let stats t id = snapshot (find t id)
let incumbent t id = (find t id).tn_config
let warehouse t id = (find t id).tn_warehouse
let signature t id = Warehouse.signature (find t id).tn_warehouse

let logical_signature t id =
  Warehouse.logical_signature (find t id).tn_warehouse

let table_rows tbl =
  let acc = ref [] in
  Vis_storage.Heap_file.scan (Vis_relalg.Table.heap tbl) ~f:(fun _rid tuple ->
      acc := tuple :: !acc);
  List.rev !acc

let core_digest t id =
  let w = (find t id).tn_warehouse in
  let buf = Buffer.create 4096 in
  let add_table tag tbl =
    Buffer.add_string buf tag;
    List.iter
      (fun tuple ->
        Array.iter
          (fun v ->
            Buffer.add_string buf (string_of_int v);
            Buffer.add_char buf ',')
          tuple;
        Buffer.add_char buf ';')
      (List.sort compare (table_rows tbl))
  in
  Array.iteri
    (fun i tbl -> add_table (Printf.sprintf "base%d:" i) tbl)
    w.Warehouse.w_bases;
  let all = Schema.all_relations w.Warehouse.w_schema in
  (match
     List.find_opt (fun (set, _) -> Bitset.equal set all) w.Warehouse.w_views
   with
  | Some (_, tbl) -> add_table "primary:" tbl
  | None -> ());
  Digest.to_hex (Digest.string (Buffer.contents buf))

let remove_tenant t id =
  let tn = find t id in
  let s = snapshot tn in
  t.tenants <- List.filter (fun tn -> tn.tn_id <> id) t.tenants;
  t.retired <- s :: t.retired;
  s

(* Resynchronize the logical mirror from the stored bases after a failed
   group run: a durable prefix legitimately survives an [Error] stream, so
   the optimistic mirror (all batches applied) is re-read from the engine.
   Heap scan order is key-ascending — initial load and every insert append
   in key order; deletes only leave gaps — so the mirror invariant holds.
   [ds_next_key] keeps its high-water mark: rolled-back inserts burnt their
   keys, and reusing a key could collide with a later replay. *)
let resync_mirror tn =
  let tuples = Array.map table_rows tn.tn_warehouse.Warehouse.w_bases in
  tn.tn_dataset <-
    {
      Datagen.ds_tuples = tuples;
      ds_next_key = Array.copy tn.tn_dataset.Datagen.ds_next_key;
    }

let absorb tn outcome =
  tn.c_groups <- tn.c_groups + 1;
  match outcome with
  | Ok (report, fstats, gstats) ->
      tn.c_io <- tn.c_io + Refresh.total_io report;
      tn.c_wal_syncs <- tn.c_wal_syncs + report.Refresh.rp_wal_syncs;
      tn.c_group_syncs <- tn.c_group_syncs + gstats.Refresh.gr_group_syncs;
      tn.c_replayed <- tn.c_replayed + gstats.Refresh.gr_replayed;
      tn.c_injected <- tn.c_injected + fstats.Refresh.fs_injected;
      tn.c_rollbacks <- tn.c_rollbacks + fstats.Refresh.fs_rollbacks;
      if fstats.Refresh.fs_degraded then tn.c_degraded <- tn.c_degraded + 1;
      List.iter
        (fun l -> tn.c_latencies <- add_latency (l, 1) tn.c_latencies)
        gstats.Refresh.gr_latencies_ms
  | Error e ->
      tn.c_failed <- tn.c_failed + 1;
      tn.c_injected <- tn.c_injected + e.Refresh.err_stats.Refresh.fs_injected;
      tn.c_rollbacks <-
        tn.c_rollbacks + e.Refresh.err_stats.Refresh.fs_rollbacks;
      if e.Refresh.err_stats.Refresh.fs_degraded then
        tn.c_degraded <- tn.c_degraded + 1;
      resync_mirror tn

(* The monitor-and-re-optimize phase for one tenant, on the coordinator.
   The drifted-rate estimate comes from the EWMA: [ratio × opt_factor] is
   the drift factor the observations imply, since the reference rate
   corresponds to [opt_factor].  All searches are budgeted and bit-identical
   at any [jobs], so this phase cannot break jobs-determinism. *)
let reoptimize t tn =
  let cfg = t.cfg in
  tn.c_checks <- tn.c_checks + 1;
  let est =
    Float.min 50.
      (Float.max 0.05 (Monitor.ratio tn.tn_monitor *. tn.tn_opt_factor))
  in
  let drifted = Schema.scale_deltas tn.tn_schema est in
  (* Workload-driven rung of the ladder: before the budgeted search, mine
     the tenant's recent query history (a deterministic synthetic log keyed
     by seed, tenant and current tick — the same determinism contract as
     the arrival stream) so re-optimization searches a
     workload-proportional candidate set.  Off ([sv_minsup = None]) the
     problem is the exhaustive one, bit-identical to the pre-mining
     daemon.  An incumbent using features outside the mined space simply
     fails [valid_config] and falls through to the search, where the
     invalid warm start is ignored — still deterministic in (seed, jobs). *)
  let p =
    match cfg.sv_minsup with
    | None -> Problem.make drifted
    | Some minsup ->
        let seed =
          (cfg.sv_seed * 1_000_003) + (tn.tn_id * 1_009) + t.ticks
        in
        let log =
          Vis_workload.Querygen.generate ~seed ~n:cfg.sv_log_queries drifted
        in
        let m = Vis_workload.Miner.mine ~minsup drifted log in
        Problem.make ~candidates:m.Vis_workload.Miner.m_candidates drifted
  in
  if
    Problem.valid_config p tn.tn_config
    && Sensitivity.probe p ~incumbent:tn.tn_config <= cfg.sv_gate
  then tn.c_gated <- tn.c_gated + 1
  else begin
    tn.c_reopts <- tn.c_reopts + 1;
    let r, cert =
      Astar.search_budgeted ~max_expanded:cfg.sv_budget ?beam:cfg.sv_beam
        ~jobs:cfg.sv_jobs ~warm_start:tn.tn_config p
    in
    (match cert with
    | Astar.Bounded _ -> tn.c_bounded <- tn.c_bounded + 1
    | Astar.Optimal -> ());
    let inc_cost = Problem.total p tn.tn_config in
    if
      r.Astar.best_cost < inc_cost *. (1. -. cfg.sv_min_gain)
      && not (Config.equal r.Astar.best tn.tn_config)
    then begin
      (* Swap between refresh groups: rebuild the warehouse from the
         logical mirror under the new design.  No group is in flight
         (phase 2 finished), so no batch ever runs against a half-swapped
         configuration, and the mirror guarantees the bases and primary
         view carry exactly the stream's contents across the swap. *)
      tn.tn_warehouse <-
        Warehouse.build ~checksums:(cfg.sv_scrub_every > 0) drifted
          r.Astar.best tn.tn_dataset;
      tn.tn_config <- r.Astar.best;
      tn.tn_opt_factor <- est;
      Monitor.rebase tn.tn_monitor
        ~reference:(Float.max 1e-6 (tn.tn_base_rows *. est));
      tn.c_swaps <- tn.c_swaps + 1
    end
  end

let tick t =
  t.ticks <- t.ticks + 1;
  let tick_no = t.ticks in
  (* Phase 1 — arrivals, sequential in tenant order.  Every RNG draw here
     is keyed to the tenant (arrival counts) or private to it (contents),
     so the phase is a pure function of (seed, tenants, tick). *)
  let rows_this_tick = Hashtbl.create 8 in
  List.iter
    (fun tn ->
      tn.c_ticks <- tn.c_ticks + 1;
      let k =
        Stream.arrivals ~seed:t.cfg.sv_seed ~tenant:tn.tn_id ~tick:tick_no
          ~mean:tn.tn_rate
      in
      let d = Stream.drift_factor tn.tn_drift ~tick:tick_no in
      let sch =
        if d = 1. then tn.tn_schema else Schema.scale_deltas tn.tn_schema d
      in
      let batches = ref [] in
      let rows = ref 0 in
      for _ = 1 to k do
        let b = Datagen.deltas_evolving ~rng:tn.tn_rng sch tn.tn_dataset in
        tn.tn_dataset <- Datagen.apply tn.tn_schema tn.tn_dataset b;
        rows := !rows + Datagen.batch_rows b;
        batches := b :: !batches
      done;
      tn.tn_pending <- List.rev !batches;
      tn.c_batches <- tn.c_batches + k;
      tn.c_rows <- tn.c_rows + !rows;
      Hashtbl.replace rows_this_tick tn.tn_id !rows)
    t.tenants;
  (* Phase 2 — refresh, one pool task per tenant with work.  Tenants share
     no storage state, so the tasks mutate disjoint structures; results
     come back in tenant order whatever the pool width. *)
  let work =
    Array.of_list (List.filter (fun tn -> tn.tn_pending <> []) t.tenants)
  in
  let outcomes =
    Parallel.run_tasks t.pool
      (Array.map
         (fun tn () ->
           Refresh.run_protected_many ?faults:tn.tn_faults
             ~max_attempts:t.cfg.sv_max_attempts ~policy:t.cfg.sv_group
             tn.tn_warehouse tn.tn_pending)
         work)
  in
  Array.iteri
    (fun i tn ->
      absorb tn outcomes.(i);
      tn.tn_pending <- [])
    work;
  (* Phase 3 — monitor and re-optimize, sequential in tenant order. *)
  List.iter
    (fun tn ->
      let rows =
        match Hashtbl.find_opt rows_this_tick tn.tn_id with
        | Some r -> float_of_int r
        | None -> 0.
      in
      Monitor.observe tn.tn_monitor rows;
      if
        tn.c_ticks > t.cfg.sv_warmup
        && Monitor.drifted tn.tn_monitor ~band:t.cfg.sv_band
      then reoptimize t tn)
    t.tenants;
  (* Phase 4 — scrub rung, sequential in tenant order every
     [sv_scrub_every] ticks.  The daemon never dies on damage it cannot
     repair: unrecoverable base pages are counted and left quarantined
     (reads of those pages no longer raise), so healthy tenants keep
     being served. *)
  if t.cfg.sv_scrub_every > 0 && tick_no mod t.cfg.sv_scrub_every = 0 then
    List.iter
      (fun tn ->
        let r = Warehouse.scrub ~fail_unrecoverable:false tn.tn_warehouse in
        tn.c_scrubs <- tn.c_scrubs + 1;
        tn.c_scrub_corrupt <- tn.c_scrub_corrupt + r.Warehouse.sc_corrupt;
        tn.c_scrub_rebuilt <-
          tn.c_scrub_rebuilt + r.Warehouse.sc_views_rebuilt
          + r.Warehouse.sc_indexes_rebuilt;
        tn.c_unrecoverable <-
          tn.c_unrecoverable + List.length r.Warehouse.sc_unrecoverable)
      t.tenants

let run t ~ticks =
  for _ = 1 to ticks do
    tick t
  done

let percentile ~p hist =
  let n = List.fold_left (fun acc (_, c) -> acc + c) 0 hist in
  let rank =
    int_of_float (Float.ceil (Float.max 0. (Float.min 1. p) *. float_of_int n))
  in
  (* The value at 0-based sorted position [idx] of the expanded list. *)
  let idx = Int.max 0 (Int.min (n - 1) (rank - 1)) in
  let rec walk seen = function
    | [] -> 0.
    | (v, c) :: rest -> if idx < seen + c then v else walk (seen + c) rest
  in
  walk 0 hist

let totals t =
  let live = List.map snapshot t.tenants in
  let all = live @ t.retired in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 all in
  let latencies =
    List.fold_left
      (fun acc s -> List.fold_right add_latency s.ts_latencies_ms acc)
      [] all
  in
  let n_lat = List.fold_left (fun acc (_, c) -> acc + c) 0 latencies in
  let sum_lat =
    List.fold_left (fun acc (v, c) -> acc +. (v *. float_of_int c)) 0. latencies
  in
  {
    tt_tenants = t.next_id;
    tt_ticks = t.ticks;
    tt_clock_ms = float_of_int t.ticks *. t.cfg.sv_tick_ms;
    tt_batches = sum (fun s -> s.ts_batches);
    tt_rows = sum (fun s -> s.ts_rows);
    tt_failed = sum (fun s -> s.ts_failed);
    tt_reopts = sum (fun s -> s.ts_reopts);
    tt_swaps = sum (fun s -> s.ts_swaps);
    tt_scrubs = sum (fun s -> s.ts_scrubs);
    tt_scrub_corrupt = sum (fun s -> s.ts_scrub_corrupt);
    tt_scrub_rebuilt = sum (fun s -> s.ts_scrub_rebuilt);
    tt_mean_latency_ms =
      (if n_lat = 0 then 0. else sum_lat /. float_of_int n_lat);
    tt_p99_latency_ms = percentile ~p:0.99 latencies;
  }

let tenant_stats_json s =
  let module Json = Vis_util.Json in
  Json.Obj
    [
      ("id", Json.Int s.ts_id);
      ("name", Json.String s.ts_name);
      ("batches", Json.Int s.ts_batches);
      ("rows", Json.Int s.ts_rows);
      ("groups", Json.Int s.ts_groups);
      ("group_syncs", Json.Int s.ts_group_syncs);
      ("replayed", Json.Int s.ts_replayed);
      ("failed", Json.Int s.ts_failed);
      ("injected", Json.Int s.ts_injected);
      ("rollbacks", Json.Int s.ts_rollbacks);
      ("degraded", Json.Int s.ts_degraded);
      ("io", Json.Int s.ts_io);
      ("checks", Json.Int s.ts_checks);
      ("gated", Json.Int s.ts_gated);
      ("reopts", Json.Int s.ts_reopts);
      ("bounded", Json.Int s.ts_bounded);
      ("swaps", Json.Int s.ts_swaps);
      ("scrubs", Json.Int s.ts_scrubs);
      ("scrub_corrupt", Json.Int s.ts_scrub_corrupt);
      ("scrub_rebuilt", Json.Int s.ts_scrub_rebuilt);
      ("unrecoverable", Json.Int s.ts_unrecoverable);
      ("opt_factor", Json.Float s.ts_opt_factor);
      ("ewma_ratio", Json.Float s.ts_ewma_ratio);
      ("p99_latency_sim_ms", Json.Float (percentile ~p:0.99 s.ts_latencies_ms));
    ]

let shutdown t = Parallel.shutdown t.pool
