(* The three benchmark workloads.  Each is a closed loop driven by one
   client: the next operation starts when the previous one returns.  The
   benchmark times the library's public calls from outside; it does not
   instrument the library. *)

open Vis_core
module Json = Vis_util.Json
module Cost = Vis_costmodel.Cost
module Config = Vis_costmodel.Config
module Querygen = Vis_workload.Querygen
module Miner = Vis_workload.Miner
module Warehouse = Vis_maintenance.Warehouse
module Refresh = Vis_maintenance.Refresh
module Validate = Vis_maintenance.Validate
module Table = Vis_relalg.Table
module Exec = Vis_relalg.Exec
module Iostats = Vis_storage.Iostats
module Buffer_pool = Vis_storage.Buffer_pool
module Btree = Vis_storage.Btree
module Heap_file = Vis_storage.Heap_file
module Wal = Vis_storage.Wal
module Service = Vis_service.Service
module I = Pb_inputs

let now = Unix.gettimeofday

(* Worker-pool width of the timed loops.  On a 2-vCPU host shared with
   other tenants, jobs 2 doubled the run-to-run spread (serve p90: 0.32 of
   the median over ten seeds, against 0.06 at jobs 1), beyond any bound a
   regression gate can use.  The traced run replays the same work at
   [parallel_jobs] and reports the ratio as [parallel.speedup]. *)
let jobs = 1

let parallel_jobs = 2

(* ---- metric names -------------------------------------------------- *)

(* Per-layer metrics printed by a traced run.  A metric whose layer the
   workload does not exercise reads 0. *)
let per_layer =
  [
    ("problem.make_ms", "ms");
    ("astar.search_ms", "ms");
    ("astar.expanded", "count");
    ("astar.generated", "count");
    ("astar.cost_evaluations", "count");
    ("astar.us_per_expansion.packed", "us");
    ("astar.us_per_expansion.structural", "us");
    ("astar.phase.prepare_ms", "ms");
    ("astar.phase.greedy_seed_ms", "ms");
    ("astar.phase.search_ms", "ms");
    ("cost.memo_hit_rate", "ratio");
    ("cost.derivations", "count");
    ("cost.eval_cold_us", "us");
    ("cost.eval_warm_us", "us");
    ("miner.mine_ms", "ms");
    ("astar.optimal_frac", "ratio");
    ("astar.design_cost_sum", "page_io");
    ("buffer_pool.hit_rate", "ratio");
    ("buffer_pool.evictions_per_row", "count/row");
    ("iostats.page_io_per_row", "count/row");
    ("checksum.verifications_per_row", "count/row");
    ("checksum.verify_us", "us");
    ("wal.syncs_per_group", "count/group");
    ("wal.records_per_row", "count/row");
    ("wal.bytes_per_row", "B/row");
    ("btree.lookup_us", "us");
    ("heap_file.scan_us_per_page", "us/page");
    ("exec.index_scan_us", "us");
    ("warehouse.build_ms", "ms");
    ("service.tick_refresh_ms_p50", "ms");
    ("service.tick_reopt_ms_p50", "ms");
    ("service.reopt_tick_share", "ratio");
    ("service.reopts", "count");
    ("service.swaps", "count");
    ("service.gated", "count");
    ("service.rows_per_tick", "count");
    ("service.ticks_over_period", "count");
    ("parallel.speedup", "ratio");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections", "count");
    ("trace.overhead_frac", "ratio");
  ]

(* ---- results ------------------------------------------------------- *)

(* An untraced run reports its raw latencies and useful work; run.py pools
   them over the run's processes into the end-to-end metrics.  A traced run
   reports the per-layer metrics. *)
type result = {
  attempted : int;
  failed : int;
  correct : bool;
  latencies : float array;  (** wall seconds per timed operation *)
  work : float;  (** useful work of the timed operations *)
  metrics : (string * float) list;
  info : (string * Json.t) list;  (** context printed beside the metrics *)
}

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int
let sum = Array.fold_left ( +. ) 0.

(* Nearest-rank percentile. *)
let percentile p a =
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let s = Array.copy a in
    Array.sort compare s;
    s.(max 0 (min (n - 1) (int_of_float (ceil (p *. fi n)) - 1)))
  end

(* Peak resident set of this process, in MB. *)
let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec go () =
            match In_channel.input_line ic with
            | None -> None
            | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
                Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                    Some (fi kb /. 1024.))
            | Some _ -> go ()
          in
          go ())
    with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> None
  in
  match from_proc with
  | Some mb -> mb
  | None -> fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Allocation and collection counts over [f]. *)
let with_gc f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  (r, g1.Gc.minor_words -. g0.Gc.minor_words, g1.Gc.major_collections - g0.Gc.major_collections)

let gc_metrics ~ops ~minor ~major =
  [ ("gc.minor_words_per_op", ratio minor (fi ops)); ("gc.major_collections", fi major) ]

(* Whether to start another unit of work (a block of requests, an
   episode): only while it should end within half a unit of the deadline,
   judging by the mean of the [units] done since [t0]. *)
let another ~t0 ~seconds ~units =
  let elapsed = now () -. t0 in
  units = 0 || elapsed +. (elapsed /. fi units /. 2.) < seconds

(* Mean seconds of a call, over [n] calls. *)
let time_per n f =
  let t0 = now () in
  for i = 0 to n - 1 do
    f i
  done;
  ratio (now () -. t0) (fi n)

let dump_trace ~out ~name tr =
  (try Sys.mkdir out 0o755 with Sys_error _ -> ());
  let path = Filename.concat out (name ^ ".spans.json") in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string (Pb_trace.report_json tr));
      output_char oc '\n');
  prerr_string (Pb_trace.render_self_times tr);
  prerr_endline ("span dump: " ^ path)

(* Setup protocol shared by the workloads: [ready gen_s] marks the end of
   set-up; [gen_s] is the input-generation time spent before it, which
   run.py subtracts from the set-up time it measures from outside. *)
type ctx = { seed : int; seconds : float; ready : float -> unit }

(* ---- advise -------------------------------------------------------- *)

(* A design request: mine (for mined requests), make, search. *)
type answer = {
  an_problem : Problem.t;
  an_result : Astar.result;
  an_cert : Astar.certificate;
}

let beam = 64

(* Expansion budget: most small problems finish within it; the star
   classes stop after their first exchange rounds. *)
let max_expanded = function I.Small -> 1000 | I.Packed | I.Mined | I.Structural -> 300

(* At 0.15 the mined star-7 problems keep 18-21 features, below the 32 at
   which A* shards; at the miner's default 0.1 a fifth of them keep 36 and
   take four times as long. *)
let minsup = 0.15

let design_request ?(jobs = jobs) tr (rq : I.request) =
  let span name f = Pb_trace.span tr ~request:rq.I.rq_id name f in
  span "request" (fun () ->
      let candidates =
        match rq.I.rq_class with
        | I.Mined ->
            span "mine" (fun () ->
                let log = Querygen.generate ~seed:rq.I.rq_log_seed rq.I.rq_schema in
                Some (Miner.mine ~minsup rq.I.rq_schema log).Miner.m_candidates)
        | I.Small | I.Packed | I.Structural -> None
      in
      let p =
        span "make" (fun () ->
            Problem.make ~connected_only:rq.I.rq_connected_only
              ?max_view_rels:rq.I.rq_max_view_rels ?candidates rq.I.rq_schema)
      in
      let r, cert =
        span "search" (fun () -> Astar.search_budgeted ~max_expanded:(max_expanded rq.I.rq_class) ~beam ~jobs p)
      in
      { an_problem = p; an_result = r; an_cert = cert })

let same_cost a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b)

(* Exhaustive search takes about 2 KB per state (chain-3's 622k states:
   27 s and 1.2 GB); beyond this many states it would set the process's
   peak memory. *)
let exhaustive_states = 5_000.

(* Output checks; [exhaustive] also compares a small [Optimal] answer with
   exhaustive search. *)
let check_answer ~exhaustive rq a =
  let p = a.an_problem and r = a.an_result in
  let best = r.Astar.best in
  Problem.valid_config p best
  && same_cost r.Astar.best_cost (Cost.total_of p.Problem.derived best)
  &&
  match (rq.I.rq_class, a.an_cert) with
  | I.Small, Astar.Optimal when exhaustive && Exhaustive.count_states p <= exhaustive_states ->
      same_cost (Exhaustive.search ~jobs:1 p).Exhaustive.best_cost r.Astar.best_cost
  | _ -> true

let advise_blocks = 32

type advise_state = {
  blocks : I.request array array;
  checked : (int, unit) Hashtbl.t;  (** requests already compared with exhaustive *)
  mutable failed : int;
}

let advise_check st rq a =
  let exhaustive = not (Hashtbl.mem st.checked rq.I.rq_id) in
  Hashtbl.replace st.checked rq.I.rq_id ();
  if not (check_answer ~exhaustive rq a) then st.failed <- st.failed + 1

(* Runs whole blocks until [stop] holds; returns per-request latencies. *)
let advise_loop st tr ~first_block ~stop ~on_answer =
  let lat = ref [] in
  let b = ref first_block in
  while not (stop !b) do
    Array.iter
      (fun rq ->
        let t0 = now () in
        let a = design_request tr rq in
        lat := (now () -. t0) :: !lat;
        advise_check st rq a;
        on_answer rq a)
      st.blocks.(!b mod Array.length st.blocks);
    incr b
  done;
  Array.of_list (List.rev !lat)

let advise_setup ctx =
  let t0 = now () in
  let blocks = I.advise_requests ~seed:ctx.seed ~blocks:advise_blocks in
  (* Every request carries its own set-up; there is none to do here. *)
  ctx.ready (now () -. t0);
  { blocks; checked = Hashtbl.create 256; failed = 0 }

let advise_run ctx st =
  let tr = Pb_trace.create () in
  let t0 = now () in
  let lat =
    advise_loop st tr ~first_block:0
      ~stop:(fun b -> not (another ~t0 ~seconds:ctx.seconds ~units:b))
      ~on_answer:(fun _ _ -> ())
  in
  let cls = Array.concat (Array.to_list (Array.map (Array.map (fun r -> r.I.rq_class)) st.blocks)) in
  let nth_class p =
    (* the class of the request at the p-th latency rank *)
    let idx = Array.init (Array.length lat) Fun.id in
    Array.sort (fun i j -> compare lat.(i) lat.(j)) idx;
    let n = Array.length lat in
    let k = idx.(max 0 (min (n - 1) (int_of_float (ceil (p *. fi n)) - 1))) in
    I.class_name cls.(k mod Array.length cls)
  in
  {
    attempted = Array.length lat;
    failed = st.failed;
    correct = st.failed = 0;
    latencies = lat;
    work = fi (Array.length lat);
    metrics = [ ("peak_rss_mb", peak_rss_mb ()) ];
    info =
      [
        ("samples", Json.Int (Array.length lat));
        ("p50_class", Json.String (nth_class 0.5));
        ("p90_class", Json.String (nth_class 0.9));
      ];
  }

(* Traced run: the same [k] blocks untraced, traced, and untraced at
   [parallel_jobs] (for the parallel speedup), then probes. *)
let advise_trace ctx st ~out =
  let k = max 1 (int_of_float (ctx.seconds /. 12.)) in
  let stop b = b >= k in
  let quiet = Pb_trace.create () in
  let lat_u, minor, major =
    with_gc (fun () -> advise_loop st quiet ~first_block:0 ~stop ~on_answer:(fun _ _ -> ()))
  in
  let tr = Pb_trace.create () in
  tr.Pb_trace.enabled <- true;
  let answers = ref [] in
  let lat_t =
    advise_loop st tr ~first_block:0 ~stop ~on_answer:(fun rq a -> answers := (rq, a) :: !answers)
  in
  tr.Pb_trace.enabled <- false;
  let answers = List.rev !answers in
  let n = fi (List.length answers) in
  let per_req f = ratio (List.fold_left (fun acc (rq, a) -> acc +. f rq a) 0. answers) n in
  let ss a = a.an_result.Astar.search_stats in
  let phase name a =
    Option.value ~default:0. (List.assoc_opt name (Search_stats.phase_timings (ss a)))
  in
  (* Per-class A* time per expansion, from the search spans. *)
  let search_times = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.Pb_trace.sp_name = "search" then
        Hashtbl.replace search_times s.Pb_trace.sp_request (s.Pb_trace.sp_stop -. s.Pb_trace.sp_start))
    (Pb_trace.spans tr);
  let us_per_expansion pred =
    let t, e =
      List.fold_left
        (fun (t, e) (rq, a) ->
          if pred a then
            ( t +. Option.value ~default:0. (Hashtbl.find_opt search_times rq.I.rq_id),
              e + a.an_result.Astar.stats.Astar.expanded )
          else (t, e))
        (0., 0) answers
    in
    1e6 *. ratio t (fi e)
  in
  let packed a = a.an_problem.Problem.encoding <> None in
  let hits, misses =
    List.fold_left
      (fun (h, m) (_, a) ->
        let cs = Cost.cache_stats a.an_problem.Problem.cache in
        (h + cs.Cost.cs_hits, m + cs.Cost.cs_misses))
      (0, 0) answers
  in
  let mined = List.filter (fun (rq, _) -> rq.I.rq_class = I.Mined) answers in
  (* Quality guards over block 0, which every run executes. *)
  let block0 = List.filter (fun (rq, _) -> rq.I.rq_id < I.block_size) answers in
  let cold =
    per_req (fun _ a ->
        let p = a.an_problem and best = a.an_result.Astar.best in
        time_per 3 (fun _ -> ignore (Cost.total_of ~cache:(Cost.new_cache ()) p.Problem.derived best)))
  in
  let warm =
    per_req (fun _ a ->
        let p = a.an_problem and best = a.an_result.Astar.best in
        time_per 20 (fun _ -> ignore (Problem.total p best)))
  in
  let t_parallel =
    let t0 = now () in
    Array.iter
      (Array.iter (fun rq -> ignore (design_request ~jobs:parallel_jobs quiet rq)))
      (Array.sub st.blocks 0 k);
    now () -. t0
  in
  dump_trace ~out ~name:(Printf.sprintf "advise-seed%d" ctx.seed) tr;
  let metrics =
    [
      ("problem.make_ms", 1000. *. ratio (Pb_trace.total tr "make") n);
      ("astar.search_ms", 1000. *. ratio (Pb_trace.total tr "search") n);
      ("astar.expanded", per_req (fun _ a -> fi a.an_result.Astar.stats.Astar.expanded));
      ("astar.generated", per_req (fun _ a -> fi a.an_result.Astar.stats.Astar.generated));
      ("astar.cost_evaluations", per_req (fun _ a -> fi (Search_stats.evaluated (ss a))));
      ("astar.us_per_expansion.packed", us_per_expansion packed);
      ("astar.us_per_expansion.structural", us_per_expansion (fun a -> not (packed a)));
      ("astar.phase.prepare_ms", 1000. *. per_req (fun _ a -> phase "prepare" a));
      ("astar.phase.greedy_seed_ms", 1000. *. per_req (fun _ a -> phase "greedy-seed" a));
      ("astar.phase.search_ms", 1000. *. per_req (fun _ a -> phase "search" a));
      ("cost.memo_hit_rate", ratio (fi hits) (fi (hits + misses)));
      ("cost.derivations", ratio (fi misses) n);
      ("cost.eval_cold_us", 1e6 *. cold);
      ("cost.eval_warm_us", 1e6 *. warm);
      ("miner.mine_ms", 1000. *. ratio (Pb_trace.total tr "mine") (fi (List.length mined)));
      ( "astar.optimal_frac",
        ratio
          (fi (List.length (List.filter (fun (_, a) -> a.an_cert = Astar.Optimal) block0)))
          (fi (List.length block0)) );
      ( "astar.design_cost_sum",
        List.fold_left (fun acc (_, a) -> acc +. a.an_result.Astar.best_cost) 0. block0 );
      ("parallel.speedup", ratio (sum lat_u) t_parallel);
      ("trace.overhead_frac", ratio (sum lat_t -. sum lat_u) (sum lat_u));
    ]
    @ gc_metrics ~ops:(Array.length lat_u) ~minor ~major
  in
  {
    attempted = Array.length lat_u + Array.length lat_t;
    failed = st.failed;
    correct = st.failed = 0;
    latencies = [||];
    work = 0.;
    metrics;
    info = [ ("blocks", Json.Int k); ("requests", Json.Int (Array.length lat_t)) ];
  }

(* ---- ingest -------------------------------------------------------- *)

(* Groups per episode.  Every episode rebuilds the warehouse from the same
   base data and replays the same groups, so each run sees the same mix. *)
let ingest_groups = 60

type ingest_state = {
  inp : I.ingest;
  design : Config.t;
  mutable wh : Warehouse.t;
  pages_built : int;  (** data pages right after a build *)
  mutable build_s : float list;
  mutable failed : int;
  mutable checks_ok : bool;
}

let ingest_design schema =
  let p = Problem.make ~connected_only:true ~max_view_rels:3 schema in
  let r, _ = Astar.search_budgeted ~max_expanded:20_000 ~beam ~jobs p in
  r.Astar.best

let ingest_setup ctx =
  let t0 = now () in
  let schema, _, data = I.ingest_data ~seed:ctx.seed in
  let gen0 = now () -. t0 in
  let design = ingest_design schema in
  let t1 = now () in
  let wh = Warehouse.build ~checksums:true schema design data in
  let build = now () -. t1 in
  ctx.ready gen0;
  let inp = I.ingest_inputs ~seed:ctx.seed ~groups:ingest_groups in
  {
    inp;
    design;
    wh;
    pages_built = Warehouse.total_data_pages wh;
    build_s = [ build ];
    failed = 0;
    checks_ok = true;
  }

(* End-of-episode checks: views equal their recomputation, indexes agree
   with their heaps.  A failure fails the episode's [groups]. *)
let ingest_check st ~groups =
  let ok =
    Validate.all_ok (Validate.check_views st.wh)
    && Warehouse.integrity_check st.wh = Ok ()
  in
  if not ok then begin
    st.checks_ok <- false;
    st.failed <- st.failed + groups
  end

let ingest_rebuild st =
  let t0 = now () in
  st.wh <- Warehouse.build ~checksums:true st.inp.I.in_schema st.design st.inp.I.in_data;
  st.build_s <- (now () -. t0) :: st.build_s

(* Per-group counters, read after the group returns. *)
type group_obs = {
  go_rows : int;
  go_report : Refresh.report;
  go_verifications : int;
  go_wal_records : int;
  go_wal_bytes : int;
}

let ingest_group st tr ~id g =
  let wal = st.wh.Warehouse.w_wal in
  let r0 = Wal.total_records wal and b0 = Wal.total_bytes wal in
  let t0 = now () in
  let res =
    Pb_trace.span tr ~request:id "group" (fun () ->
        Pb_trace.span tr ~request:id "refresh" (fun () -> Refresh.run_protected_many st.wh g))
  in
  let dt = now () -. t0 in
  match res with
  | Ok (report, _, _) ->
      ( dt,
        Some
          {
            go_rows = I.group_rows g;
            go_report = report;
            go_verifications = Iostats.checksum_verifications st.wh.Warehouse.w_stats;
            go_wal_records = Wal.total_records wal - r0;
            go_wal_bytes = Wal.total_bytes wal - b0;
          } )
  | Error _ ->
      st.failed <- st.failed + 1;
      (dt, None)

(* Runs groups until [stop n] holds after [n] groups, rebuilding the
   warehouse (untimed) at each episode boundary. *)
let ingest_loop st tr ~stop =
  let lat = ref [] and obs = ref [] and n = ref 0 in
  while not (stop !n) do
    let i = !n mod ingest_groups in
    if i = 0 && !n > 0 then begin
      ingest_check st ~groups:ingest_groups;
      ingest_rebuild st
    end;
    let dt, o = ingest_group st tr ~id:!n st.inp.I.in_groups.(i) in
    lat := dt :: !lat;
    Option.iter (fun o -> obs := o :: !obs) o;
    incr n
  done;
  ingest_check st ~groups:(((!n - 1) mod ingest_groups) + 1);
  (Array.of_list (List.rev !lat), List.rev !obs)

let rows obs = List.fold_left (fun a o -> a + o.go_rows) 0 obs

let ingest_run ctx st =
  let t0 = now () in
  let lat, obs =
    ingest_loop st (Pb_trace.create ()) ~stop:(fun n ->
        n mod ingest_groups = 0
        && not (another ~t0 ~seconds:ctx.seconds ~units:(n / ingest_groups)))
  in
  {
    attempted = Array.length lat;
    failed = st.failed;
    correct = st.failed = 0 && st.checks_ok;
    latencies = lat;
    work = fi (rows obs);
    metrics = [ ("peak_rss_mb", peak_rss_mb ()) ];
    info =
      [
        ("samples", Json.Int (Array.length lat));
        ("data_pages_built", Json.Int st.pages_built);
        ("pool_pages", Json.Int (Buffer_pool.capacity st.wh.Warehouse.w_pool));
      ];
  }

(* Micro-probes on the final warehouse, outside every timed path. *)
let ingest_probes ~seed w =
  let rng = Random.State.make [| 0x9b; seed |] in
  let tables = Array.to_list (Warehouse.durable_tables w) in
  let pool = w.Warehouse.w_pool in
  let gids = Array.of_list (Buffer_pool.protected_gids pool) in
  let verify_s =
    time_per (Array.length gids) (fun i -> ignore (Buffer_pool.verify pool gids.(i)))
  in
  let indexed =
    List.concat_map
      (fun t ->
        List.filter_map
          (fun (off, bt) ->
            let keys = ref [] in
            Btree.iter bt ~f:(fun k _ -> keys := k :: !keys);
            match !keys with [] -> None | ks -> Some (t, off, bt, Array.of_list ks))
          (Table.indexes t))
      tables
    |> Array.of_list
  in
  let pick () =
    let t, off, bt, ks = indexed.(Random.State.int rng (Array.length indexed)) in
    (t, off, bt, ks.(Random.State.int rng (Array.length ks)))
  in
  let probes = Array.init 2000 (fun _ -> pick ()) in
  let lookup_s =
    time_per (Array.length probes) (fun i ->
        let _, _, bt, k = probes.(i) in
        ignore (Btree.lookup bt ~key:k))
  in
  let index_scan_s =
    time_per (Array.length probes) (fun i ->
        let t, off, _, k = probes.(i) in
        ignore (Exec.index_scan t ~offset:off ~lo:k ~hi:k ()))
  in
  let pages = List.fold_left (fun a t -> a + Table.n_pages t) 0 tables in
  let t0 = now () in
  List.iter (fun t -> Heap_file.scan (Table.heap t) ~f:(fun _ _ -> ())) tables;
  let scan_s = now () -. t0 in
  [
    ("checksum.verify_us", 1e6 *. verify_s);
    ("btree.lookup_us", 1e6 *. lookup_s);
    ("exec.index_scan_us", 1e6 *. index_scan_s);
    ("heap_file.scan_us_per_page", 1e6 *. ratio scan_s (fi pages));
  ]

(* Traced run: one episode untraced, the same episode traced, then checks
   and probes. *)
let ingest_trace ctx st ~out =
  let episode n = n >= ingest_groups in
  let (lat_u, _), minor, major = with_gc (fun () -> ingest_loop st (Pb_trace.create ()) ~stop:episode) in
  ingest_rebuild st;
  let tr = Pb_trace.create () in
  tr.Pb_trace.enabled <- true;
  let lat_t, obs = ingest_loop st tr ~stop:episode in
  tr.Pb_trace.enabled <- false;
  let probes = ingest_probes ~seed:ctx.seed st.wh in
  dump_trace ~out ~name:(Printf.sprintf "ingest-seed%d" ctx.seed) tr;
  let rows = fi (rows obs) in
  let total f = fi (List.fold_left (fun a o -> a + f o) 0 obs) in
  let hits = total (fun o -> o.go_report.Refresh.rp_pool_hits)
  and misses = total (fun o -> o.go_report.Refresh.rp_pool_misses) in
  let builds = Array.of_list st.build_s in
  let metrics =
    [
      ("buffer_pool.hit_rate", ratio hits (hits +. misses));
      ("buffer_pool.evictions_per_row", ratio (total (fun o -> o.go_report.Refresh.rp_pool_evictions)) rows);
      ("iostats.page_io_per_row", ratio (total (fun o -> Refresh.total_io o.go_report)) rows);
      ("checksum.verifications_per_row", ratio (total (fun o -> o.go_verifications)) rows);
      ("wal.syncs_per_group", ratio (total (fun o -> o.go_report.Refresh.rp_wal_syncs)) (fi (List.length obs)));
      ("wal.records_per_row", ratio (total (fun o -> o.go_wal_records)) rows);
      ("wal.bytes_per_row", ratio (total (fun o -> o.go_wal_bytes)) rows);
      ("warehouse.build_ms", 1000. *. percentile 0.5 builds);
      ("trace.overhead_frac", ratio (sum lat_t -. sum lat_u) (sum lat_u));
    ]
    @ probes
    @ gc_metrics ~ops:(Array.length lat_u) ~minor ~major
  in
  {
    attempted = Array.length lat_u + Array.length lat_t;
    failed = st.failed;
    correct = st.failed = 0 && st.checks_ok;
    latencies = [||];
    work = 0.;
    metrics;
    info = [ ("groups", Json.Int (Array.length lat_t)) ];
  }

(* ---- serve --------------------------------------------------------- *)

(* Ticks per episode.  The daemon's heap files do not reuse freed slots,
   so its tick cost grows with the ticks served (about 40 ms to 200 ms over
   240 ticks at seed 1).  Every episode therefore starts a fresh daemon and
   serves a fixed number of ticks, which take in the step drift at tick 30
   and the re-optimizations that follow it. *)
let serve_ticks = 80

(* Episode [e] of a run draws its tenants and arrivals from its own seed. *)
let episode_seed ~seed e = (seed * 1000) + e

(* A +-100% drift band: the x3 step crosses it, while Poisson noise in the
   per-tick rates does not.  At the default +-50% the daemon re-optimized
   on a tenth of the ticks, which put p90 on the boundary between refresh
   and re-optimization ticks. *)
let serve_config ~seed ~jobs =
  { Service.default_config with Service.sv_seed = seed; sv_jobs = jobs; sv_band = 2.0 }

(* Service.create, the initial design and add_tenant: the daemon's set-up. *)
let serve_start ~seed ~jobs =
  let config = serve_config ~seed ~jobs in
  let svc = Service.create ~config () in
  let schema = I.serve_schema () in
  let design =
    let r, _ =
      Astar.search_budgeted ~max_expanded:config.Service.sv_budget ~jobs (Problem.make schema)
    in
    r.Astar.best
  in
  Array.iter
    (fun tn ->
      ignore
        (Service.add_tenant ~seed:tn.I.tn_seed ~rate:tn.I.tn_rate ~drift:tn.I.tn_drift
           ~config:design svc schema))
    (I.serve_tenant_specs ~seed);
  svc

let serve_setup ctx =
  let svc = serve_start ~seed:(episode_seed ~seed:ctx.seed 0) ~jobs in
  ctx.ready 0.;
  svc

type episode = {
  ep_lat : float array;  (** wall seconds per tick *)
  ep_totals : Service.totals;
  ep_signatures : string list;  (** per tenant, when asked for *)
}

(* Serves one episode on [svc] and shuts it down.  [between] runs after
   every tick, outside the timed region. *)
let serve_episode ?(signatures = false) ?(between = fun _ -> ()) svc tr ~e =
  let lat =
    Array.init serve_ticks (fun n ->
        let t0 = now () in
        Pb_trace.span tr ~request:((e * serve_ticks) + n) "tick" (fun () -> Service.tick svc);
        let dt = now () -. t0 in
        between dt;
        dt)
  in
  let totals = Service.totals svc in
  let sigs = if signatures then List.map (Service.signature svc) (Service.tenant_ids svc) else [] in
  Service.shutdown svc;
  { ep_lat = lat; ep_totals = totals; ep_signatures = sigs }

let serve_ok eps =
  List.for_all (fun ep -> ep.ep_totals.Service.tt_failed = 0) eps
  && List.exists (fun ep -> ep.ep_totals.Service.tt_reopts >= 1) eps
  && List.exists (fun ep -> ep.ep_totals.Service.tt_swaps >= 1) eps

let serve_sum f eps = List.fold_left (fun a ep -> a + f ep.ep_totals) 0 eps
let serve_lat eps = Array.concat (List.map (fun ep -> ep.ep_lat) eps)

let serve_run ctx svc0 =
  let t0 = now () in
  let rec go e svc acc =
    let ep = serve_episode svc (Pb_trace.create ()) ~e in
    if another ~t0 ~seconds:ctx.seconds ~units:(e + 1) then
      go (e + 1) (serve_start ~seed:(episode_seed ~seed:ctx.seed (e + 1)) ~jobs) (ep :: acc)
    else List.rev (ep :: acc)
  in
  let eps = go 0 svc0 [] in
  let lat = serve_lat eps in
  {
    attempted = Array.length lat;
    failed = serve_sum (fun t -> t.Service.tt_failed) eps;
    correct = serve_ok eps;
    latencies = lat;
    work = fi (serve_sum (fun t -> t.Service.tt_rows) eps);
    metrics = [ ("peak_rss_mb", peak_rss_mb ()) ];
    info =
      [
        ("samples", Json.Int (Array.length lat));
        ("episodes", Json.Int (List.length eps));
        ("reopts", Json.Int (serve_sum (fun t -> t.Service.tt_reopts) eps));
        ("swaps", Json.Int (serve_sum (fun t -> t.Service.tt_swaps) eps));
      ];
  }

(* Traced run: [k] episodes untraced, the same episodes traced (reading the
   tenants' counters between ticks), and the same episodes untraced at
   [parallel_jobs], whose tenant signatures must equal the jobs-1 ones. *)
let serve_trace ctx svc0 ~out =
  let k = max 1 (int_of_float (ctx.seconds /. 12.)) in
  let start ~jobs e = serve_start ~seed:(episode_seed ~seed:ctx.seed e) ~jobs in
  let untraced, minor, major =
    with_gc (fun () ->
        List.init k (fun e ->
            serve_episode (if e = 0 then svc0 else start ~jobs e) (Pb_trace.create ()) ~e))
  in
  let tr = Pb_trace.create () in
  tr.Pb_trace.enabled <- true;
  let reopt_ticks = ref [] and refresh_ticks = ref [] and gated = ref 0 in
  let traced =
    List.init k (fun e ->
        let svc = start ~jobs e in
        let counts () =
          List.fold_left
            (fun (r, g) id ->
              let s = Service.stats svc id in
              (r + s.Service.ts_reopts, g + s.Service.ts_gated))
            (0, 0) (Service.tenant_ids svc)
        in
        let last = ref (counts ()) in
        let ep =
          serve_episode ~signatures:true svc tr ~e ~between:(fun dt ->
              let c = counts () in
              if fst c > fst !last then reopt_ticks := dt :: !reopt_ticks
              else refresh_ticks := dt :: !refresh_ticks;
              last := c)
        in
        gated := !gated + snd !last;
        ep)
  in
  tr.Pb_trace.enabled <- false;
  let parallel =
    List.init k (fun e ->
        serve_episode ~signatures:true (start ~jobs:parallel_jobs e) (Pb_trace.create ()) ~e)
  in
  let same_sigs =
    List.for_all2 (fun a b -> a.ep_signatures = b.ep_signatures) traced parallel
  in
  dump_trace ~out ~name:(Printf.sprintf "serve-seed%d" ctx.seed) tr;
  let lat_u = serve_lat untraced and lat_t = serve_lat traced in
  let ticks = fi (Array.length lat_t) in
  let period_s = (serve_config ~seed:ctx.seed ~jobs).Service.sv_tick_ms /. 1000. in
  let metrics =
    [
      ("service.tick_refresh_ms_p50", 1000. *. percentile 0.5 (Array.of_list !refresh_ticks));
      ("service.tick_reopt_ms_p50", 1000. *. percentile 0.5 (Array.of_list !reopt_ticks));
      ("service.reopt_tick_share", ratio (fi (List.length !reopt_ticks)) ticks);
      ("service.reopts", fi (serve_sum (fun t -> t.Service.tt_reopts) traced));
      ("service.swaps", fi (serve_sum (fun t -> t.Service.tt_swaps) traced));
      ("service.gated", fi !gated);
      ("service.rows_per_tick", ratio (fi (serve_sum (fun t -> t.Service.tt_rows) traced)) ticks);
      ( "service.ticks_over_period",
        fi (Array.fold_left (fun a dt -> if dt > period_s then a + 1 else a) 0 lat_u) );
      ("parallel.speedup", ratio (sum lat_u) (sum (serve_lat parallel)));
      ("trace.overhead_frac", ratio (sum lat_t -. sum lat_u) (sum lat_u));
    ]
    @ gc_metrics ~ops:(Array.length lat_u) ~minor ~major
  in
  let all = untraced @ traced @ parallel in
  {
    attempted = Array.length (serve_lat all);
    failed = serve_sum (fun t -> t.Service.tt_failed) all;
    correct = serve_ok untraced && serve_ok traced && serve_ok parallel && same_sigs;
    latencies = [||];
    work = 0.;
    metrics;
    info = [ ("episodes", Json.Int k); ("signatures_match", Json.Bool same_sigs) ];
  }

(* ---- dispatch ------------------------------------------------------ *)

let workloads = [ "advise"; "ingest"; "serve" ]

(* [run ~workload ~trace ~setup_only ~out ctx]: set-up, then (unless
   [setup_only]) the timed loop or the traced study.  In a traced run every
   per-layer metric is present; those the workload does not exercise are 0. *)
let run ~workload ~trace ~setup_only ~out ctx =
  let go setup ~finish run traced =
    let st = setup ctx in
    if setup_only then begin
      finish st;
      None
    end
    else Some (if trace then traced ctx st ~out else run ctx st)
  in
  let r =
    match workload with
    | "advise" -> go advise_setup ~finish:ignore advise_run advise_trace
    | "ingest" -> go ingest_setup ~finish:ignore ingest_run ingest_trace
    | "serve" -> go serve_setup ~finish:Service.shutdown serve_run serve_trace
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  Option.map
    (fun r ->
      if trace then
        let m = r.metrics in
        {
          r with
          metrics =
            List.map (fun (name, _) -> (name, Option.value ~default:0. (List.assoc_opt name m))) per_layer;
        }
      else r)
    r
