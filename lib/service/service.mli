(** The multi-tenant advisor daemon: many {!Vis_maintenance.Warehouse}
    instances, each fed a seeded delta stream, refreshed in parallel
    refresh groups on a {!Vis_util.Parallel} domain pool, and watched by a
    per-tenant {!Monitor} that triggers {!Vis_core.Sensitivity}-gated
    re-optimization — warm-started from the incumbent mask via
    {!Vis_core.Astar.search_budgeted} — when the observed delta rates
    drift away from the rates the incumbent configuration was optimized
    for.

    {2 The tick loop}

    Time advances in {e ticks} of the simulated clock.  Each {!tick} runs
    three phases:

    + {b Arrivals} (coordinator, sequential in tenant order): for every
      tenant, draw the tick's batch count from
      {!Vis_workload.Stream.arrivals} and the batch contents from the
      tenant's private RNG with {!Vis_workload.Datagen.deltas_evolving},
      scaled by the tenant's {!Vis_workload.Stream.drift} profile.  The
      tenant's logical dataset mirror advances with
      {!Vis_workload.Datagen.apply}.
    + {b Refresh} (parallel): every tenant with arrivals runs its batches
      as one {!Vis_maintenance.Refresh.run_protected_many} group-commit
      stream.  Tenants share {e no} storage state — each owns its pool,
      arena, WAL and counters — so one pool task per tenant
      ({!Vis_util.Parallel.run_tasks}) mutates disjoint state and the
      round is deterministic at any pool width.
    + {b Monitor & re-optimize} (coordinator, sequential in tenant
      order): feed each tenant's observed delta rows into its EWMA
      monitor; when the rate has {!Monitor.drifted} outside the band
      (after [sv_warmup] ticks), run the {!Vis_core.Sensitivity.probe} at
      the estimated drifted rates, and only if the incumbent's ratio
      exceeds [sv_gate] run the budgeted warm-started A*.  A strictly
      better design is swapped in {e between} refresh groups: the tenant's
      warehouse is rebuilt from its logical mirror under the new
      configuration, so no batch ever sees half a configuration and no
      delta is lost or applied twice.  A budget-bounded search
      ([Bounded] certificate) that fails to improve keeps the incumbent —
      the degradation path: the service never swaps to a worse design.

    Every phase is a pure function of [(seed, registered tenants, tick)];
    the pool only ever executes tenant-disjoint work, so the entire daemon
    end-state — physical signatures, every counter, every latency — is
    bit-identical at any [sv_jobs].  Injected faults (per-tenant
    {!Vis_storage.Faults} plans) ride the same refresh protocol and stay
    contained: a crash inside one tenant's group perturbs no other
    tenant's state or counters. *)

type config = {
  sv_seed : int;  (** root seed of every stream draw *)
  sv_jobs : int;  (** refresh-pool width (and re-optimizer [jobs]) *)
  sv_tick_ms : float;  (** simulated wall time one tick represents *)
  sv_group : Vis_maintenance.Refresh.group_policy;
      (** group-commit policy of each tenant's per-tick stream *)
  sv_max_attempts : int;  (** per-batch retry budget under faults *)
  sv_alpha : float;  (** EWMA weight of the newest rate observation *)
  sv_band : float;  (** re-optimization trigger band (e.g. 1.5 = ±50%) *)
  sv_gate : float;
      (** sensitivity-probe threshold: re-optimize only when the incumbent
          costs more than [sv_gate ×] the greedy design at the drifted
          rates *)
  sv_warmup : int;  (** ticks before the monitor may trigger *)
  sv_budget : int;  (** A* expansion budget per re-optimization *)
  sv_beam : int option;  (** beam width for the budgeted search *)
  sv_min_gain : float;
      (** minimum relative cost improvement required to swap (0.01 = 1%) *)
  sv_minsup : float option;
      (** when set, each re-optimization first mines the tenant's recent
          query history ({!Vis_workload.Miner}, at this minimum support)
          and searches the workload-proportional candidate set; [None]
          (the default) keeps the exhaustive enumeration, bit-identical to
          the pre-mining daemon *)
  sv_log_queries : int;
      (** queries per mined tenant history (deterministic in seed, tenant
          and tick); only read when [sv_minsup] is set *)
  sv_scrub_every : int;
      (** when positive, build every tenant warehouse checksum-protected
          and run a {!Vis_maintenance.Warehouse.scrub} pass over each
          tenant every this-many ticks (a fourth, sequential phase after
          re-optimization).  The daemon scrubs with
          [fail_unrecoverable:false]: corrupt base pages are counted, left
          quarantined, and never kill the tick loop.  [0] (the default)
          disables both checksums and scrubbing. *)
}

(** Seed 0, jobs 1, 100 ms ticks, the refresh default group policy,
    2 attempts, α 0.3, band 1.5, gate 1.02, warmup 2, budget 20,000,
    beam 64, min gain 1%, no mining (256 queries per history when
    enabled), no scrubbing. *)
val default_config : config

(** A snapshot of one tenant's counters.  All simulated-clock derived;
    comparable with [=] across runs (the service-replay oracle does
    exactly that). *)
type tenant_stats = {
  ts_id : int;
  ts_name : string;
  ts_ticks : int;  (** ticks while registered *)
  ts_batches : int;  (** delta batches arrived *)
  ts_rows : int;  (** delta rows arrived *)
  ts_groups : int;  (** refresh-group runs (ticks with work) *)
  ts_group_syncs : int;
  ts_replayed : int;  (** batches replayed individually after faults *)
  ts_failed : int;  (** group runs that ended in [Error] *)
  ts_injected : int;  (** faults surfaced past retry *)
  ts_rollbacks : int;
  ts_degraded : int;  (** runs that degraded to view recomputation *)
  ts_io : int;  (** measured page I/O across all runs *)
  ts_wal_syncs : int;
  ts_checks : int;  (** drift triggers examined *)
  ts_gated : int;  (** triggers dismissed by the sensitivity probe *)
  ts_reopts : int;  (** full budgeted A* runs *)
  ts_bounded : int;  (** re-optimizations with a [Bounded] certificate *)
  ts_swaps : int;  (** configuration swaps applied *)
  ts_scrubs : int;  (** scrub passes run over this tenant *)
  ts_scrub_corrupt : int;  (** pages convicted across all passes *)
  ts_scrub_rebuilt : int;  (** views + indexes rebuilt by scrubbing *)
  ts_unrecoverable : int;  (** corrupt base pages (quarantined, not fatal) *)
  ts_opt_factor : float;
      (** delta-scale factor the incumbent is optimized for (1.0 at
          registration) *)
  ts_ewma_ratio : float;  (** monitor ratio at snapshot time *)
  ts_latencies_ms : (float * int) list;
      (** per-batch commit latencies as ascending (latency, batches) pairs:
          simulated latencies are whole multiples of the group clock's
          batch interval, so the record stays small however long the
          daemon runs *)
}

(** Aggregate figures across live and retired tenants. *)
type totals = {
  tt_tenants : int;  (** tenants ever registered *)
  tt_ticks : int;
  tt_clock_ms : float;  (** simulated time served *)
  tt_batches : int;
  tt_rows : int;
  tt_failed : int;
  tt_reopts : int;
  tt_swaps : int;
  tt_scrubs : int;
  tt_scrub_corrupt : int;
  tt_scrub_rebuilt : int;
  tt_mean_latency_ms : float;  (** 0 when no batch committed *)
  tt_p99_latency_ms : float;
}

type t

val create : ?config:config -> unit -> t
val config : t -> config

(** [add_tenant t schema] registers a tenant over [schema] (which must be
    executable — raises {!Vis_workload.Datagen.Unsupported} otherwise) and
    returns its id.  The initial dataset realizes the schema's statistics
    from [seed] (default: the tenant id); [rate] (default 2.0) is the mean
    batches per tick; [drift] (default {!Vis_workload.Stream.Constant})
    scales the stream's delta volume over time; [faults] installs a
    per-tenant fault plan for every refresh run; [config] overrides the initial design
    (default: a fresh budgeted A* design at the declared rates). *)
val add_tenant :
  ?name:string ->
  ?seed:int ->
  ?rate:float ->
  ?drift:Vis_workload.Stream.drift ->
  ?faults:Vis_storage.Faults.t ->
  ?config:Vis_costmodel.Config.t ->
  t ->
  Vis_catalog.Schema.t ->
  int

(** [remove_tenant t id] tears the tenant down and returns its final
    counters (also kept for {!totals}).  Raises [Not_found] on an unknown
    or already-removed id. *)
val remove_tenant : t -> int -> tenant_stats

val n_tenants : t -> int
val tenant_ids : t -> int list

(** One tick of the three-phase loop described above. *)
val tick : t -> unit

(** [run t ~ticks] — [tick] that many times. *)
val run : t -> ticks:int -> unit

val stats : t -> int -> tenant_stats

(** The tenant's current configuration. *)
val incumbent : t -> int -> Vis_costmodel.Config.t

(** The tenant's current warehouse (a swap replaces it), for inspection
    between ticks. *)
val warehouse : t -> int -> Vis_maintenance.Warehouse.t

(** Physical digest of the tenant's warehouse
    ({!Vis_maintenance.Warehouse.signature}) — scans the storage, so call
    it at comparison points, not mid-measurement. *)
val signature : t -> int -> string

(** Logical digest ({!Vis_maintenance.Warehouse.logical_signature}). *)
val logical_signature : t -> int -> string

(** Configuration-independent digest of the tenant's base replicas and
    primary view contents — invariant across a swap (supporting views and
    indexes change; the data they serve must not). *)
val core_digest : t -> int -> string

val totals : t -> totals

(** [add_latency (l, n) hist] adds [n] batches of latency [l] to an
    ascending (latency, batches) record — how the daemon accumulates
    [ts_latencies_ms] from each refresh group's latencies. *)
val add_latency : float * int -> (float * int) list -> (float * int) list

(** [percentile ~p hist] — the p-th percentile (nearest-rank,
    [p ∈ [0,1]]) of the values an ascending (value, count) record
    describes, exactly as over the expanded list; 0 when it is empty. *)
val percentile : p:float -> (float * int) list -> float

(** The tenant's counters as one JSON object, with the latency record
    summarized as its p99 ([ts_ticks] and [ts_wal_syncs] are left out) —
    the per-tenant row of [visserve --json] and of the bench's service
    study. *)
val tenant_stats_json : tenant_stats -> Vis_util.Json.t

(** Shuts the domain pool down.  The service must not be ticked after. *)
val shutdown : t -> unit
