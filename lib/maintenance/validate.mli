(** Cross-checks between the executed warehouse and ground truth:

    - {e correctness}: after a refresh, every materialized view must equal
      the view recomputed from scratch over the refreshed base replicas;
    - {e cost-model accuracy}: the measured physical I/O of a refresh should
      track the cost model's prediction (the experiments report the ratio;
      the paper's conclusions depend on relative costs, so a stable ratio
      across configurations is what matters);
    - {e recovery}: the refresh-trial harness below — one seeded world, one
      outcome rule for a protected refresh under faults, one seeded
      page-damage step — behind [visadvisor validate --faults/--scrub], the
      bench's fault and corruption studies, the recovery fuzz oracles and
      the recovery tests. *)

type view_check = {
  vc_view : string;
  vc_expected : int;  (** tuples in the recomputed view *)
  vc_actual : int;  (** tuples stored *)
  vc_ok : bool;  (** multiset equality, not just counts *)
}

(** [check_views w] recomputes every materialized view from the current base
    replicas and compares contents. *)
val check_views : Warehouse.t -> view_check list

val all_ok : view_check list -> bool

(** {1 The seeded world} *)

(** [world ?checksums ~seed schema config] — the warehouse built
    (checksum-protected when [checksums], default [false]) over
    [Datagen.generate] on [Random.State.make [|seed|]], and the first delta
    batch drawn from the same state afterwards.  Pure in its arguments:
    two calls give structurally identical worlds, which is what every
    fault-free reference relies on.  Raises [Datagen.Unsupported] for
    schemas the generator cannot realize. *)
val world :
  ?checksums:bool ->
  seed:int ->
  Vis_catalog.Schema.t ->
  Vis_costmodel.Config.t ->
  Warehouse.t * Vis_workload.Datagen.batch

(** [split_batch k b] deals one batch into [k] conflict-free sub-batches,
    each per-relation delta list round-robin: inserted keys are
    predetermined, deleted and updated keys are distinct within a batch, so
    any partition applies cleanly in stream order. *)
val split_batch :
  int -> Vis_workload.Datagen.batch -> Vis_workload.Datagen.batch list

(** [run_cycle ?seed schema config] refreshes the seeded world once
    ([seed] defaults to 42) and returns the refresh report together with
    the view checks — the complete validation experiment for one
    configuration. *)
val run_cycle :
  ?seed:int ->
  Vis_catalog.Schema.t ->
  Vis_costmodel.Config.t ->
  Refresh.report * view_check list

(** {1 The outcome rule of a protected refresh} *)

(** The signatures of a fault-free refresh's end state. *)
type reference = { rf_physical : string; rf_logical : string }

(** [reference w] — {!Warehouse.signature} and
    {!Warehouse.logical_signature} of [w]. *)
val reference : Warehouse.t -> reference

(** How a protected refresh ended, judged against its fault-free
    reference.  Storage integrity ({!Warehouse.integrity_check}) is checked
    once the signatures agree; its failure is [Integrity_broken]. *)
type verdict =
  | Bit_identical  (** completed: physical signature matches *)
  | Logically_exact  (** completed degraded: logical signature matches *)
  | Rolled_back  (** one failed batch: pre-batch signature restored *)
  | Failed_intact
      (** a failed stream: durable prefixes legitimately survive, so only
          integrity is required *)
  | State_mismatch
  | Degraded_mismatch
  | Rollback_mismatch
  | Integrity_broken of string

(** [verdict_ok v] — [v] is one of the four provable end states. *)
val verdict_ok : verdict -> bool

(** One line: ["bit-identical"], ["degraded, logically exact"],
    ["rolled back to pre-batch"], ["failed, storage intact"], or the
    mismatch in capitals. *)
val verdict_name : verdict -> string

type 'a trial = {
  tr_result : ('a, Refresh.error) result;  (** what the refresh returned *)
  tr_stats : Refresh.fault_stats;  (** of the [Ok] or the [Error] *)
  tr_io : int;
      (** page reads + writes of the refresh, counted before the verdict's
          own scans *)
  tr_verdict : verdict;
}

(** [refresh_trial reference ~faults w batch] runs
    [Refresh.run_protected ~faults] and judges the end state; an [Error]
    must leave [w]'s pre-batch signature. *)
val refresh_trial :
  reference ->
  faults:Vis_storage.Faults.t ->
  Warehouse.t ->
  Vis_workload.Datagen.batch ->
  (Refresh.report * Refresh.fault_stats) trial

(** [stream_trial reference ~faults w batches] runs
    [Refresh.run_protected_many ~faults] under the default group policy
    and judges the end state; an [Error] is [Failed_intact] when integrity
    holds. *)
val stream_trial :
  reference ->
  faults:Vis_storage.Faults.t ->
  Warehouse.t ->
  Vis_workload.Datagen.batch list ->
  (Refresh.report * Refresh.fault_stats * Refresh.group_stats) trial

(** {1 Seeded page damage} *)

(** [rebuildable_gids w] — every page rebuildable from the base relations,
    ascending: view heap pages and every index node.  Base heap pages are
    excluded; damage there is unrecoverable by design. *)
val rebuildable_gids : Warehouse.t -> int list

(** [damage_pages w ~rng ~n targets] draws [Faults.random_damage ~n ~rng]
    over [targets] and applies each hit with [Buffer_pool.corrupt_page];
    returns the damaged gids, ascending and distinct (one per hit). *)
val damage_pages :
  Warehouse.t -> rng:Random.State.t -> n:int -> int array -> int list

type scrub_check = {
  sk_injected : int;  (** distinct rebuildable pages damaged *)
  sk_report : Warehouse.scrub_report;
  sk_views_ok : bool;  (** post-repair view contents re-verified *)
  sk_integrity_ok : bool;  (** {!Warehouse.integrity_check} after repair *)
}

(** [scrub_cycle ?seed ?damage schema config] — the corruption-recovery
    validation experiment: build the seeded world checksum-protected,
    refresh once, inject [damage] (default 3) seeded bit-flips/torn-writes
    into {!rebuildable_gids}, scrub with [fail_unrecoverable:false], and
    re-verify every view and index against the base replicas.  The cycle
    passes when the scrub convicted every damaged page
    ([sk_report.sc_corrupt = sk_injected]) and both [sk_views_ok] and
    [sk_integrity_ok] hold. *)
val scrub_cycle :
  ?seed:int ->
  ?damage:int ->
  Vis_catalog.Schema.t ->
  Vis_costmodel.Config.t ->
  scrub_check
