(** Execution of one refresh cycle: the shipped deltas of every base relation
    are propagated, relation by relation, onto the base replicas, the
    supporting views, and the primary view, following exactly the update
    paths the cost model's optimizer chose (nested-block vs. index joins,
    saved-delta reuse, key-index vs. scan locating).  The buffer pool records
    the physical I/O, which {!Validate} compares with the cost model's
    prediction.

    Relations are processed in index order; within a relation, insertions
    are propagated to views smallest-first (so saved deltas exist when a
    superview's plan reuses them), then applied to the base replica, then
    deletions, then protected updates.  This sequential discipline makes the
    incremental result exact: each maintenance expression runs against
    states already consistent with the previously processed deltas. *)

type report = {
  rp_reads : int;
  rp_writes : int;
  rp_accesses : int;
  rp_wal_writes : int;  (** log pages forced (a subset of [rp_writes]) *)
  rp_wal_syncs : int;  (** durability barriers *)
  rp_pool_hits : int;
  rp_pool_misses : int;
  rp_pool_evictions : int;
  rp_pool_overflows : int;  (** frames pinned past pool capacity *)
  rp_predicted : float;  (** the cost model's [C(M')] for the same batch *)
}

val total_io : report -> int

(** The report as one JSON object: predicted and measured I/O, the read,
    write, access and WAL counts, and the buffer-pool counters under
    ["pool"] — shared by [visadvisor validate] and the bench. *)
val report_json : report -> Vis_util.Json.t

(** [run warehouse batch] executes the refresh and reports measured vs.
    predicted I/O.  The warehouse's counters are reset first; on return they
    hold just this refresh (pool flushed into the counts). *)
val run : Warehouse.t -> Vis_workload.Datagen.batch -> report

(** {1 Fault-protected refresh}

    {!run_protected} executes the same cycle under WAL protection: every
    durable mutation is logged with before images before it is applied, and
    the batch is bracketed by begin/commit records.  A fault injected by
    the warehouse pool's {!Vis_storage.Faults} plan aborts the attempt,
    [Warehouse.recover] rolls the stored state back to the pre-batch
    snapshot, and the batch retries:

    - transient faults are retried with bounded exponential backoff at the
      failing page operation itself and normally never surface;
    - one-shot crash faults (and escalated transients) retry the whole
      batch, up to [max_attempts] times;
    - permanent faults degrade gracefully — the deltas are applied to the
      base replicas only and every view is {e recomputed} from the
      refreshed bases (still WAL-protected), charging the recomputation
      I/O to the counters.

    The outcome is therefore always one of: the post-batch state
    ([Ok] — logically identical to a fault-free {!run}, and bit-identical
    unless degradation rebuilt the views), or the pre-batch state
    ([Error] — every attempt rolled back cleanly).  Only the typed
    [Faults.Injected] exception is handled; anything else is a bug and
    propagates. *)

type fault_stats = {
  fs_attempts : int;  (** batch attempts, degraded ones included *)
  fs_injected : int;  (** faults surfaced past retry *)
  fs_retries : int;  (** page-level transient retries *)
  fs_backoff_ms : float;  (** simulated backoff time *)
  fs_rollbacks : int;  (** recovery invocations *)
  fs_undone : int;  (** log records undone across rollbacks *)
  fs_degraded : bool;  (** views were recomputed rather than patched *)
  fs_wal_records : int;  (** log records appended over the run *)
  fs_wal_pages : int;  (** log pages allocated over the run *)
  fs_recomputed_rows : int;  (** view rows rebuilt by degradation *)
}

type error = { err_fault : Vis_storage.Faults.fault; err_stats : fault_stats }

(** [run_protected ?faults ?max_attempts w batch] — [faults] defaults to a
    plan that never injects (measuring pure WAL overhead); [max_attempts]
    (default 2, minimum 1) bounds the normal-path attempts and, separately,
    the degraded-path attempts.  The plan is installed on the warehouse's
    pool and disarmed on return. *)
val run_protected :
  ?faults:Vis_storage.Faults.t ->
  ?max_attempts:int ->
  Warehouse.t ->
  Vis_workload.Datagen.batch ->
  (report * fault_stats, error) result

(** {1 Group commit}

    {!run_protected_many} runs a stream of delta batches under WAL
    protection with {e group commit}: each batch is bracketed and applied
    as in {!run_protected}, but its commit record is appended without
    forcing the log ({!Warehouse.commit_batch_deferred}).  One
    {!Warehouse.sync_batches} then covers every deferred commit at once,
    so [n] batches cost one durability barrier instead of [n].

    Scheduling runs on a simulated clock (batches arrive [10]ms apart) and
    is a pure function of that clock and the pending set — a sync fires
    when the pending group reaches [gp_max_group], when the oldest pending
    commit has waited [gp_window_ms], or at end of stream.  Runs therefore
    replay bit-identically, fault plans included.

    A fault while a group is open rolls back {e every} non-durable batch
    (cross-batch LIFO undo via [Warehouse.recover]) and the rolled-back
    batches are then {e replayed} one by one under the immediate-sync
    protocol of {!run_protected} — retries, backoff and graceful
    degradation per batch — before the group resumes.  The outcome is the
    same all-batches-applied state a fault-free run produces (or [Error]
    when a replayed batch exhausts its attempts). *)

(** [gp_max_group] bounds how many deferred commits one sync may cover
    ([1] degenerates to per-batch forcing, i.e. {!run_protected}'s
    behaviour); [gp_window_ms] bounds how long the oldest pending commit
    may wait on the simulated clock. *)
type group_policy = { gp_max_group : int; gp_window_ms : float }

(** [{ gp_max_group = 4; gp_window_ms = 40. }] *)
val default_group_policy : group_policy

type group_stats = {
  gr_batches : int;  (** batches in the stream *)
  gr_group_syncs : int;  (** group-mode syncs that confirmed a group *)
  gr_max_group : int;  (** largest group one sync covered *)
  gr_replayed : int;  (** batches replayed individually after a fault *)
  gr_clock_ms : float;  (** simulated clock at completion *)
  gr_latency_ms_total : float;
      (** summed commit latency: for each batch, simulated time from its
          arrival to the sync (or replay) that made it durable — the
          latency group commit trades against sync count *)
  gr_latencies_ms : float list;
      (** the per-batch commit latencies behind that sum, in arrival order
          (only durable batches appear).  The service layer feeds these
          into its p99 figure. *)
}

(** [run_protected_many ?faults ?max_attempts ?policy w batches] — the
    warehouse counters cover the whole stream; [fault_stats] aggregates
    every attempt (group-mode and replays). *)
val run_protected_many :
  ?faults:Vis_storage.Faults.t ->
  ?max_attempts:int ->
  ?policy:group_policy ->
  Warehouse.t ->
  Vis_workload.Datagen.batch list ->
  (report * fault_stats * group_stats, error) result
