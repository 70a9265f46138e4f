(** Instrumentation shared by every search algorithm (A* of Section 4, the
    exhaustive baseline of Section 2, and the greedy / local-search
    heuristics of the conclusion's "limited search" direction).

    A value of {!t} is a mutable scoreboard the algorithm writes while it
    runs: states expanded and generated, full cost evaluations requested,
    the largest frontier held, per-rule pruning counts (Table 2's
    pruning-effectiveness data), heuristic admissibility checks (the popped
    [ĉ] sequence of an admissible A* must be non-decreasing), and wall
    times per phase.  The scoreboard has one report, {!to_json}; both
    [BENCH_vis.json] and the human tables of [visadvisor --stats]
    ({!Vis_util.Tableprint.of_json}) are derived from it. *)

type t

(** [create ~algorithm ()] is a zeroed scoreboard; [algorithm] names the
    search in reports (e.g. ["astar"]). *)
val create : algorithm:string -> unit -> t

val algorithm : t -> string

(** {1 Counters} *)

(** A state was taken from the frontier and branched on. *)
val expand : t -> unit

(** A successor state was constructed and kept. *)
val generate : t -> unit

(** A full cost-model evaluation ([Cost.total]) was requested. *)
val evaluate : t -> unit

val expanded : t -> int

val generated : t -> int

val evaluated : t -> int

(** Bulk counterparts of {!expand}/{!generate}/{!evaluate}: sharded
    algorithms count states per shard and charge the totals once from the
    coordinating domain, so counter totals match a sequential run exactly
    and the scoreboard itself needs no synchronization. *)

val add_expanded : t -> int -> unit

val add_generated : t -> int -> unit

val add_evaluated : t -> int -> unit

(** [prune ?count t rule] charges [count] (default 1) discarded states to
    the named pruning rule, e.g. ["incumbent-bound"] or ["dominance"]. *)
val prune : ?count:int -> t -> string -> unit

(** [pruned t rule] is that rule's count so far (0 if never charged). *)
val pruned : t -> string -> int

(** Per-rule pruning counts, sorted by rule name. *)
val pruning_counts : t -> (string * int) list

(** [observe_frontier t n] records the frontier size after a mutation;
    the maximum observed is reported. *)
val observe_frontier : t -> int -> unit

val max_frontier : t -> int

(** [admissibility_check t ~violated] records one runtime check of the
    heuristic's admissibility invariant.  Violations indicate a bug in the
    lower bound (the paper's uncorrected [ĥ] would trip this; see
    DESIGN.md). *)
val admissibility_check : t -> violated:bool -> unit

val admissibility_checks : t -> int

val admissibility_violations : t -> int

(** {1 Parallel-run accounting} *)

(** [set_parallel t ~jobs ~work] records the worker-pool shape of the run:
    [jobs] worker slots and [work.(slot)] chunks executed per slot (slot 0
    is the coordinating domain; see {!Vis_util.Parallel.work_counts}). *)
val set_parallel : t -> jobs:int -> work:int array -> unit

(** Worker slots of the recorded parallel run; [0] when the search ran
    without recording parallelism. *)
val parallel_jobs : t -> int

(** Chunks executed per worker slot (a copy; empty when unrecorded). *)
val domain_work : t -> int array

(** {2 Exchange rounds}

    The sharded searches submit one pool batch per incumbent-exchange round
    (see the sharding contract in {!Vis_util.Parallel}).  Each round's exact
    per-task work counts — cost evaluations, a deterministic counter — are
    recorded here, so a machine-independent speedup figure can be derived
    even when the host cannot run domains in parallel. *)

(** [record_round t tasks] records one exchange round; [tasks.(i)] is the
    work (cost evaluations) task [i] of the batch performed.  Empty batches
    are ignored.  Shard boundaries are jobs-independent, so the recorded
    sequence is identical at any pool width. *)
val record_round : t -> int array -> unit

(** The recorded rounds, in submission order (copies). *)
val rounds : t -> int array list

val round_count : t -> int

(** Total work units across all recorded rounds. *)
val round_work : t -> int

(** [modeled_speedup t ~jobs] is total work / Σ per-round makespan under
    {!Vis_util.Parallel.simulate_schedule} — the speedup of the round phase
    that [jobs] equally-fast workers can approach, with a barrier after
    every round.  [None] when no rounds were recorded.  A pure function of
    deterministic counters: identical on every machine and at every actual
    pool width, which is what the benchmark's parallel-scaling study and
    the CI perf gate guard. *)
val modeled_speedup : t -> jobs:int -> float option

(** Load balance of the sharded phases, [total / (slots * max)] in (0, 1]:
    1.0 means perfectly even work distribution.  [None] when the run was
    sequential or no parallel work was recorded.  This bounds achievable
    parallel efficiency from above; wall-clock speedup is additionally
    capped by the sequential sections (Amdahl). *)
val work_balance : t -> float option

(** {1 Phases} *)

(** [time t phase f] runs [f ()] and adds its elapsed wall-clock time to
    [phase]'s accumulator (wall clock, not CPU time, so parallel phases are
    not over-reported by the number of domains).  Nested or repeated phases
    accumulate; first-use order is preserved in reports. *)
val time : t -> string -> (unit -> 'a) -> 'a

(** Accumulated seconds per phase, in first-use order. *)
val phase_timings : t -> (string * float) list

(** {1 Reports} *)

val to_json : t -> Vis_util.Json.t
