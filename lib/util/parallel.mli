(** A dependency-free fixed-size worker pool over OCaml 5 [Domain]s.

    The pool runs *deterministic data parallelism*: a batch of independent
    tasks is split into chunks, the chunks are claimed dynamically by the
    workers (and by the submitting domain, which always participates), and
    the results are delivered in submission order.  Because every task is a
    pure function of its input, the value returned by {!map_array} is
    bit-identical to a sequential [Array.map] at any [jobs] setting — the
    search algorithms in [Vis_core] rely on this to keep their optima, costs
    and counter totals independent of the degree of parallelism.

    Guarantees:
    - {b Deterministic results.} [map_array pool f a] equals
      [Array.map f a] element for element, regardless of [jobs], chunking,
      or scheduling.
    - {b Deterministic exceptions.} If several tasks raise, the exception
      propagated to the submitter is the one from the lowest-numbered chunk
      (and, within a chunk, the first element that raised) — the same
      exception a sequential run would have produced first.  The remaining
      chunks still run to completion, so the pool stays reusable.
    - {b No deadlocks on degenerate input.} Empty batches return
      immediately; a pool with [jobs = 1] never spawns a domain and runs
      everything inline on the caller.

    Restrictions: batches must be submitted from the domain that created the
    pool, one at a time (the search algorithms are sequential coordinators
    that fan out hot loops, so this is not limiting).  Task functions must
    not themselves submit work to the same pool.

    {2 The sharding contract}

    The searches in [Vis_core] use the pool for {e coarse-grained sharding}:
    the coordinator cuts its state space into shards whose boundaries depend
    only on the problem (never on [jobs]), submits one batch per exchange
    round with one chunk per shard, and merges shard-local results in shard
    index order at the barrier [run] provides.  Under that discipline the
    pool adds no nondeterminism of its own:

    - chunk [c] always receives the same work — [jobs] only decides which
      domain happens to execute it;
    - shard-local mutable state (queues, counters, evaluator chains) is
      touched by exactly one chunk per batch, so it needs no locks;
    - anything cross-shard (incumbent bounds, counter totals) is exchanged
      only at the barrier, by the coordinator, in a fixed order.

    A* shards its frontier by configuration-mask prefix and exhaustive
    search shards the enumeration order (see [Vis_core.Astar] and
    [Vis_core.Exhaustive], which depend on this library and document the
    per-search shapes); both inherit their bit-identity guarantee at any
    [jobs] setting from this contract. *)

type pool

(** [default_jobs ()] is the pool width used when none is given explicitly:
    the [VISMAT_JOBS] environment variable when set to a positive integer,
    otherwise [Domain.recommended_domain_count ()]. *)
val default_jobs : unit -> int

(** [create ?jobs ()] spawns [jobs - 1] worker domains (default
    {!default_jobs}; values [< 1] are clamped to 1).  The caller's domain is
    the remaining worker, so [jobs] bounds total concurrency. *)
val create : ?jobs:int -> unit -> pool

(** Worker-slot count of the pool (including the submitting domain). *)
val jobs : pool -> int

(** [shutdown pool] terminates and joins the worker domains.  Idempotent.
    Submitting to a shut-down pool runs the batch inline on the caller. *)
val shutdown : pool -> unit

(** [with_pool ?jobs f] runs [f] with a fresh pool and always shuts it down,
    even when [f] raises. *)
val with_pool : ?jobs:int -> (pool -> 'a) -> 'a

(** [using ?jobs ?pool f] runs [f] with [pool] when given (borrowed — not
    shut down), otherwise behaves like [with_pool ?jobs f].  Lets nested
    algorithms (e.g. the greedy seed inside the A* search) share their
    caller's workers. *)
val using : ?jobs:int -> ?pool:pool -> (pool -> 'a) -> 'a

(** [concurrent ()] is [true] while some batch of any pool runs on more
    than one domain: from before its job is published until after its
    drain barrier, also when a chunk raised.  Batches of a [jobs = 1] pool
    and single-chunk batches run inline on the caller and never set it.
    This module holds the library's only [Domain.spawn], so while
    [concurrent ()] is [false] the caller's domain is the only one running:
    shared structures that are never handed to another domain by hand (the
    cost model's memo cache) skip their locks then. *)
val concurrent : unit -> bool

(** [run pool ~chunks f] executes [f 0 .. f (chunks - 1)] exactly once
    each, in parallel, and returns when all are done.  The low-level
    primitive under the maps. *)
val run : pool -> chunks:int -> (int -> unit) -> unit

(** [map_array ?chunk pool f a] is [Array.map f a] computed in parallel.
    [chunk] overrides the number of consecutive elements a worker claims at
    a time (default: [length / (8 * jobs)], at least 1). *)
val map_array : ?chunk:int -> pool -> ('a -> 'b) -> 'a array -> 'b array

(** [map_list pool f l] is [List.map f l] computed in parallel. *)
val map_list : pool -> ('a -> 'b) -> 'a list -> 'b list

(** [run_tasks pool tasks] runs each thunk once with one chunk per thunk
    and returns their results in task order.  Because no chunk ever holds
    two tasks, a thunk may freely mutate state that no other thunk touches
    (e.g. the advisor service refreshing disjoint per-tenant warehouses in
    one round); results and the propagated exception (lowest task index)
    are deterministic at any pool width.  The usual pool rules apply:
    submit only from the pool's creating domain, and tasks must not submit
    to the same pool. *)
val run_tasks : pool -> (unit -> 'a) array -> 'a array

(** [map_init ?chunk pool ~init f a] is {!map_array} where each chunk first
    builds a private context [ctx = init ()] and maps its elements with
    [f ctx].  Used to give every worker its own evaluator (memoizers with
    single-domain mutable state) while the mapped results stay pure. *)
val map_init :
  ?chunk:int -> pool -> init:(unit -> 'c) -> ('c -> 'a -> 'b) -> 'a array ->
  'b array

(** {1 Work accounting} *)

(** [work_counts pool] is a snapshot of how many chunks each worker slot has
    executed since creation; slot 0 is the submitting domain.  Diff two
    snapshots to attribute work to one algorithm run. *)
val work_counts : pool -> int array

(** [diff_counts ~before ~after] is the per-slot difference of two
    {!work_counts} snapshots. *)
val diff_counts : before:int array -> after:int array -> int array

(** [simulate_schedule ~jobs weights] is the span (makespan, in the same
    units as [weights]) of running tasks of the given costs on [jobs]
    workers under {!run}'s claim-in-order discipline: task [i] goes to the
    worker that frees up first.  A deterministic, machine-independent model
    of one batch — the searches feed it their per-shard work counts to
    report an achievable-speedup figure that does not depend on the host's
    core count (see [Vis_core.Search_stats.modeled_speedup]). *)
val simulate_schedule : jobs:int -> int array -> int
