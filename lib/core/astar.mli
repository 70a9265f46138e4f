(** The optimal A*-based algorithm of Section 4, with a coarse-grained
    sharded parallel mode and a budgeted anytime/beam mode.

    Partial states consider the problem's features in one fixed topological
    order consistent with the paper's partial order ≺ (subviews before
    superviews, elements before their indexes); each expansion branches on
    materializing or rejecting the next feature.  A state's priority is
    [ĉ = g + ĥ]:

    - [g] is the exact total maintenance cost of the configuration chosen so
      far (bases and the primary view included);
    - [ĥ ≤ 0] lower-bounds the effect of the remaining features:
      [Σ min(0, lb_cost(m) − max_benefit(m, M'))] over the not-yet-considered
      features still eligible.  [lb_cost(m)] is [m]'s maintenance cost with
      {e every} candidate structure materialized (the cheapest any completion
      can make it, index-maintenance excluded for views since indexes carry
      their own cost).  [max_benefit(m, M')] bounds the reduction [m] can
      bring to other views' maintenance: for each affected maintenance
      expression it charges that expression's {e current} evaluation cost
      under [M'] (a true upper bound because costs only decrease as features
      are added), plus the closed-form key-index saving of Section 4.1.

    This [ĥ] differs from the paper's in one respect recorded in DESIGN.md:
    each term is clamped at zero, which restores admissibility when a
    feature's cost exceeds its maximum benefit.  Optimality against
    exhaustive search is verified in the test suite.

    {2 The sharded parallel search}

    Small problems run the classic single-queue loop.  Problems that retain
    at least 32 features after dominance pruning (or any problem when
    [~shard:true] is forced) run the coarse-grained mode instead:

    + a sequential {e prefix} BFS over the first (up to) 6 feature
      decisions partitions the frontier by configuration-mask prefix; each
      level's successor evaluations fan out over the worker pool as one
      pure batch, and are committed in batch order;
    + every surviving prefix state seeds one {e shard} — a private A*
      sub-frontier with its own priority queue, counters and popped-[ĉ]
      audit trail;
    + the shards then run in {e exchange rounds}: one pool batch per round,
      one chunk per live shard, each chunk expanding up to a fixed quantum
      of states against the round-start incumbent bound (improved locally
      when the shard itself finds a completion).  At the barrier the
      coordinator merges counters and incumbents {e in shard order} and
      redistributes the tightened bound; a shard whose queue minimum
      exceeds the fresh bound discards its remaining states
      (["stale-bound"]).

    Chunk boundaries, per-shard work and merge order are all independent of
    the pool width (the sharding contract of {!Vis_util.Parallel}), so the
    optimum, its cost and {e every counter} are bit-identical at any [jobs]
    setting — the property the fuzzer's parallel-determinism oracle checks.
    Per-round work counts are recorded in {!Search_stats} for the
    machine-independent modeled speedup
    ({!Search_stats.modeled_speedup}). *)

type stats = {
  expanded : int;  (** partial states popped from the queue *)
  generated : int;  (** partial states pushed onto the queue *)
  exhaustive_states : float;
      (** size of the exhaustive search space, for pruning ratios *)
}

type result = {
  best : Vis_costmodel.Config.t;
  best_cost : float;
  stats : stats;
  search_stats : Search_stats.t;
      (** the full scoreboard: per-rule pruning counts (dominance,
          incumbent-bound, ineligible-index, stale-bound, beam-width,
          expansion-budget), frontier high-water mark, exchange rounds,
          per-phase timings, and the popped-[ĉ] admissibility audit *)
}

(** What a search proved about its answer.  [Optimal] means no reachable
    configuration can cost less (up to the 1e-9 tie epsilon used
    throughout).  [Bounded] is returned by {!search_budgeted} when the
    expansion budget or the beam discarded states that could — as far as
    the admissible [ĉ] can tell — still have improved on the answer:
    [lower_bound] is the smallest such discarded [ĉ] (a true lower bound on
    the unexplored optimum), and [gap = (best_cost − lower_bound) /
    best_cost] is the relative optimality gap. *)
type certificate = Optimal | Bounded of { lower_bound : float; gap : float }

exception Budget_exceeded of stats

(** [search ?max_expanded ?jobs ?shard p] runs A* to optimality.  Raises
    {!Budget_exceeded} after expanding more than [max_expanded] states
    (default 5,000,000).

    [jobs] (default {!Vis_util.Parallel.default_jobs}) sets the worker-pool
    width used for the per-feature precomputation, the greedy seed, the
    prefix successor batches and the shard rounds.  All parallel work is
    pure cost-model evaluation or shard-private queue manipulation; every
    cross-shard exchange happens on the coordinating domain in shard order,
    so results and counters are identical at any [jobs] setting.

    [shard] forces the coarse-grained sharded mode on ([Some true]) or off
    ([Some false]); by default problems with ≥ 32 post-dominance features
    shard and smaller ones use the single-queue loop.  Both modes prove the
    same optimum; they differ in traversal order, so per-rule pruning
    counts differ {e between} modes (never between pool widths).

    [warm_start] supplies a known-good configuration — typically the
    incumbent design of a running advisor when delta rates have drifted —
    whose cost seeds the upper bound (and the returned incumbent) when it
    beats the greedy seed.  A configuration whose features are not all
    candidates of [p] is silently ignored, so a mask optimized for a
    differently-scaled {!Vis_catalog.Schema.t} can be passed as-is.  The
    bound only tightens: the optimum is unchanged, and results stay
    bit-identical at any [jobs]. *)
val search :
  ?max_expanded:int ->
  ?jobs:int ->
  ?shard:bool ->
  ?warm_start:Vis_costmodel.Config.t ->
  Problem.t ->
  result

(** [search_budgeted ?max_expanded ?beam ?jobs ?shard p] is the anytime
    variant: instead of raising, it always returns the best configuration
    found plus a {!certificate}.

    [max_expanded] bounds expansions as in {!search}; when it trips, the
    incumbent (never worse than the greedy seed) is returned with a
    [Bounded] certificate whose [lower_bound] accounts for every state
    still on the frontier.  Under sharding the budget is checked at
    exchange-round granularity, so the final count can overshoot by up to
    one round.

    [beam] caps every frontier (each shard's, in sharded mode) at that many
    states: once a queue exceeds twice the beam it is trimmed back to the
    [beam] best entries, the discarded minimum feeding the certificate's
    [lower_bound].  A finished beam search whose discarded states all had
    [ĉ ≥ best_cost] still earns [Optimal].

    [warm_start] behaves as in {!search}: a valid configuration that beats
    the greedy seed becomes the initial incumbent, which matters most here —
    a budget-bounded search can then never return a design worse than the
    one the caller already runs.

    Raises [Invalid_argument] if [beam < 1]. *)
val search_budgeted :
  ?max_expanded:int ->
  ?beam:int ->
  ?jobs:int ->
  ?shard:bool ->
  ?warm_start:Vis_costmodel.Config.t ->
  Problem.t ->
  result * certificate
