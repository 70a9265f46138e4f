(** The exhaustive baseline of Section 2: every subset of the candidate
    supporting views crossed with every subset of the candidate indexes of
    that view state.  Intractable beyond small problems, but the reference
    for verifying optimality of A* and the generator for the per-view-set
    statistics of Figure 4 and the space/cost Pareto set of Figure 10. *)

exception Too_large of float
(** Raised by {!search} when the state count exceeds [max_states]. *)

type result = {
  best : Vis_costmodel.Config.t;
  best_cost : float;
  states : int;  (** configurations whose total cost was computed *)
  view_states : int;  (** view subsets enumerated *)
  search_stats : Search_stats.t;  (** enumeration counters and timing *)
}

(** [count_states p] is the number of (view set, index set) states the
    exhaustive algorithm visits, as a float (it can be astronomically
    large). *)
val count_states : Problem.t -> float

(** [search ?jobs ?max_states p] enumerates everything (default cap:
    2,000,000 states), sharding the state space over the worker pool
    (default width {!Vis_util.Parallel.default_jobs}).

    The sharding follows the contract documented in {!Vis_util.Parallel}:
    the state space is cut into ~64 contiguous ranges of the sequential
    enumeration order (never crossing a view-subset boundary, so each shard
    costs one eligible-index universe), and the cut points depend only on the problem — never on
    [jobs].  Shards share a lock-free incumbent bound; ties against the
    bound are kept and the shard results are merged by (cost, sequential
    position), so the configuration returned — and every counter — is
    identical to a sequential run at any [jobs] setting.  Per-shard state
    counts are recorded as one exchange round, feeding
    {!Search_stats.modeled_speedup}. *)
val search : ?jobs:int -> ?max_states:int -> Problem.t -> result

(** [enumerate p ~f] calls [f config ~cost ~space] for every state and
    returns the number of states. *)
val enumerate :
  Problem.t -> f:(Vis_costmodel.Config.t -> cost:float -> space:float -> unit) -> int

(** [best_indexes_for_views p views] fixes the view set and searches only the
    index subsets; returns the best configuration, its cost, and the number
    of index states tried. *)
val best_indexes_for_views :
  Problem.t -> Vis_util.Bitset.t list -> Vis_costmodel.Config.t * float * int

(** [worst_indexes_for_views p views] — the {e maximum} cost over index
    subsets, used for the cost ranges of Figure 4. *)
val worst_indexes_for_views :
  Problem.t -> Vis_util.Bitset.t list -> Vis_costmodel.Config.t * float * int

(** [per_view_set p] lists every view subset with its best and worst total
    cost over index subsets, sorted by best cost (Figure 4's bars). *)
val per_view_set :
  Problem.t -> (Vis_util.Bitset.t list * float * float) list
