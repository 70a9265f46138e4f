(** The Appendix-A maintenance cost model.

    Costs are estimated page I/Os for one refresh batch.  The evaluator binds
    a schema's derived statistics to a physical configuration; the total cost
    [C(M')] of the paper is {!total}: the sum of maintaining every base
    relation, the primary view, every supporting view, and every index.

    Maintenance of a view [V] for deltas of a base relation [R ∈ R(V)]
    follows Table 4:
    - insertions: [Eval(ΔR ⋈ …)] over the best update path (answering the
      maintenance expression from base relations, materialized subviews, and
      saved deltas of materialized subviews — the paper's limited
      multiple-query optimization) + appending the result + saving it for
      reuse (supporting views only) + updating [V]'s indexes;
    - deletions: locating the affected tuples by a key-attribute index
      semijoin or by scanning [V], + deleting them + updating indexes;
    - protected updates: like deletions but without index maintenance.

    The plan space of [Eval] is searched exhaustively by dynamic programming
    over covered relation subsets with left-deep joins, costing nested-block
    and index joins per Table 5.

    {b Memoization.}  Evaluations are memoized in a {!cache} keyed by the
    configuration restricted to the features that can influence the
    expression (see {!Config.restrict}), so search algorithms evaluating
    many configurations share work.  The cache interns each (element,
    restricted configuration) pair to a dense int id — equal pairs get equal
    ids, at any number of features — and each evaluator computes an
    element's id at most once.  A memo key is [(id, kind, relation)] packed
    into one word and looked up in a flat open-addressing table, so a
    lookup hashes no list and allocates nothing.  The cache's locks are
    taken only while a multi-domain {!Vis_util.Parallel} batch runs
    ({!Vis_util.Parallel.concurrent}); a jobs-1 search takes none.

    [Eval] runs in two parts.  The {e skeleton} of a (target relation set,
    delta relation) pair holds everything that does not depend on the
    configuration: the dense subset codes, each code's delta-result tuples,
    pages and [ceil (pages / P_m)] blocks, and every join unit's mask, size
    and join-probe candidates (base units up front, view units on first
    use).  It is built once per {!cache} — a cache serves one derived
    schema — and shared by all its evaluators and domains; it is not
    counted in {!cache_stats}.  The {e relaxation} of one configuration
    keeps the candidates whose index exists, prices each unit's inner side
    with its compression factor, and relaxes the subset DP over arrays,
    building the plan once at the end.  The split is exact: every cost is
    the same float expression, evaluated in the same order with the same
    strict-[<] tie order (nested-block join before index probes; base units
    in descending relation order, then the configuration's views), so
    costs and plans are bit-identical to a single-pass DP whether the
    skeleton is fresh or reused, at any [--jobs]. *)

type cache

(** [new_cache ?capacity ()] is a fresh shared store.  With [capacity] the
    cache is bounded: when full, the oldest entry is evicted (FIFO) and
    counted; without it the cache grows with the distinct evaluations.  The
    search algorithms share one unbounded cache per problem by default.

    The cache is safe for concurrent use from multiple domains: it is
    striped, and while a multi-domain {!Vis_util.Parallel} batch runs every
    access takes its stripe's lock, so [cs_hits + cs_misses] equals the
    number of lookups exactly even under contention.  Outside such batches
    only the caller's domain runs and no lock is taken.  A bounded cache
    distributes [capacity] over the stripes, so the total entry count never
    exceeds [capacity]; its intern table is bounded too (to [4 * capacity]
    edges), so its memory does not grow with the configurations seen. *)
val new_cache : ?capacity:int -> unit -> cache

(** Observability counters of a shared cache.  [cs_misses] is the number of
    cost derivations actually performed; [cs_hits] the number a fresh cache
    would have re-derived — so the cache cut cost-model work by the factor
    [(cs_hits + cs_misses) / cs_misses]. *)
type cache_stats = {
  cs_hits : int;
  cs_misses : int;
  cs_evictions : int;
  cs_entries : int;  (** entries currently stored *)
}

val cache_stats : cache -> cache_stats

(** Fraction of lookups served from the store, in [0, 1]; 0 when no lookup
    happened yet. *)
val hit_rate : cache_stats -> float

(** Zero the hit/miss/eviction counters without dropping entries — for
    measuring one search phase in isolation. *)
val reset_cache_stats : cache -> unit

val cache_stats_json : cache -> Vis_util.Json.t

type t

(** [create ?cache derived config] binds the evaluator.  Without [cache] a
    private one is created.  An evaluator holds per-element interned ids in
    mutable state: use it from one domain at a time. *)
val create : ?cache:cache -> Vis_catalog.Derived.t -> Config.t -> t

val config : t -> Config.t

val derived : t -> Vis_catalog.Derived.t

(** {1 Page-level compression}

    A compressed element ({!Config.compress}) stores its tuples in
    [compress_page_ratio] of the pages.  The model charges this as linear
    per-page factors at every site touching the element's data pages:
    reads cost [compress_read_factor] (fewer I/Os plus decode CPU, net
    win) and writes cost [compress_write_factor] (encode CPU outweighs
    the I/O saving) per uncompressed-equivalent page.  Index pages,
    shipped deltas, and saved deltas are never compressed.  With no
    compressed elements all factors are [1.0] and every formula is
    bitwise identical to the uncompressed model. *)

val compress_page_ratio : float

val compress_read_factor : float

val compress_write_factor : float

(** {1 Plans} *)

type join_method =
  | Nbj  (** nested-block join with the (small) delta as the outer *)
  | Index_join of Element.index
      (** probe [ix] on the inner element per outer tuple *)

type ins_start =
  | From_delta  (** start from the shipped delta [ΔR] *)
  | From_saved of Vis_util.Bitset.t
      (** reuse the saved insertion delta [ΔV'^save_R] of materialized
          subview [V'] *)

type ins_plan = {
  ip_start : ins_start;
  ip_steps : (Element.t * join_method) list;  (** in join order *)
}

type locate_method =
  | Loc_scan  (** scan the view, semijoin in memory *)
  | Loc_key_index of Element.index  (** probe the key index per delta tuple *)

(** Cost breakdown of propagating one delta type of one relation onto one
    element (Table 4's [Prop_*]). *)
type prop = {
  p_eval : float;  (** computing the delta result *)
  p_apply : float;  (** applying it to the stored element *)
  p_save : float;  (** saving [ΔV^save] for reuse (insertions only) *)
  p_index : float;  (** maintaining the element's indexes *)
  p_result_tuples : float;  (** size of the delta result *)
}

val prop_total : prop -> float

(** {1 Costs} *)

(** [prop_ins t ~target ~rel] is the cost of propagating insertions of
    [rel] onto [target], with the winning update path.  Zero-cost with an
    empty plan when the relation has no insertions. *)
val prop_ins : t -> target:Element.t -> rel:int -> prop * ins_plan

(** [prop_del t ~target ~rel] — deletions, with the winning locate method. *)
val prop_del : t -> target:Element.t -> rel:int -> prop * locate_method

(** [prop_upd t ~target ~rel] — protected updates. *)
val prop_upd : t -> target:Element.t -> rel:int -> prop * locate_method

(** [element_cost t elem] sums [Prop_ins + Prop_del + Prop_upd] over the base
    relations of [elem] (Table 4's [Cost_v(V)]). *)
val element_cost : t -> Element.t -> float

(** [index_maint_cost t ix] is the index's own share of the maintenance cost:
    the [Apply_ix] terms it contributes for insertions and deletions
    propagated to its element. *)
val index_maint_cost : t -> Element.index -> float

(** [maintained_elements t] is every element whose maintenance [total]
    charges: all base relations, all supporting views of the configuration,
    and the primary view. *)
val maintained_elements : t -> Element.t list

(** [total t] is [C(M')]: the total maintenance cost of the warehouse under
    the evaluator's configuration. *)
val total : t -> float

(** [total_of ?cache derived config] is a convenience for
    [total (create ?cache derived config)]. *)
val total_of : ?cache:cache -> Vis_catalog.Derived.t -> Config.t -> float

(** {1 Rendering} *)

val pp_ins_plan :
  Vis_catalog.Schema.t -> target:Element.t -> rel:int -> Format.formatter -> ins_plan -> unit
