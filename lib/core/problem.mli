(** A VIS problem instance: the schema plus the enumerated candidate
    supporting views and candidate indexes (Sections 2.1.1–2.1.2), and the
    feature order used by the search algorithms.

    Candidate views are the nodes of the primary view's expression DAG: every
    proper non-empty subset of the base relations (each with its local
    selections pushed down), except bare single relations without a selection
    — those are already stored.  With [connected_only] the cross-product
    nodes (e.g. [RT'] in the paper's Figure 3) are excluded; the paper keeps
    them, so the default is [false].

    Candidate indexes follow [FST88] as restricted by Section 3.1:
    - on a base relation: its key (when it receives deletions or updates),
      its attributes with join predicates, and its attributes with local
      selection predicates;
    - on the primary view or a supporting view [w]: the keys of base
      relations in [w] that receive deletions or updates, and attributes of
      relations in [w] joined to relations outside [w]. *)

type feature = Vis_costmodel.Config.feature =
  | F_view of Vis_util.Bitset.t
  | F_index of Vis_costmodel.Element.index
  | F_compress of Vis_costmodel.Element.t

(** A workload-mined restriction of the candidate space (see
    {!Vis_workload.Miner}): the supporting views and the query-driven index
    attributes the workload justifies.  [make ?candidates] intersects the
    structural enumeration with this set — it never adds candidates the
    schema would not generate — and maintenance-driven key attributes
    (relations receiving deletions or updates) are always kept regardless,
    since they serve refresh rather than queries.  A candidate set covering
    the full enumeration yields a problem bit-identical to the
    unrestricted one. *)
type candidates = {
  cand_views : Vis_util.Bitset.t list;
      (** allowed supporting-view relation sets *)
  cand_attrs : (int * string) list;
      (** allowed query-driven index attributes, as [(relation, attr)] *)
}

type t = {
  schema : Vis_catalog.Schema.t;
  derived : Vis_catalog.Derived.t;
  cache : Vis_costmodel.Cost.cache;
  share_cache : bool;
      (** when false, {!evaluator} gives every configuration a private cache
          — the memoization ablation used by tests and the benchmark *)
  candidate_views : Vis_util.Bitset.t list;  (** sorted by cardinality *)
  compress_elems : Vis_costmodel.Element.t list;
      (** page-compression candidates — the always-materialized elements
          (base replicas and the primary view); empty unless [make] was
          given [~compression:true] *)
  features : feature list;
      (** every candidate feature, topologically ordered for the paper's
          partial order ≺: subviews before superviews, every element before
          its indexes, compression then base-relation and primary-view
          indexes first (all state-independent) *)
  encoding : unit option;
      (** a class label only, read by the wall-clock benchmark as
          "packed" ([Some ()]) or "structural" ([None]): [Some ()] exactly
          when the problem shares its cache and has at most 62 features.
          Every problem keys its memo cache the same way (see
          {!Vis_costmodel.Cost.create}). *)
  restricted : candidates option;
      (** the mined candidate restriction [make] was given, if any; consulted
          by {!candidate_indexes_on} so index enumeration and validation stay
          consistent with the restricted feature list *)
}

(** [make schema] enumerates the candidates.  [max_view_rels] caps candidate
    supporting views to subsets of at most that many relations — the
    candidate-pruning knob for star/snowflake schemas whose full subset
    lattice is intractable; the always-on base and primary-view indexes are
    unaffected, and the default ([None]) keeps the paper's complete
    enumeration.  [share_cache] (default true) makes every {!evaluator}
    share one {!Vis_costmodel.Cost.cache}, so cost derivations are reused
    across the many configurations a search visits; disabling it isolates
    each evaluation (for measuring what memoization saves).  [compression]
    (default false) adds an [F_compress] candidate per always-materialized
    element — a new axis the searches trade on: compressed elements cost
    roughly half the I/Os but a CPU surcharge per page (see
    {!Vis_costmodel.Cost.compress_page_ratio}); the default keeps the
    search space and every cost bitwise identical to a compression-free
    problem.  [candidates] (default [None] — exhaustive enumeration)
    restricts the space to a workload-mined {!candidates} set; all searches
    then run on the pruned universe. *)
val make :
  ?connected_only:bool ->
  ?max_view_rels:int ->
  ?share_cache:bool ->
  ?compression:bool ->
  ?candidates:candidates ->
  Vis_catalog.Schema.t ->
  t

(** [candidate_indexes_on p elem] enumerates candidate indexes for one
    element ([Base _], a candidate view, or the primary view). *)
val candidate_indexes_on : t -> Vis_costmodel.Element.t -> Vis_costmodel.Element.index list

(** [always_on_indexes p] is the candidate indexes on elements that are
    always materialized: the base relations and the primary view. *)
val always_on_indexes : t -> Vis_costmodel.Element.index list

(** [indexes_for_views p views] is [always_on_indexes] plus the candidate
    indexes of each view in [views] — the index search space of a given view
    state. *)
val indexes_for_views : t -> Vis_util.Bitset.t list -> Vis_costmodel.Element.index list

(** The problem's [F_compress] candidate elements (empty without
    [~compression:true]). *)
val compress_candidates : t -> Vis_costmodel.Element.t list

(** [extra_features_for_views p views] is the non-view features applicable
    in a state materializing exactly [views]: candidate indexes for that
    view state plus every compression candidate.  The exhaustive search
    enumerates subsets of this list per view state. *)
val extra_features_for_views : t -> Vis_util.Bitset.t list -> feature list

(** [evaluator p config] is a cost evaluator sharing the problem's cache. *)
val evaluator : t -> Vis_costmodel.Config.t -> Vis_costmodel.Cost.t

(** [total p config] is the total maintenance cost of [config]. *)
val total : t -> Vis_costmodel.Config.t -> float

(** [feature_space p f] is the storage footprint of a feature, in pages. *)
val feature_space : t -> feature -> float

val feature_name : t -> feature -> string

val equal_feature : feature -> feature -> bool

(** [has_feature config f]: does [config] materialize [f]? *)
val has_feature : Vis_costmodel.Config.t -> feature -> bool

(** [applicable p config f]: can [f] be added to [config]?  An index on a
    candidate view requires the view to be materialized. *)
val applicable : t -> Vis_costmodel.Config.t -> feature -> bool

val add_feature : Vis_costmodel.Config.t -> feature -> Vis_costmodel.Config.t

(** [drop_feature config f] removes [f]; dropping a view also drops the
    indexes built on it. *)
val drop_feature : Vis_costmodel.Config.t -> feature -> Vis_costmodel.Config.t

(** [valid_config p config] checks that a configuration only uses candidate
    views and candidate indexes, and that each index's element is
    materialized. *)
val valid_config : t -> Vis_costmodel.Config.t -> bool
