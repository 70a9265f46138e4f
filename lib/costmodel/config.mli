(** A physical configuration: the set of materialized supporting views and
    the set of indexes.  Base relations and the primary view are always
    materialized and are not part of the configuration (Section 4.1); indexes
    on them are.

    Configurations are immutable; [add_*]/[remove_*] return new values.
    Views and indexes are kept sorted so that [signature] is canonical. *)

(** A candidate feature of the search space: a supporting view to
    materialize, an index to build, or page-level compression to enable on
    an always-materialized element ([F_compress] — fewer I/Os per access,
    more CPU per page; see {!Cost.compress_page_ratio}).  Lives here
    (rather than in the search layer) so the cost model can key its memo
    cache by the features a configuration holds;
    [Vis_core.Problem.feature] re-exports the constructors. *)
type feature =
  | F_view of Vis_util.Bitset.t
  | F_index of Element.index
  | F_compress of Element.t

(** The base relations a feature's maintenance depends on: the view's
    relation set, or the indexed element's. *)
val feature_rels : feature -> Vis_util.Bitset.t

val equal_feature : feature -> feature -> bool

type t

val empty : t

val make : views:Vis_util.Bitset.t list -> indexes:Element.index list -> t

val views : t -> Vis_util.Bitset.t list

val indexes : t -> Element.index list

val has_view : t -> Vis_util.Bitset.t -> bool

val has_index : t -> Element.t -> Element.attr -> bool

(** [indexes_on c elem] is the attributes indexed on [elem]. *)
val indexes_on : t -> Element.t -> Element.attr list

val add_view : t -> Vis_util.Bitset.t -> t

val remove_view : t -> Vis_util.Bitset.t -> t

val add_index : t -> Element.index -> t

val remove_index : t -> Element.index -> t

(** {2 Page-level compression}

    Elements stored compressed: roughly half the pages
    ({!Cost.compress_page_ratio}), at a CPU surcharge per page read or
    written.  [make] starts with no compression; the set is sorted and
    canonical like views and indexes. *)

val compress : t -> Element.t list

val has_compress : t -> Element.t -> bool

val add_compress : t -> Element.t -> t

val remove_compress : t -> Element.t -> t

val equal : t -> t -> bool

(** [restrict c ~rels] keeps only the features relevant to maintaining a view
    over [rels]: views whose relation set is contained in [rels] and indexes
    whose element's relation set is contained in [rels].  Used as a
    memoization key so that configurations differing only in irrelevant
    features share cost evaluations. *)
val restrict : t -> rels:Vis_util.Bitset.t -> t

(** [space derived c] is the additional storage, in pages, of every view and
    index in the configuration. *)
val space : Vis_catalog.Derived.t -> t -> float

(** Canonical textual form, suitable as a hash key. *)
val signature : t -> string

(** [describe schema c] renders the configuration for humans, e.g.
    ["views: σT, ST; indexes: ix(V, R.R0), ix(ST, S.S1)"]. *)
val describe : Vis_catalog.Schema.t -> t -> string
