(** Synthetic data and delta batches realizing a schema's statistics, for
    executing maintenance plans on the storage engine.

    Value conventions (shared with the executor in [vis_maintenance]):
    - key attributes hold distinct consecutive integers starting at 0;
    - a foreign-key attribute (the non-key side of a join whose other side
      is the referenced relation's key) holds a uniformly drawn existing key
      of the referenced relation;
    - a selection attribute holds a uniform value in [0, 1000); a tuple
      passes the condition when the value is below [selectivity · 1000];
    - remaining attributes are payload and may be changed by protected
      updates.

    [generate] raises [Unsupported] for joins where neither side is the
    other relation's key, or when an attribute would need to be both a key
    and a foreign key (e.g. the literal Figure 5 schema, where [S.S0 =
    T.T0] equates two keys) — use {!Schemas.validation} for executable
    instances. *)

exception Unsupported of string

(** Domain of selection attributes; predicates compare against
    [selectivity · resolution]. *)
val sel_resolution : int

type dataset = {
  ds_tuples : int array list array;
      (** per relation, in strictly ascending key order *)
  ds_next_key : int array;  (** first unused key per relation *)
}

type batch = {
  b_ins : int array list array;  (** fresh tuples per relation *)
  b_del : int list array;  (** keys to delete, per relation *)
  b_upd : (int * int array) list array;
      (** (key, replacement tuple) — only payload attributes differ *)
}

val generate : rng:Random.State.t -> Vis_catalog.Schema.t -> dataset

(** [deltas ~rng schema dataset] draws a batch with the sizes of the
    schema's delta statistics (rounded); deleted and updated keys are
    distinct existing keys. *)
val deltas : rng:Random.State.t -> Vis_catalog.Schema.t -> dataset -> batch

(** [apply schema dataset batch] — the dataset after the engine applies
    [batch]: tuples with deleted keys removed, updated keys replaced by
    their replacement tuples, inserts appended (their keys continue from
    [ds_next_key], so the key-sorted invariant holds).  Deletes win over
    updates of the same key, the last update of a key wins, and deletes
    and updates of absent keys do nothing.  A thin wrapper over
    {!Mirror.apply}: O(n) per call for the conversions, and it raises
    [Invalid_argument] where {!Mirror.of_dataset} or {!Mirror.apply} do. *)
val apply : Vis_catalog.Schema.t -> dataset -> batch -> dataset

(** [deltas_evolving ~rng schema dataset] is {!deltas} for long-running
    streams: deleted and updated keys are sampled from the tuples actually
    present (by position, not by raw key), so it stays correct after
    earlier batches have made the key space sparse — where {!deltas} would
    draw dangling keys.  Counts still follow the schema's delta statistics,
    capped by the live population.  Draws a disjoint delete/update set per
    relation; deterministic in [rng].  A thin wrapper over
    {!Mirror.deltas}. *)
val deltas_evolving :
  rng:Random.State.t -> Vis_catalog.Schema.t -> dataset -> batch

(** The order-statistic logical mirror: a dataset that advances in place,
    one batch at a time, in time that depends on the batch and not on the
    data — the logical copy of a tenant's bases the advisor service keeps
    so a configuration swap can rebuild a warehouse at the stream's
    current contents.

    Each relation keeps a key-ascending slot array of tuples with a live
    flag and a Fenwick tree over the live counts, so drawing a delete or
    update by position (rank among the live tuples) costs O(log n), a
    delete or update finds its key by binary search, and an insert
    appends.  When at least a quarter of a relation's slots are dead it is
    compacted, so after every {!Mirror.apply} its slots stay below
    [4/3 · live] (and below [4/3 · live + batch] in between), and no dead
    slot lives forever.

    {!Mirror.deltas} and {!Mirror.apply} give exactly the results of the
    list-level {!deltas_evolving} and {!val-apply}, RNG draws included;
    the test suite checks them, batch by batch, against a list reference
    that copies and rebuilds the dataset per batch. *)
module Mirror : sig
  type t

  (** [of_dataset schema ds] — the mirror of [ds].  Tuple shapes (roles,
      foreign-key ranges, protected payload) are resolved from [schema]
      once.  Raises [Invalid_argument] when a relation's keys do not
      strictly ascend. *)
  val of_dataset : Vis_catalog.Schema.t -> dataset -> t

  (** The live tuples in key order, and the next key per relation. *)
  val to_dataset : t -> dataset

  (** [deltas ~rng schema m] — {!deltas_evolving} on [to_dataset m],
      without the conversion.  [schema] supplies the delta statistics only
      (a {!Vis_catalog.Schema.scale_deltas} of the mirror's schema, say);
      tuples are drawn with the mirror's own shapes.  Raises
      [Invalid_argument] when its relation count differs. *)
  val deltas : rng:Random.State.t -> Vis_catalog.Schema.t -> t -> batch

  (** [apply m batch] advances [m] in place, as the list-level [apply]
      does its dataset: O(batch · log n), amortized over compactions and
      growth.  Raises
      [Invalid_argument], leaving [m] unchanged, when an insert's key is
      not above every key stored in its relation (inserts arrive in
      ascending key order) or an update's replacement carries another key
      than the one it updates. *)
  val apply : t -> batch -> unit

  (** [live m rel] — the relation's tuple count. *)
  val live : t -> int -> int

  (** [slots m rel] — its slot count, live and dead. *)
  val slots : t -> int -> int

  (** [next_key m rel] — the relation's first unused key. *)
  val next_key : t -> int -> int
end

(** [key_pos schema rel] — the position of [rel]'s key attribute in its
    tuples. *)
val key_pos : Vis_catalog.Schema.t -> int -> int

(** [batch_rows b] — total delta rows (inserts + deletes + updates) across
    all relations, the unit of the service's rate monitoring. *)
val batch_rows : batch -> int

(** [passes_selections schema ~rel tuple] — whether the tuple satisfies every
    local selection of its relation. *)
val passes_selections : Vis_catalog.Schema.t -> rel:int -> int array -> bool

(** [protected_attrs schema rel] — attribute names of [rel] that are neither
    its key, nor join attributes, nor selection attributes. *)
val protected_attrs : Vis_catalog.Schema.t -> int -> string list
