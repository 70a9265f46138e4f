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
  ds_tuples : int array list array;  (** per relation, in key order *)
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
    [ds_next_key], so the key-sorted invariant holds).  This is the logical
    mirror the advisor service keeps per tenant so a configuration swap can
    rebuild a warehouse at the stream's current contents. *)
val apply : Vis_catalog.Schema.t -> dataset -> batch -> dataset

(** [deltas_evolving ~rng schema dataset] is {!deltas} for long-running
    streams: deleted and updated keys are sampled from the tuples actually
    present (by position, not by raw key), so it stays correct after
    earlier batches have made the key space sparse — where {!deltas} would
    draw dangling keys.  Counts still follow the schema's delta statistics,
    capped by the live population.  Draws a disjoint delete/update set per
    relation; deterministic in [rng]. *)
val deltas_evolving :
  rng:Random.State.t -> Vis_catalog.Schema.t -> dataset -> batch

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
