(** The experiment schemas of the paper's Figure 5, parameterized so the
    Section 5/6 experiments can sweep sizes, rates and selectivities, plus a
    random schema generator for property-based testing.

    Schema 1: [V = R ⋈ S ⋈ σT] — a linear foreign-key join with the local
    selection on [T] and relative cardinalities [T(R) = 3·T(S) = 9·T(T)].

    Schema 2: [V = R ⋈ σS ⋈ T] — a linear foreign-key join with the local
    selection on [S] and equal cardinalities. *)

(** [schema1 ()] with defaults: [T(T) = 10_000] ([base_card]), 10%
    selectivity on [T.T1], 40-byte tuples, insertion fraction 0.01 and
    deletion fraction 0.001 of each relation's cardinality, no updates,
    [mem_pages = 100].  [sel_join_s]/[sel_join_t] override the foreign-key
    join selectivities (defaults [1/T(S)] and [1/T(T)]). *)
val schema1 :
  ?base_card:float ->
  ?sel_t:float ->
  ?tuple_bytes:int ->
  ?ins_frac:float ->
  ?del_frac:float ->
  ?upd_frac:float ->
  ?mem_pages:int ->
  ?sel_join_s:float ->
  ?sel_join_t:float ->
  unit ->
  Vis_catalog.Schema.t

(** [schema2 ()] with defaults: all cardinalities 30_000, 10% selectivity on
    [S.S1], otherwise as {!schema1}. *)
val schema2 :
  ?card:float ->
  ?sel_s:float ->
  ?tuple_bytes:int ->
  ?ins_frac:float ->
  ?del_frac:float ->
  ?upd_frac:float ->
  ?mem_pages:int ->
  unit ->
  Vis_catalog.Schema.t

(** [two_relation ()] — the smallest interesting instance, [V = R ⋈ σS],
    used by fast unit tests and Table 2's first rows. *)
val two_relation :
  ?card_r:float ->
  ?card_s:float ->
  ?sel_s:float ->
  ?ins_frac:float ->
  ?del_frac:float ->
  ?mem_pages:int ->
  unit ->
  Vis_catalog.Schema.t

(** [chain ~n ()] — a linear foreign-key chain of [n] relations
    [R1 ⋈ R2 ⋈ … ⋈ σRn] with geometric cardinalities, for scaling
    experiments. *)
val chain :
  ?base_card:float ->
  ?sel_last:float ->
  ?ins_frac:float ->
  ?del_frac:float ->
  ?mem_pages:int ->
  n:int ->
  unit ->
  Vis_catalog.Schema.t

(** [star ~n_dims ()] — a star warehouse schema of [n_dims + 1] relations: a
    fact table [F] (cardinality [fact_mult · base_card], default 10×) with a
    separate foreign-key attribute [Fi] per dimension, and insert-only
    dimensions [DA, DB, …] of mildly varied sizes.  The first [n_sel]
    dimensions (default [n_dims / 3], at least 1) carry a local selection of
    selectivity [sel].  Foreign keys are distinct from primary keys, so
    {!Vis_workload.Datagen} can realize the schema and refreshes are
    executable.  Use [Problem.make ~connected_only:true ~max_view_rels] to
    keep the candidate-view lattice tractable at
    this scale. *)
val star :
  ?base_card:float ->
  ?fact_mult:float ->
  ?sel:float ->
  ?n_sel:int ->
  ?ins_frac:float ->
  ?del_frac:float ->
  ?dim_ins_frac:float ->
  ?mem_pages:int ->
  n_dims:int ->
  unit ->
  Vis_catalog.Schema.t

(** [snowflake ~arms ~depth ()] — a snowflake warehouse schema of
    [1 + arms·depth] relations: the fact table joins [arms] dimension
    chains, each normalized [depth] levels deep with halving cardinalities;
    every arm's outermost (leaf) dimension carries a selection.  Delta
    profile and executability as {!star}. *)
val snowflake :
  ?base_card:float ->
  ?fact_mult:float ->
  ?sel:float ->
  ?ins_frac:float ->
  ?del_frac:float ->
  ?dim_ins_frac:float ->
  ?mem_pages:int ->
  arms:int ->
  depth:int ->
  unit ->
  Vis_catalog.Schema.t

(** [random ~rng ()] draws a connected schema of 2–4 relations with random
    chain joins, selections, cardinalities (small, so exhaustive search is
    feasible) and delta rates.  Intended for A*-vs-exhaustive property
    tests. *)
val random : rng:Random.State.t -> unit -> Vis_catalog.Schema.t

(** [validation ()] — a Schema-1-shaped instance whose foreign keys are
    separate attributes from the primary keys, so synthetic data exactly
    realizing its statistics can be generated and maintenance plans can be
    {e executed} on the storage engine: [R(R0,R1,R2) ⋈ S(S0,S1,S2) ⋈
    σT(T0,T1,T2)] with [R.R1 → S.S0], [S.S1 → T.T0], a 10% selection on
    [T.T1] and an unindexed payload attribute per relation for protected
    updates.  Defaults are small ([base_card = 400], 512-byte pages) so
    executions stay fast. *)
val validation :
  ?base_card:float ->
  ?sel_t:float ->
  ?ins_frac:float ->
  ?del_frac:float ->
  ?upd_frac:float ->
  ?mem_pages:int ->
  ?page_bytes:int ->
  unit ->
  Vis_catalog.Schema.t
