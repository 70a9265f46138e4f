(** Physical operators over stored tables.  Intermediate results live in
    memory as tuple lists (the refresh deltas the paper propagates are small
    relative to the stored relations); all page I/O happens when stored
    tables and indexes are touched, and is recorded by the tables' buffer
    pool.

    Combined tuples are concatenations, matching {!Reldesc.concat}. *)

type tuple = int array

type pred = tuple -> bool

(** [scan t ?filter ()] — full scan, optionally filtered. *)
val scan : Table.t -> ?filter:pred -> unit -> tuple list

(** [index_scan t ~offset ~lo ~hi ?filter ()] — fetch the tuples whose
    attribute at [offset] is within [lo, hi], through the index on that
    attribute.  Raises [Invalid_argument] when no such index exists. *)
val index_scan :
  Table.t -> offset:int -> lo:int -> hi:int -> ?filter:pred -> unit -> tuple list

(** [nested_block_join ~outer ~outer_offset ~block_tuples ~inner
    ~inner_offset ?filter ()] joins the in-memory [outer] with stored
    [inner] on equality of the two attributes.  The outer is consumed in
    blocks of [block_tuples] (the memory budget); the inner is scanned once
    per block with {!Vis_storage.Heap_file.scan_where} on the block's outer
    keys, so only inner tuples with a partner are copied out of the arena,
    and each is matched through an int-keyed table of the block
    ({!Vis_util.Int_hashtbl}).  Results come in inner-scan order, and for
    each inner tuple its partners latest in the block first.  [filter]
    applies to combined tuples. *)
val nested_block_join :
  outer:tuple list ->
  outer_offset:int ->
  block_tuples:int ->
  inner:Table.t ->
  inner_offset:int ->
  ?filter:pred ->
  unit ->
  tuple list

(** [block_cross_join ~outer ~block_tuples ~inner ?filter ()] — degenerate
    nested-block join without an equality (a cross product, possibly
    restricted by [filter] on combined tuples). *)
val block_cross_join :
  outer:tuple list ->
  block_tuples:int ->
  inner:Table.t ->
  ?filter:pred ->
  unit ->
  tuple list

(** [index_join ~outer ~outer_offset ~inner ~inner_offset ?filter ()] probes
    the inner's index on [inner_offset] once per outer tuple and fetches the
    matching inner tuples.  Raises [Invalid_argument] when the index is
    missing. *)
val index_join :
  outer:tuple list ->
  outer_offset:int ->
  inner:Table.t ->
  inner_offset:int ->
  ?filter:pred ->
  unit ->
  tuple list

(** [locate_by_scan t ~offset ~keys] — the rids and tuples whose attribute at
    [offset] takes one of [keys], in file order, found by a single
    {!Vis_storage.Heap_file.scan_where} over [keys] (any ints; duplicates
    are harmless). *)
val locate_by_scan :
  Table.t -> offset:int -> keys:int list -> (Vis_storage.Heap_file.rid * tuple) list

(** [locate_by_index t ~offset ~keys] — the same through the index on
    [offset].  Raises [Invalid_argument] when the index is missing. *)
val locate_by_index :
  Table.t -> offset:int -> keys:int list -> (Vis_storage.Heap_file.rid * tuple) list
