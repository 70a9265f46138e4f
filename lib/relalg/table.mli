(** A stored table: a heap file plus any number of attached B+-tree indexes,
    kept consistent by the modification operations.  Base-relation replicas,
    the primary view, and supporting views are all stored as tables. *)

type t

(** [create pool ~desc ~page_bytes ~attr_bytes] sizes the heap so a tuple
    occupies [arity · attr_bytes] bytes of a [page_bytes] page (at least one
    tuple per page).  [?compress_ratio] (in [(0, 1]]) stores the heap
    page-compressed: each page holds [1/ratio] times as many tuples, so the
    table occupies roughly [ratio] of the uncompressed page count.  Indexes
    are never compressed.  [?protect] (default false) checksum-registers
    every heap page — and, via {!add_index}, every index node — with the
    pool so silent corruption is convicted on read or scrub. *)
val create :
  ?compress_ratio:float ->
  ?protect:bool ->
  Vis_storage.Buffer_pool.t ->
  desc:Reldesc.t ->
  page_bytes:int ->
  attr_bytes:int ->
  t

(** Whether the heap was created with [compress_ratio]. *)
val compressed : t -> bool

val desc : t -> Reldesc.t

val heap : t -> Vis_storage.Heap_file.t

(** [insert t tuple] appends and maintains every index. *)
val insert : t -> int array -> Vis_storage.Heap_file.rid

(** [delete t rid] removes the tuple and its index entries; [false] when the
    slot was already empty. *)
val delete : t -> Vis_storage.Heap_file.rid -> bool

(** [update t rid tuple] overwrites in place.  Only non-indexed attributes
    may change (protected updates); raises [Invalid_argument] if an indexed
    attribute's value differs. *)
val update : t -> Vis_storage.Heap_file.rid -> int array -> bool

(** [restore t rid tuple] undoes a delete: refills the heap slot if empty
    and re-inserts any missing index entries.  Tolerant of partial
    application — each step is skipped when already in place. *)
val restore : t -> Vis_storage.Heap_file.rid -> int array -> bool

(** [unapply_insert t rid tuple] undoes an append whose predicted rid was
    [rid]: removes whichever index entries made it in, then, if the append
    executed, empties its slot ({!Vis_storage.Heap_file.truncate_last}: a
    backfilled slot is cleared, a tail slot handed back).  Must be called in
    strict LIFO order over the batch's log. *)
val unapply_insert : t -> Vis_storage.Heap_file.rid -> int array -> bool

(** [unapply_update t rid before] writes the before image back (directly at
    the heap — indexed attributes cannot have changed under protected
    updates); [false] when the slot is empty, i.e. the update never ran. *)
val unapply_update : t -> Vis_storage.Heap_file.rid -> int array -> bool

(** [add_index t ~offset] builds a B+-tree on the attribute at [offset] by
    scanning the heap; fanout is [page_bytes / index_entry_bytes] with 16
    bytes per entry.  Returns the existing index if one is already
    attached. *)
val add_index : t -> offset:int -> Vis_storage.Btree.t

(** [rebuild_index t ~offset] repairs a corrupt index: discards and
    unregisters every node page of the existing tree, then rebuilds it
    from the heap by a fresh scan (same I/O shape as {!add_index}).
    Raises [Invalid_argument] when no index exists on that attribute. *)
val rebuild_index : t -> offset:int -> Vis_storage.Btree.t

(** Enable checksum protection on the heap and every attached index (new
    indexes inherit it).  Idempotent. *)
val protect : t -> unit

val protected : t -> bool

(** [index_on t ~offset] — the index on that attribute, if any. *)
val index_on : t -> offset:int -> Vis_storage.Btree.t option

val indexes : t -> (int * Vis_storage.Btree.t) list

val n_tuples : t -> int

val n_pages : t -> int
