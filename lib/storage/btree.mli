(** A B+-tree index over integer keys mapping to heap-file rids, with its
    nodes registered in a {!Buffer_pool} so traversals and updates produce
    page I/O.  Duplicate keys are allowed (an entry is a (key, rid) pair).

    Inserts split full nodes in the classical way.  Deletes remove the entry
    from its leaf without rebalancing (lazy deletion, as in many production
    systems); structure invariants that tests rely on are: sorted keys within
    nodes, correct separator keys, and all leaves at the same depth. *)

type t

(** [create ?protect pool ~fanout] — [fanout] is the maximum number of
    entries (or children) per node; at least 4.  With [~protect:true]
    (default false) every node page — current and future splits — is
    checksum-registered with the pool ({!Buffer_pool.protect}), so silent
    damage to an index page is convicted on the next miss-read or scrub
    probe. *)
val create : ?protect:bool -> Buffer_pool.t -> fanout:int -> t

(** Raises [Invalid_argument] when the exact (key, rid) entry is already
    present — an index holds one entry per stored tuple. *)
val insert : t -> key:int -> Heap_file.rid -> unit

(** [remove t ~key rid] deletes one matching entry; [false] when absent. *)
val remove : t -> key:int -> Heap_file.rid -> bool

(** [mem t ~key rid] — whether the exact (key, rid) entry is present.
    Recovery uses it for tolerant undo: re-insert only what is absent,
    remove only what is present. *)
val mem : t -> key:int -> Heap_file.rid -> bool

(** [lookup t ~key] returns the rids of all entries with this key, touching
    the root-to-leaf path (and overflowing right siblings for
    duplicates). *)
val lookup : t -> key:int -> Heap_file.rid list

(** [range t ~lo ~hi] returns all entries with [lo <= key <= hi] in key
    order. *)
val range : t -> lo:int -> hi:int -> (int * Heap_file.rid) list

(** Number of entries. *)
val length : t -> int

(** Levels, leaf included (an empty tree has height 1). *)
val height : t -> int

(** Total node pages. *)
val n_pages : t -> int

(** [iter t ~f] visits every entry in key order, touching the leaf level. *)
val iter : t -> f:(int -> Heap_file.rid -> unit) -> unit

(** [check t] verifies structural invariants; [Error description] when one
    is violated (used by property tests and the crash-recovery oracle). *)
val check : t -> (unit, string) result

(** All node gids, root first — the unprotect list when an index is
    rebuilt away. *)
val page_gids : t -> int list

(** Enable checksum protection on an existing tree (registers every
    current node; splits keep new nodes registered).  Idempotent. *)
val protect : t -> unit

val protected : t -> bool

(** [node_hooks ~get ~set] — the protection hooks {!protect} registers for
    a node whose entry array (a leaf's entries, an inner node's separators)
    [get] reads and [set] replaces.  The seal covers the entries and a
    count of the injections so far, so every single [hk_corrupt] changes
    it.  Exposed for the seal tests. *)
val node_hooks :
  get:(unit -> (int * Heap_file.rid) array) ->
  set:((int * Heap_file.rid) array -> unit) ->
  Buffer_pool.page_hooks
