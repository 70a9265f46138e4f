(** An unordered heap file of fixed-arity tuples (int arrays), paged through
    a {!Buffer_pool}.  Relations, materialized views and shipped deltas are
    all stored as heap files (Section 3.1: relations and views are stored as
    heaps).

    Tuple data lives off the OCaml heap in a per-file {!Arena}: a page is a
    block of native-int words (one presence flag plus the attributes per
    slot), so file contents put no pressure on the GC.  The scans read each
    slot's presence word, and {!scan_where} its key word, in place; a tuple
    is copied onto the OCaml heap only when it is handed to the caller.  The
    file's arity is fixed at {!create} or by the first {!append}; later
    operations with a different arity raise [Invalid_argument].

    Freed slots are reused: {!append} fills the lowest free slot on the
    first page below the tail page that has one, and writes at the tail
    only when none does, so the file's length (and what every scan walks)
    follows the high-water mark of its live tuples rather than every tuple
    ever inserted.  A hole on the tail page waits until that page stops
    being the tail: an append to the tail page is always at its next unused
    slot, which is what lets {!truncate_last} tell the two kinds of append
    apart. *)

type rid = { rid_page : int; rid_slot : int }
(** Record identifier: page index within the file and slot within the
    page. *)

type t

(** [create ?arity pool ~tuples_per_page] — an empty file.  Without [arity]
    the first {!append} fixes it. *)
val create : ?arity:int -> Buffer_pool.t -> tuples_per_page:int -> t

(** [append t tuple] stores a tuple and returns its rid: in the lowest free
    slot of the lowest page below the tail page that has one (a
    {e backfill}), else in the tail page's next unused slot, allocating a
    new tail page when it is full.  It touches the page it writes (dirty)
    before writing it, so a fault leaves the file unchanged.  On a file
    without holes below the tail, such as a freshly built one, it is O(1).
    The tuple is copied into the arena, so later mutation of [tuple] is
    invisible. *)
val append : t -> int array -> rid

(** [get t rid] fetches a tuple (materialized fresh from the arena), or
    [None] when the slot was deleted.  Touches the page. *)
val get : t -> rid -> int array option

(** [delete t rid] clears the slot; [false] when it was already empty. *)
val delete : t -> rid -> bool

(** [update t rid tuple] overwrites the slot in place; [false] when empty. *)
val update : t -> rid -> int array -> bool

(** [next_rid t] is the rid the next {!append} will return, backfill or
    tail slot alike — used by the write-ahead log to record an insertion's
    destination before applying it.  A pure function of the file's
    contents (it touches no page), so it is the same at any [--jobs] and
    under any fault plan. *)
val next_rid : t -> rid

(** [restore t rid tuple] refills an emptied slot (undo of a delete);
    [false] when the slot is already occupied — a tolerant no-op, since
    recovery cannot know how far the crashed operation got. *)
val restore : t -> rid -> int array -> bool

(** [truncate_last t rid] undoes the {!append} that returned [rid]; undo
    must run in strict LIFO order, so the file is then exactly as that
    append left it.
    - A backfill ([rid] on a page below the tail page): the slot is cleared
      and the page kept.  [false], without touching the pool, when the slot
      is already empty — the logged append never executed.
    - A tail append ([rid] the tail page's last used slot): the slot is
      handed back, and the tail page is dropped entirely when the append
      had grown it (its arena block is released LIFO).
    - [false] when [rid] points at or past the tail page's next unused
      slot: the logged tail append never executed.

    Raises [Invalid_argument] for any other rid on the tail page. *)
val truncate_last : t -> rid -> bool

(** [scan t ~f] visits every live tuple in file order, touching every page
    (including pages that became empty).  Tuples are materialized fresh. *)
val scan : t -> f:(rid -> int array -> unit) -> unit

(** [scan_where t ~attr ~keys ~f] is [scan] restricted to the live tuples
    whose attribute [attr] is one of [keys]: it reads each slot's key word
    in place, tests it against a private open-addressing table built from
    [keys] (probed inline in the scan loop, with no polymorphic hashing),
    and materializes only the tuples it hands to [f].  Any int is a valid
    key — negative keys, [min_int] and [max_int] included — and duplicate
    keys are harmless; an empty list matches nothing.  It touches the same
    pages in the same order as {!scan}, so its buffer-pool and I/O
    accounting is identical.  Raises [Invalid_argument
    "Heap_file.scan_where"] when [attr] is outside [[0, arity)] (only a
    negative [attr] while the arity is unfixed, since such a file is
    empty). *)
val scan_where :
  t -> attr:int -> keys:int list -> f:(rid -> int array -> unit) -> unit

(** Number of live tuples. *)
val n_tuples : t -> int

(** Number of pages the file occupies. *)
val n_pages : t -> int

val tuples_per_page : t -> int

(** Arena words currently backing the file (page blocks in use). *)
val arena_words : t -> int

(** [page_gid t i] is the buffer-pool page identifier of the file's [i]-th
    page (for tests). *)
val page_gid : t -> int -> int

(** [protect t] enables checksum protection: every current and future page
    is registered with the pool ({!Buffer_pool.protect}) using a checksum
    over its whole arena block, so silent damage is convicted on the next
    miss-read or scrub probe.  Idempotent. *)
val protect : t -> unit

val protected : t -> bool
