(** An LRU buffer pool over simulated page identifiers.

    The pool does not hold page contents — data structures keep their own
    state — it only models residency: {!touch} brings a page in (counting a
    physical read on a miss), possibly evicting the least recently used page
    (counting a physical write if that page was dirty).  This is the
    mechanism by which executed maintenance plans produce measured I/O counts
    comparable to the cost model's estimates.

    Each physical operation consults the pool's {!Faults} plan before any
    pool state changes, so an injected fault leaves the pool untouched: the
    failed read/write/allocation simply never happened.

    Residency traffic is tallied in {!Iostats}: hits ({!touch}/{!touch_new}/
    {!pin} on a resident frame), misses (every admission), evictions under
    capacity pressure, and overflow admissions when every frame is pinned.
    {!flush} models orderly shutdown and does not count evictions.

    The pool's memory is proportional to its frames — [capacity], grown
    only by pinned overflow — never to the number of pages ever allocated,
    so a long-running process that keeps allocating fresh pages stays
    bounded.

    {2 Corruption detection}

    Because the pool holds no contents, checksum protection is a
    collaboration: the structure owning a page's payload registers
    {!page_hooks} via {!protect}.  The pool then maintains a stored
    checksum per protected page, {e resealed} from the payload at every
    physical write-out (dirty eviction, {!write_back}, {!flush}) and
    {e verified} on every miss-read — a mismatch counts a checksum failure
    in {!Iostats}, quarantines the page and raises {!Corruption}.  Silent
    damage (injected via the fault plan's corruption schedules, or at rest
    via {!corrupt_page}) mutates the payload {e after} the reseal, which is
    exactly why the stored checksum convicts it.  Stored checksums live on
    dedicated checksum pages (one per 512-gid bucket) that verification
    touches, so detection has a real, machine-independent I/O cost; being
    hot, tiny metadata, a bucket page is pinned from its first admission,
    so the cost is one read per residency burst rather than one per
    capacity-pressure round trip.  A bucket lives as long as it holds a
    sealed page: when {!unprotect}, or a re-{!protect} without a checksum,
    removes its last one, the bucket is forgotten and its page's pin is
    cleared, so pinned bucket pages never accumulate in a long-lived
    pool.  Every gid-keyed side table is a {!Vis_util.Int_hashtbl}. *)

type t

(** Payload callbacks registered by the structure that owns a page:
    [hk_checksum] recomputes the payload checksum now ([None] for pages
    that self-verify, e.g. WAL pages whose records carry their own CRCs);
    [hk_corrupt way sel] applies the given damage, mapping the seeded
    selector onto a damage site. *)
type page_hooks = {
  hk_checksum : (unit -> int) option;
  hk_corrupt : Faults.corruption -> int -> unit;
}

(** Raised by a read-path verification that caught a corrupt page (the
    payload's recomputed checksum disagreed with the stored seal). *)
exception Corruption of int

(** [create ~capacity ~stats] — [capacity] pages; raises [Invalid_argument]
    when [capacity < 1]. *)
val create : capacity:int -> stats:Iostats.t -> t

val capacity : t -> int

val stats : t -> Iostats.t

(** [set_faults t plan] installs a fault plan; the default is
    [Faults.none ()].  All pools sharing a device under test should share
    one plan so the operation sequence numbering is global. *)
val set_faults : t -> Faults.t -> unit

val faults : t -> Faults.t

(** [fresh_page t] allocates a new page identifier (not resident yet).
    Fault point: [Alloc]; a failed allocation retried later hands out the
    same identifier. *)
val fresh_page : t -> int

(** [touch t page ~dirty] accesses [page]: a miss counts one read, and marks
    it dirty when [dirty] so its eventual eviction counts one write. *)
val touch : t -> int -> dirty:bool -> unit

(** [touch_new t page] registers a page created in memory (e.g. the fresh
    half of a split): resident and dirty without counting a read. *)
val touch_new : t -> int -> unit

(** [pin t page] brings [page] in if needed (counting a read on a miss) and
    increments its pin count.  Pinned pages are never chosen as eviction
    victims; when every frame is pinned the pool grows past capacity rather
    than evicting.  The write-ahead log pins its tail page so log appends
    cannot be evicted out from under a running batch. *)
val pin : t -> int -> unit

(** [unpin t page] decrements the pin count.  Raises [Invalid_argument] if
    the page is not resident or not pinned (a programmer error, not an
    injectable fault). *)
val unpin : t -> int -> unit

val pinned : t -> int -> bool

(** [write_back t page] forces [page] to the device now if it is resident
    and dirty: one physical write, tallied as a WAL write ([Iostats]
    [wal_writes]) since forcing the log tail at commit/sync points is this
    primitive's purpose.  No-op when clean or absent.  Fault point:
    [Write]. *)
val write_back : t -> int -> unit

(** [discard t page] drops a page without writing it back (for deallocated
    pages). *)
val discard : t -> int -> unit

(** [flush t] evicts everything (pins notwithstanding — it models orderly
    shutdown), writing back dirty pages without fault checks. *)
val flush : t -> unit

(** [resident t page] — whether the page is currently buffered. *)
val resident : t -> int -> bool

(** [residency t] — the resident frames from most to least recently used,
    as [(page, dirty, pins)] (for tests). *)
val residency : t -> (int * bool * int) list

(** [protect t page hooks] registers [page] for corruption detection and,
    when [hooks.hk_checksum] is present, seals its current payload
    checksum (allocating the bucket's checksum page when the bucket holds
    no other sealed page).  Re-protecting replaces the hooks and clears
    any quarantine; re-protecting without a checksum drops the page's
    seal like {!unprotect}. *)
val protect : t -> int -> page_hooks -> unit

(** Drops hooks, stored checksum and quarantine state for [page] (for
    deallocated or rebuilt-away pages).  Dropping a bucket's last seal
    forgets the bucket and unpins its checksum page. *)
val unprotect : t -> int -> unit

val protected : t -> int -> bool

(** [verify t page] — non-raising verification probe for the scrub pass:
    [false] when the page is quarantined or its checksum mismatches (the
    mismatch is counted and the page quarantined), [true] for clean or
    unverifiable pages. *)
val verify : t -> int -> bool

val quarantined : t -> int -> bool

(** Fence a page manually (scrub uses this for pages convicted by
    evidence other than their own checksum). *)
val quarantine : t -> int -> unit

(** [corrupt_page t page way sel] applies at-rest damage directly to the
    page's payload, bypassing the device write path: the stored seal is
    left stale, so the next verification convicts the page.  No-op for
    pages without hooks. *)
val corrupt_page : t -> int -> Faults.corruption -> int -> unit

(** Gids of all checksum-protected pages, sorted ascending — the scrub
    sweep order, and the target list damage plans index into. *)
val protected_gids : t -> int list
