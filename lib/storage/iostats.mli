(** Counters of physical page I/O, shared by a buffer pool and read by the
    experiments that validate the cost model against execution. *)

type t

val create : unit -> t

(** Physical page reads (buffer-pool misses). *)
val reads : t -> int

(** Physical page writes (dirty evictions and flushes). *)
val writes : t -> int

(** Logical page accesses (hits + misses). *)
val accesses : t -> int

(** Write-ahead-log page writes — a subset of {!writes}, tallied separately
    so logging overhead stays visible next to the base I/O. *)
val wal_writes : t -> int

(** Durability barriers: calls to [Wal.sync].  Group commit amortizes one
    sync over many batches, so this falls while {!wal_writes} stays put. *)
val wal_syncs : t -> int

(** Buffer-pool accesses answered without a physical read. *)
val pool_hits : t -> int

(** Buffer-pool accesses that had to admit the page (reads plus fresh-page
    admissions that skip the read). *)
val pool_misses : t -> int

(** Pages evicted to make room (clean or dirty). *)
val pool_evictions : t -> int

(** Admissions that grew the pool past capacity because every resident frame
    was pinned — a sizing red flag surfaced by [visadvisor --stats]. *)
val pool_overflows : t -> int

(** Page checksum verifications performed (every miss-read of a protected
    page, plus every scrub probe). *)
val checksum_verifications : t -> int

(** Verifications whose recomputed checksum disagreed with the stored one —
    detected silent corruption. *)
val checksum_failures : t -> int

val total_io : t -> int

val record_read : t -> unit

val record_write : t -> unit

val record_access : t -> unit

(** Counts one physical write and one WAL write. *)
val record_wal_write : t -> unit

(** Counts one durability barrier (no page transfer by itself). *)
val record_wal_sync : t -> unit

val record_pool_hit : t -> unit

val record_pool_miss : t -> unit

val record_pool_eviction : t -> unit

val record_pool_overflow : t -> unit

val record_checksum_verification : t -> unit

(** Counted on top of the verification that uncovered it. *)
val record_checksum_failure : t -> unit

val reset : t -> unit
