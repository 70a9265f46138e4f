type t = {
  mutable n_reads : int;
  mutable n_writes : int;
  mutable n_accesses : int;
  mutable n_wal_writes : int;
  mutable n_wal_syncs : int;
  mutable n_pool_hits : int;
  mutable n_pool_misses : int;
  mutable n_pool_evictions : int;
  mutable n_pool_overflows : int;
  mutable n_checksum_verifications : int;
  mutable n_checksum_failures : int;
}

let create () =
  {
    n_reads = 0;
    n_writes = 0;
    n_accesses = 0;
    n_wal_writes = 0;
    n_wal_syncs = 0;
    n_pool_hits = 0;
    n_pool_misses = 0;
    n_pool_evictions = 0;
    n_pool_overflows = 0;
    n_checksum_verifications = 0;
    n_checksum_failures = 0;
  }

let reads t = t.n_reads

let writes t = t.n_writes

let accesses t = t.n_accesses

let wal_writes t = t.n_wal_writes

let wal_syncs t = t.n_wal_syncs

let pool_hits t = t.n_pool_hits

let pool_misses t = t.n_pool_misses

let pool_evictions t = t.n_pool_evictions

let pool_overflows t = t.n_pool_overflows

let checksum_verifications t = t.n_checksum_verifications

let checksum_failures t = t.n_checksum_failures

let total_io t = t.n_reads + t.n_writes

let record_read t = t.n_reads <- t.n_reads + 1

let record_write t = t.n_writes <- t.n_writes + 1

let record_access t = t.n_accesses <- t.n_accesses + 1

(* WAL page writes are real writes (they count in [writes]) but are also
   tallied separately so the logging overhead stays visible. *)
let record_wal_write t =
  t.n_writes <- t.n_writes + 1;
  t.n_wal_writes <- t.n_wal_writes + 1

(* A sync is a durability barrier, not a page transfer: it forces the dirty
   WAL tail (counted by {!record_wal_write} when a write actually happens)
   and is tallied on its own so group commit's amortization is visible. *)
let record_wal_sync t = t.n_wal_syncs <- t.n_wal_syncs + 1

let record_pool_hit t = t.n_pool_hits <- t.n_pool_hits + 1

let record_pool_miss t = t.n_pool_misses <- t.n_pool_misses + 1

let record_pool_eviction t = t.n_pool_evictions <- t.n_pool_evictions + 1

let record_pool_overflow t = t.n_pool_overflows <- t.n_pool_overflows + 1

let record_checksum_verification t =
  t.n_checksum_verifications <- t.n_checksum_verifications + 1

(* A failure is counted on top of its verification. *)
let record_checksum_failure t =
  t.n_checksum_failures <- t.n_checksum_failures + 1

let reset t =
  t.n_reads <- 0;
  t.n_writes <- 0;
  t.n_accesses <- 0;
  t.n_wal_writes <- 0;
  t.n_wal_syncs <- 0;
  t.n_pool_hits <- 0;
  t.n_pool_misses <- 0;
  t.n_pool_evictions <- 0;
  t.n_pool_overflows <- 0;
  t.n_checksum_verifications <- 0;
  t.n_checksum_failures <- 0
