(** A logical write-ahead log for refresh batches, with group commit.

    The log is an append-only sequence of pages charged through the shared
    {!Buffer_pool}, so logging costs surface in {!Iostats} next to the base
    I/O they protect ([wal_writes]; durability barriers in [wal_syncs]).
    Records are {e logical} with before images — [Ins]/[Del]/[Upd] on a
    numbered durable table — rather than physical page deltas, because the
    simulated pages hold no bytes; what makes recovery sound is the
    protocol, which mirrors the classical one:

    - {e log before apply}: a record is appended (and its destination rid
      predicted via [Heap_file.next_rid]) before the data operation runs,
      so the log always covers at least as much as the data;
    - {e force at commit}: a batch counts as committed only once a [sync]
      covered its [Commit] record, so a crash between the two aborts it;
    - {e checkpoint once durable}: the log truncates only when every record
      in it is covered by a sync.

    Durability is a sequence-number high-water mark ({!n_unsynced} exposes
    the gap), so several batches can commit back to back and one [sync]
    makes them all durable — group commit.  {!unfinished} returns every
    record after the last {e durable} commit, newest first, for strict
    cross-batch LIFO undo. *)

type record =
  | Begin
  | Commit
  | Ins of { table : int; rid : Heap_file.rid; tuple : int array }
      (** [rid] is the {e predicted} destination ({!Heap_file.next_rid}: a
          freed slot below the tail page, or the tail slot) — when undo
          reaches it the append may not have executed *)
  | Del of { table : int; rid : Heap_file.rid; before : int array }
  | Upd of { table : int; rid : Heap_file.rid; before : int array; after : int array }

type t

(** Result of {!verify_scan}: each logged record carries a sequence/length
    header and a CRC over header plus payload, so a post-crash scan can
    classify damage positionally.  [Torn] — a contiguous suffix of
    half-persisted records, all strictly after the last durable commit
    (never acknowledged; truncate via {!truncate_torn} and proceed).
    [Corrupt] — a CRC mismatch anywhere, or a tear reaching into the
    durable history: recovery must stop with {!Corrupt_record}. *)
type scan = Clean | Torn of { first_seq : int; torn : int } | Corrupt of { seq : int }

(** Raised by recovery when {!verify_scan} reports mid-log corruption; the
    payload is the sequence number of the first bad record. *)
exception Corrupt_record of int

(** [create pool ~page_bytes] — an empty log writing [page_bytes]-sized
    pages through [pool].  The current tail page stays pinned so data-page
    pressure can never evict it mid-batch.  Log pages register with the
    pool's corruption machinery (no page checksum — records self-verify via
    their CRCs), so injected write damage rots record envelopes. *)
val create : Buffer_pool.t -> page_bytes:int -> t

(** [append t r] logs a record: the tail page is touched dirty; when the
    record does not fit, the tail is sealed (forced out, one WAL write) and
    a fresh page allocated.  All fault points precede any log mutation.  *)
val append : t -> record -> unit

(** [sync t] forces the tail page out if dirty (one WAL write) and marks
    every record appended so far durable — including the [Commit] records
    of every batch appended since the previous sync, which is what makes a
    sync a {e group} commit.  Counted in [Iostats] [wal_syncs] (only once
    the force succeeded — the write-back is the fault point). *)
val sync : t -> unit

(** [checkpoint t] truncates the log: unpins and drops all log pages.
    Callers only invoke it when every record is durable (after a [sync]) or
    after rollback has undone the unfinished suffix. *)
val checkpoint : t -> unit

(** Every record after the last {e durable} [Commit], newest first and
    without the [Begin]/[Commit] markers; [[]] when the log is empty or
    fully committed.  Under group commit this spans all
    committed-but-unforced batches plus the one in flight — undoing
    front-to-back is cross-batch LIFO. *)
val unfinished : t -> record list

(** Whether any record sits after the last durable [Commit]. *)
val in_flight : t -> bool

(** Records appended since the last successful [sync] — the group-commit
    backlog one sync would make durable. *)
val n_unsynced : t -> int

(** Buffer-pool page ids currently holding the log, newest first — recovery
    touches them to charge its log reads. *)
val page_gids : t -> int list

(** Records currently in the log. *)
val n_records : t -> int

(** Records appended over the log's lifetime (survives checkpoints). *)
val total_records : t -> int

(** Pages allocated to the log over its lifetime. *)
val total_pages : t -> int

(** Log bytes appended over the log's lifetime. *)
val total_bytes : t -> int

(** Successful [sync] calls over the log's lifetime. *)
val total_syncs : t -> int

val record_bytes : record -> int

(** Re-derive every record's CRC and classify any damage (see {!scan}).
    Pure: performs no I/O and never mutates the log. *)
val verify_scan : t -> scan

(** Drop all torn records (recovery calls this after undo consumed the
    in-memory records, when {!verify_scan} reported [Torn]).  Returns the
    number of records dropped. *)
val truncate_torn : t -> int

(** Test hook: flip a bit in the stored CRC of the record with this
    lifetime sequence number.  [false] when no such record is in the
    log. *)
val corrupt_record : t -> seq:int -> bool

(** Test hook: mark every record but the oldest [keep] as half-persisted
    (a torn tail).  Returns the number of records torn. *)
val tear_tail : t -> keep:int -> int
