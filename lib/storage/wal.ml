(* Logical write-ahead log.  See wal.mli for the protocol.  The in-memory
   record list is the log's contents; the buffer-pool pages only model its
   I/O footprint.  Every fault point in [append]/[sync] fires before the
   record list or page metadata changes, so a failed log operation leaves
   the log exactly as it was (and the protected data operation, which only
   runs after its record is logged, never happens either).

   Durability is a sequence-number high-water mark: [synced] counts the
   records covered by the last successful [sync].  A batch's [Commit] is
   durable iff its position is <= [synced], which is what lets group commit
   keep several committed-but-unforced batches in the log and cover them
   all with one force.  Rollback undoes everything after the last durable
   commit, newest first — cross-batch LIFO. *)

type record =
  | Begin
  | Commit
  | Ins of { table : int; rid : Heap_file.rid; tuple : int array }
  | Del of { table : int; rid : Heap_file.rid; before : int array }
  | Upd of { table : int; rid : Heap_file.rid; before : int array; after : int array }

(* Each logged record is framed with a lifetime sequence number, its length
   and a CRC over header plus payload — the on-disk envelope that lets a
   post-crash scan tell a half-written tail from mid-log rot.  [e_crc] is
   the CRC {e as stored}: damage mutates it (or sets [e_torn], the analogue
   of a record whose tail never hit the device), while the payload stays
   recomputable, so verification means re-deriving the CRC from the record
   and comparing. *)
type entry = {
  e_seq : int;
  e_len : int;
  e_record : record;
  e_page : int;  (* gid of the page the record (or its tail) landed on *)
  mutable e_crc : int;
  mutable e_torn : bool;
}

type scan = Clean | Torn of { first_seq : int; torn : int } | Corrupt of { seq : int }

exception Corrupt_record of int

type t = {
  pool : Buffer_pool.t;
  page_bytes : int;
  mutable entries : entry list;  (* newest first *)
  mutable n_records : int;
  mutable pages : int list;  (* gids, newest (tail) first *)
  mutable tail_bytes : int;  (* bytes used on the tail page *)
  mutable synced : int;  (* records covered by the last successful [sync] *)
  mutable t_total_records : int;
  mutable t_total_pages : int;
  mutable t_total_bytes : int;
}

let word = 8

(* tag+table header, rid as two words, payload words. *)
let record_bytes = function
  | Begin | Commit -> word
  | Ins r -> word * (4 + Array.length r.tuple)
  | Del r -> word * (4 + Array.length r.before)
  | Upd r -> word * (4 + Array.length r.before + Array.length r.after)

let entry_crc ~seq ~len r =
  let h = ref (Checksum.add (Checksum.add Checksum.empty seq) len) in
  let add w = h := Checksum.add !h w in
  let add_rid rid =
    add rid.Heap_file.rid_page;
    add rid.Heap_file.rid_slot
  in
  (match r with
  | Begin -> add 0
  | Commit -> add 1
  | Ins x ->
      add 2;
      add x.table;
      add_rid x.rid;
      Array.iter add x.tuple
  | Del x ->
      add 3;
      add x.table;
      add_rid x.rid;
      Array.iter add x.before
  | Upd x ->
      add 4;
      add x.table;
      add_rid x.rid;
      Array.iter add x.before;
      Array.iter add x.after);
  Checksum.finish !h

let entry_ok e = (not e.e_torn) && e.e_crc = entry_crc ~seq:e.e_seq ~len:e.e_len e.e_record

let create pool ~page_bytes =
  if page_bytes < 5 * word then invalid_arg "Wal.create: page_bytes too small";
  {
    pool;
    page_bytes;
    entries = [];
    n_records = 0;
    pages = [];
    tail_bytes = 0;
    synced = 0;
    t_total_records = 0;
    t_total_pages = 0;
    t_total_bytes = 0;
  }

let tail t = match t.pages with [] -> None | gid :: _ -> Some gid

(* Device-side damage to a log page (polled by the pool's corruption
   machinery on a write of [gid]): a bit flip rots one stored record's CRC
   envelope, a torn write marks the newest records on the page as
   half-persisted.  WAL pages register with [hk_checksum = None] — records
   self-verify via their own CRCs, there is no page-level seal. *)
let page_damage t gid way sel =
  let on_page = List.filter (fun e -> e.e_page = gid) t.entries in
  let n = List.length on_page in
  if n > 0 then
    match way with
    | Faults.Bit_flip ->
        let e = List.nth on_page (sel mod n) in
        e.e_crc <- e.e_crc lxor (1 lsl (sel mod 62))
    | Faults.Torn_write ->
        let k = 1 + (sel mod n) in
        List.iteri (fun i e -> if i < k then e.e_torn <- true) on_page

let append t r =
  let bytes = record_bytes r in
  let fits =
    match tail t with
    | Some _ -> t.tail_bytes + bytes <= t.page_bytes
    | None -> false
  in
  if fits then begin
    (* Tail is resident and pinned: a hit, no fault point. *)
    Buffer_pool.touch t.pool (Option.get (tail t)) ~dirty:true;
    t.tail_bytes <- t.tail_bytes + bytes
  end
  else begin
    (* Seal the old tail (forced out now — one WAL write), then allocate as
       many fresh pages as the record spans.  A fault anywhere here leaves
       the old tail pinned and the metadata untouched; the retried append
       redoes the seal as a no-op (the page is clean by then). *)
    (match tail t with Some gid -> Buffer_pool.write_back t.pool gid | None -> ());
    let n_new = max 1 ((bytes + t.page_bytes - 1) / t.page_bytes) in
    let gids =
      List.init n_new (fun _ ->
          let gid = Buffer_pool.fresh_page t.pool in
          Buffer_pool.touch_new t.pool gid;
          Buffer_pool.protect t.pool gid
            { Buffer_pool.hk_checksum = None; hk_corrupt = page_damage t gid };
          gid)
    in
    let new_tail = List.nth gids (n_new - 1) in
    Buffer_pool.pin t.pool new_tail;
    (match tail t with Some gid -> Buffer_pool.unpin t.pool gid | None -> ());
    t.pages <- List.rev_append gids t.pages;
    t.t_total_pages <- t.t_total_pages + n_new;
    t.tail_bytes <- bytes - ((n_new - 1) * t.page_bytes)
  end;
  let seq = t.t_total_records + 1 in
  let entry =
    {
      e_seq = seq;
      e_len = bytes;
      e_record = r;
      e_page = (match tail t with Some gid -> gid | None -> -1);
      e_crc = entry_crc ~seq ~len:bytes r;
      e_torn = false;
    }
  in
  t.entries <- entry :: t.entries;
  t.n_records <- t.n_records + 1;
  t.t_total_records <- t.t_total_records + 1;
  t.t_total_bytes <- t.t_total_bytes + bytes

let sync t =
  (* The write-back is the fault point; [synced] only advances (and the sync
     is only counted) once the force actually happened. *)
  (match tail t with Some gid -> Buffer_pool.write_back t.pool gid | None -> ());
  t.synced <- t.n_records;
  Iostats.record_wal_sync (Buffer_pool.stats t.pool)

let checkpoint t =
  (match tail t with Some gid -> Buffer_pool.unpin t.pool gid | None -> ());
  List.iter
    (fun gid ->
      Buffer_pool.discard t.pool gid;
      Buffer_pool.unprotect t.pool gid)
    t.pages;
  t.entries <- [];
  t.n_records <- 0;
  t.pages <- [];
  t.tail_bytes <- 0;
  t.synced <- 0

(* A Commit decides its batch's fate only once [sync] has forced it: a
   crash between appending Commit and forcing the log means the commit
   never became durable, so the batch aborts and its records roll back
   exactly as if the Commit were never written.  [committed] asks whether
   the *newest* batch is durably committed. *)
let committed t =
  match t.entries with
  | { e_record = Commit; _ } :: _ -> t.synced >= t.n_records
  | _ -> false

(* Everything after the last durable Commit, newest first, markers
   excluded.  With group commit several batches may sit in that region
   (committed but unforced); their records interleave in append order, so
   undoing the returned list front-to-back is cross-batch LIFO. *)
let unfinished t =
  let rec go acc idx = function
    (* [idx] is the 0-based position from the oldest record of the list
       head; walking newest-first it starts at n_records - 1. *)
    | [] -> acc
    | { e_record = Commit; _ } :: _ when idx + 1 <= t.synced -> acc
    | { e_record = Commit | Begin; _ } :: rest -> go acc (idx - 1) rest
    | e :: rest -> go (e.e_record :: acc) (idx - 1) rest
  in
  (* The accumulator flips to oldest-first, so flip back. *)
  List.rev (go [] (t.n_records - 1) t.entries)

(* Whether any record sits after the last durable Commit — i.e. the head is
   anything but a durable Commit (durable prefixes end at a Commit because
   checkpoints only run on fully-durable logs). *)
let in_flight t = t.n_records > 0 && not (committed t)

(* Classify the log's damage, positionally.  A {e torn tail} is a
   contiguous suffix of half-persisted records, all strictly after the last
   durable commit: those records were never acknowledged, so truncating
   them and proceeding with recovery is sound.  Anything else — a CRC
   mismatch anywhere, or a torn record at or before a durable commit — is
   mid-log corruption: the durable history itself is untrustworthy, and
   recovery must stop with a typed error naming the first bad record. *)
let verify_scan t =
  let oldest_first = List.rev t.entries in
  (* 1-based position of the last durable Commit. *)
  let durable_pos = ref 0 in
  List.iteri
    (fun i e ->
      if i + 1 <= t.synced && e.e_record = Commit then durable_pos := i + 1)
    oldest_first;
  let n = t.n_records in
  let first_bad = ref None in
  let suffix_torn = ref true in
  List.iteri
    (fun i e ->
      let pos = i + 1 in
      if not (entry_ok e) then begin
        if !first_bad = None then first_bad := Some (pos, e);
        if pos <= !durable_pos || not e.e_torn then suffix_torn := false
      end
      else match !first_bad with
        | Some _ ->
            (* A clean record after a bad one: not a tail tear. *)
            suffix_torn := false
        | None -> ())
    oldest_first;
  match !first_bad with
  | None -> Clean
  | Some (pos, e) ->
      if !suffix_torn then Torn { first_seq = e.e_seq; torn = n - pos + 1 }
      else Corrupt { seq = e.e_seq }

(* Drop the torn suffix (undo has already consumed the in-memory records by
   the time recovery truncates).  Returns the number of records dropped. *)
let truncate_torn t =
  let torn, intact = List.partition (fun e -> e.e_torn) t.entries in
  let dropped = List.length torn in
  if dropped > 0 then begin
    let bytes = List.fold_left (fun a e -> a + e.e_len) 0 torn in
    t.entries <- intact;
    t.n_records <- t.n_records - dropped;
    t.tail_bytes <- max 0 (t.tail_bytes - bytes);
    if t.synced > t.n_records then t.synced <- t.n_records
  end;
  dropped

(* Test hooks: precise, page-independent damage. *)

let corrupt_record t ~seq =
  match List.find_opt (fun e -> e.e_seq = seq) t.entries with
  | Some e ->
      e.e_crc <- e.e_crc lxor 1;
      true
  | None -> false

let tear_tail t ~keep =
  let keep = max 0 keep in
  let torn = ref 0 in
  List.iteri
    (fun i e ->
      (* entries are newest first: the first [n_records - keep] are the tail *)
      if i < t.n_records - keep then begin
        e.e_torn <- true;
        incr torn
      end)
    t.entries;
  !torn

let page_gids t = t.pages

let n_records t = t.n_records

let total_records t = t.t_total_records

let total_pages t = t.t_total_pages

let total_bytes t = t.t_total_bytes
