(* LRU over a fixed table of frame slots.  A frame is a slot index into
   int arrays (page, pins, and the [prev]/[next] links of the recency list)
   and a [Bytes] of dirty flags; free slots are chained through [next].  An
   open-addressing table maps a resident page to its slot.  Nothing is
   allocated per access, and the whole structure is sized by the frames in
   use: [capacity] slots, grown only when every frame is pinned and a page
   must be admitted past capacity.  The page table is keyed by gid rather
   than indexed by it on purpose — gids are never reused (every staged
   batch allocates fresh pages), so a gid-indexed table would grow with
   every page the process ever allocates.

   Every physical operation — read on miss, write on dirty eviction or
   write-back, page allocation — consults the pool's fault plan *before*
   mutating any pool state, so an injected fault leaves the pool exactly as
   it was: the failed operation simply never happened.  That ordering is
   what lets the maintenance layer treat a fault as "the device refused"
   rather than "the device is now in an unknown state". *)

let nil = -1

(* The pool holds no page contents, so checksums and corruption are
   delegated to the structure that owns each page's payload: it registers
   [hk_checksum] (recompute the payload's checksum now) and [hk_corrupt]
   (apply a given damage to the payload).  Pages registered with
   [hk_checksum = None] (WAL pages, whose records carry their own CRCs)
   are damageable but not pool-verified. *)
type page_hooks = {
  hk_checksum : (unit -> int) option;
  hk_corrupt : Faults.corruption -> int -> unit;
}

exception Corruption of int

(* One protection record per page: its hooks, and the seal stored at the
   last write-out (meaningless when [pr_checksum = None]).  Verify and
   reseal each find it with one gid lookup. *)
type prot = {
  pr_checksum : (unit -> int) option;
  pr_corrupt : Faults.corruption -> int -> unit;
  mutable seal : int;
}

(* The gid-keyed side tables: no polymorphic hash or compare per lookup. *)
module Int_hashtbl = Vis_util.Int_hashtbl

(* The page table's home position uses the same multiplicative hash as
   [Int_hashtbl] — gids are dense and sequential, so multiply by an odd
   constant and keep middle bits to spread strided runs over a power-of-two
   table — written out here so it inlines into every probe. *)
let gid_hash g = (g * 0x1E3779B97F4A7C15) lsr 20

(* A checksum bucket: its checksum page, and how many pages in the bucket
   carry a stored seal.  The bucket is forgotten when the count drops to
   zero, so a long-lived pool keeps no bucket page (and no pin) for gid
   ranges whose protected pages are all gone. *)
type bucket = { cs_gid : int; mutable sealed : int }

(* Protected pages' stored checksums live on dedicated checksum pages, one
   per [cs_span]-gid bucket; read-path verification touches the bucket page
   so the detection overhead shows up in I/O counts, machine-independently.
   The span models 8-byte checksums packed into a 4 KB page: 512 seals per
   bucket page, so whole-warehouse protection needs only a handful of
   them. *)
let cs_span = 512

type t = {
  cap : int;
  io : Iostats.t;
  (* Frame slots: [fpage.(i)] is the resident page ([nil] when free), [prev]
     points towards the most recently used frame and [next] towards the
     least (or to the next free slot). *)
  mutable fpage : int array;
  mutable fdirty : Bytes.t;
  mutable fpins : int array;
  mutable prev : int array;
  mutable next : int array;
  mutable free : int;
  mutable resident_frames : int;
  mutable mru : int;
  mutable lru : int;
  (* Page table: linear probing over a power-of-two array at most half
     full; [pkey] holds gids ([nil] = empty), [pslot] their frame slots. *)
  mutable pkey : int array;
  mutable pslot : int array;
  mutable next_page : int;
  mutable plan : Faults.t;
  prots : prot Int_hashtbl.t;
  quarantine : unit Int_hashtbl.t;
  cs_pages : bucket Int_hashtbl.t;  (* gid / cs_span -> its bucket *)
}

let rec pow2_above n k = if k >= n then k else pow2_above n (2 * k)

let create ~capacity ~stats =
  if capacity < 1 then invalid_arg "Buffer_pool.create: capacity < 1";
  let tsize = pow2_above (2 * capacity) 8 in
  {
    cap = capacity;
    io = stats;
    fpage = Array.make capacity nil;
    fdirty = Bytes.make capacity '\000';
    fpins = Array.make capacity 0;
    prev = Array.make capacity nil;
    next = Array.init capacity (fun i -> if i + 1 < capacity then i + 1 else nil);
    free = 0;
    resident_frames = 0;
    mru = nil;
    lru = nil;
    pkey = Array.make tsize nil;
    pslot = Array.make tsize nil;
    next_page = 0;
    plan = Faults.none ();
    prots = Int_hashtbl.create 64;
    quarantine = Int_hashtbl.create 8;
    cs_pages = Int_hashtbl.create 8;
  }

(* --- Page table ------------------------------------------------------- *)

let home t page = gid_hash page land (Array.length t.pkey - 1)

(* Position of [page] in the table, or of the empty cell ending its run. *)
let rec probe t page i =
  let k = t.pkey.(i) in
  if k = page || k = nil then i
  else probe t page ((i + 1) land (Array.length t.pkey - 1))

(* Slot of a resident page, or [nil]. *)
let find t page =
  let i = probe t page (home t page) in
  if t.pkey.(i) = nil then nil else t.pslot.(i)

let table_add t page slot =
  let i = probe t page (home t page) in
  t.pkey.(i) <- page;
  t.pslot.(i) <- slot

(* Backward-shift deletion: after emptying position [i], pull later
   entries of the probe run back into the hole when their home position
   allows it, so lookups never need tombstones. *)
let table_remove t page =
  let mask = Array.length t.pkey - 1 in
  let i = probe t page (home t page) in
  if t.pkey.(i) <> nil then begin
    let hole = ref i in
    let j = ref ((i + 1) land mask) in
    while t.pkey.(!j) <> nil do
      let h = home t t.pkey.(!j) in
      (* Entry [j] may move into the hole unless its home lies cyclically in
         (hole, j]. *)
      let stays =
        if !hole <= !j then h > !hole && h <= !j else h > !hole || h <= !j
      in
      if not stays then begin
        t.pkey.(!hole) <- t.pkey.(!j);
        t.pslot.(!hole) <- t.pslot.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    t.pkey.(!hole) <- nil;
    t.pslot.(!hole) <- nil
  end

(* --- Frame slots ------------------------------------------------------ *)

(* Double the slot arrays and rehash the page table (only reached when
   every frame is pinned and a page is admitted past capacity). *)
let grow_frames t =
  let n = Array.length t.fpage in
  let n' = 2 * n in
  let extend a fill =
    let b = Array.make n' fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.fpage <- extend t.fpage nil;
  t.fpins <- extend t.fpins 0;
  t.prev <- extend t.prev nil;
  t.next <- extend t.next nil;
  let d = Bytes.make n' '\000' in
  Bytes.blit t.fdirty 0 d 0 n;
  t.fdirty <- d;
  for i = n to n' - 2 do
    t.next.(i) <- i + 1
  done;
  t.next.(n' - 1) <- t.free;
  t.free <- n;
  let tsize = pow2_above (2 * n') 8 in
  if tsize > Array.length t.pkey then begin
    let keys = t.pkey and slots = t.pslot in
    t.pkey <- Array.make tsize nil;
    t.pslot <- Array.make tsize nil;
    Array.iteri (fun i k -> if k <> nil then table_add t k slots.(i)) keys
  end

let dirty t f = Bytes.unsafe_get t.fdirty f <> '\000'

let set_dirty t f d = Bytes.set t.fdirty f (if d then '\001' else '\000')

let capacity t = t.cap

let stats t = t.io

let set_faults t plan = t.plan <- plan

let faults t = t.plan

let fresh_page t =
  (* Fault check before the counter bump: a failed allocation can be retried
     and will hand out the same identifier. *)
  Faults.check t.plan Faults.Alloc ~page:t.next_page;
  let id = t.next_page in
  t.next_page <- t.next_page + 1;
  id

let unlink t f =
  let p = t.prev.(f) and n = t.next.(f) in
  if p = nil then t.mru <- n else t.next.(p) <- n;
  if n = nil then t.lru <- p else t.prev.(n) <- p;
  t.prev.(f) <- nil;
  t.next.(f) <- nil

let push_front t f =
  t.next.(f) <- t.mru;
  t.prev.(f) <- nil;
  if t.mru <> nil then t.prev.(t.mru) <- f;
  t.mru <- f;
  if t.lru = nil then t.lru <- f

(* Take frame [f] out of the pool: off the recency list, out of the page
   table, and its slot back on the free list. *)
let drop t f =
  unlink t f;
  table_remove t t.fpage.(f);
  t.fpage.(f) <- nil;
  t.next.(f) <- t.free;
  t.free <- f;
  t.resident_frames <- t.resident_frames - 1

let admit t page ~dirty =
  if t.free = nil then grow_frames t;
  let f = t.free in
  t.free <- t.next.(f);
  t.fpage.(f) <- page;
  set_dirty t f dirty;
  t.fpins.(f) <- 0;
  table_add t page f;
  t.resident_frames <- t.resident_frames + 1;
  push_front t f

(* Least recently used unpinned frame, or [nil] when every frame is
   pinned (the pool then grows past capacity rather than evicting). *)
let rec victim_from t f =
  if f = nil || t.fpins.(f) = 0 then f else victim_from t t.prev.(f)

let victim t = victim_from t t.lru

(* Update the stored checksum from the payload about to hit the device.
   Side-table only: the checksum piggybacks on the page write itself, so
   resealing never issues I/O of its own (and never re-enters the pool
   from inside an eviction). *)
let reseal t page =
  match Int_hashtbl.find_opt t.prots page with
  | Some ({ pr_checksum = Some cs; _ } as p) -> p.seal <- cs ()
  | _ -> ()

(* A physical write of [page] just succeeded: reseal, then poll the fault
   plan for silent damage.  Damage lands *after* the reseal, so the stored
   checksum was computed from the intact payload and convicts the damaged
   one at the next verification.  A torn write additionally surfaces as
   the crash that interrupted the transfer. *)
let wrote t page =
  reseal t page;
  match Faults.damage t.plan Faults.Write ~page with
  | None -> ()
  | Some (way, sel) ->
      (match Int_hashtbl.find_opt t.prots page with
      | Some p -> p.pr_corrupt way sel
      | None -> ());
      if way = Faults.Torn_write then
        raise
          (Faults.Injected
             {
               f_op = Faults.Write;
               f_kind = Faults.Crash;
               f_page = page;
               f_seq = Faults.seq t.plan;
               f_retries = 0;
             })

let evict t f =
  let page = t.fpage.(f) and was_dirty = dirty t f in
  drop t f;
  Iostats.record_pool_eviction t.io;
  if was_dirty then begin
    Iostats.record_write t.io;
    wrote t page
  end

let insert_resident t page ~dirty:d ~count_read =
  (* Pick the eviction victim first so its write fault (if any) fires before
     we count the read or mutate anything. *)
  let at_capacity = t.resident_frames >= t.cap in
  let v = if at_capacity then victim t else nil in
  if v <> nil && dirty t v then Faults.check t.plan Faults.Write ~page:t.fpage.(v);
  if count_read then begin
    Faults.check t.plan Faults.Read ~page;
    Iostats.record_read t.io
  end;
  Iostats.record_pool_miss t.io;
  (* Every resident frame pinned: admit past capacity instead of evicting. *)
  if at_capacity && v = nil then Iostats.record_pool_overflow t.io;
  if v <> nil then evict t v;
  admit t page ~dirty:d

(* Read-path verification of a protected page that was just miss-read.
   Recomputes the payload checksum, compares against the seal stored at the
   last write-out, and touches the page's checksum bucket page — that touch
   is the (small, machine-independent) I/O cost of detection.  Checksum
   pages are never themselves protected, so the recursion through [touch]
   is one level deep.  Mismatches quarantine the page and count a failure;
   [verify_seal]'s caller decides whether to raise. *)
let rec verify_seal t page p cs =
  Iostats.record_checksum_verification t.io;
  (match Int_hashtbl.find_opt t.cs_pages (page / cs_span) with
  | Some { cs_gid = g; _ } ->
      (* Checksum pages are hot, tiny metadata: pin the bucket page on its
         first admission so capacity pressure cannot thrash it — one read
         per residency burst, hits thereafter.  (A flush still drops it;
         the next verification re-reads and re-pins.  Forgetting the
         bucket clears the pin.) *)
      if find t g <> nil then touch t g ~dirty:false else pin t g
  | None -> ());
  let ok = p.seal = cs () in
  if not ok then begin
    Iostats.record_checksum_failure t.io;
    Int_hashtbl.replace t.quarantine page ()
  end;
  ok

(* Quarantined pages are fenced by the scrub pipeline — re-reading one does
   not re-raise, so rebuild passes can run without tripping over the page
   they are replacing. *)
and verify_on_read t page =
  if not (Int_hashtbl.mem t.quarantine page) then
    match Int_hashtbl.find_opt t.prots page with
    | Some ({ pr_checksum = Some cs; _ } as p) ->
        if not (verify_seal t page p cs) then raise (Corruption page)
    | _ -> ()

and touch t page ~dirty =
  Iostats.record_access t.io;
  let f = find t page in
  if f <> nil then begin
    Iostats.record_pool_hit t.io;
    unlink t f;
    push_front t f;
    if dirty then set_dirty t f true
  end
  else begin
    insert_resident t page ~dirty ~count_read:true;
    verify_on_read t page
  end

and pin t page =
  let missed = find t page = nil in
  if missed then insert_resident t page ~dirty:false ~count_read:true
  else Iostats.record_pool_hit t.io;
  let f = find t page in
  t.fpins.(f) <- t.fpins.(f) + 1;
  (* Verify after the pin so the checksum-page touch cannot evict the frame
     we just admitted (it is pinned now). *)
  if missed then verify_on_read t page

let touch_new t page =
  Iostats.record_access t.io;
  let f = find t page in
  if f <> nil then begin
    Iostats.record_pool_hit t.io;
    unlink t f;
    push_front t f;
    set_dirty t f true
  end
  else insert_resident t page ~dirty:true ~count_read:false

let unpin t page =
  let f = find t page in
  if f = nil then invalid_arg "Buffer_pool.unpin: page not resident"
  else if t.fpins.(f) = 0 then invalid_arg "Buffer_pool.unpin: page not pinned"
  else t.fpins.(f) <- t.fpins.(f) - 1

let pinned t page =
  let f = find t page in
  f <> nil && t.fpins.(f) > 0

let write_back t page =
  let f = find t page in
  if f <> nil && dirty t f then begin
    Faults.check t.plan Faults.Write ~page;
    Iostats.record_wal_write t.io;
    set_dirty t f false;
    wrote t page
  end

let discard t page =
  let f = find t page in
  if f <> nil then drop t f

let flush t =
  (* Flush ignores pins: it models an orderly shutdown, after which nothing
     holds a reference.  Dirty pages are written unconditionally (no fault
     check — callers flush outside the faulted region). *)
  while t.lru <> nil do
    let f = t.lru in
    let page = t.fpage.(f) and was_dirty = dirty t f in
    drop t f;
    if was_dirty then begin
      Iostats.record_write t.io;
      (* Orderly shutdown still reseals (the write is real), but polls no
         damage — flush runs outside the faulted region. *)
      reseal t page
    end
  done

let resident t page = find t page <> nil

let residency t =
  let rec walk f acc =
    if f = nil then List.rev acc
    else walk t.next.(f) ((t.fpage.(f), dirty t f, t.fpins.(f)) :: acc)
  in
  walk t.mru []

(* --- Corruption protection ------------------------------------------- *)

(* A page gains or loses its stored seal: keep its bucket's count.  The
   first seal in a bucket allocates the bucket's checksum page — not via
   [fresh_page]: checksum pages are pool metadata, and [protect] runs
   inside callers' no-pool-calls mutation phases (a B+-tree split registers
   its new sibling mid-mutation), so it must not hit a fault point.  The
   last seal leaving forgets the bucket and clears the pin verification
   put on its page; the page itself stays an ordinary clean frame until
   LRU pressure evicts it. *)
let seal_added t page =
  let b = page / cs_span in
  match Int_hashtbl.find_opt t.cs_pages b with
  | Some bk -> bk.sealed <- bk.sealed + 1
  | None ->
      let gid = t.next_page in
      t.next_page <- t.next_page + 1;
      Int_hashtbl.add t.cs_pages b { cs_gid = gid; sealed = 1 }

let seal_removed t page =
  let b = page / cs_span in
  match Int_hashtbl.find_opt t.cs_pages b with
  | Some bk when bk.sealed > 1 -> bk.sealed <- bk.sealed - 1
  | Some bk ->
      Int_hashtbl.remove t.cs_pages b;
      let f = find t bk.cs_gid in
      if f <> nil then t.fpins.(f) <- 0
  | None -> ()

let sealed_prot t page =
  match Int_hashtbl.find_opt t.prots page with
  | Some { pr_checksum = Some _; _ } -> true
  | _ -> false

let protect t page { hk_checksum; hk_corrupt } =
  Int_hashtbl.remove t.quarantine page;
  let was_sealed = sealed_prot t page in
  let seal =
    match hk_checksum with
    | None ->
        if was_sealed then seal_removed t page;
        0
    | Some cs ->
        if not was_sealed then seal_added t page;
        cs ()
  in
  Int_hashtbl.replace t.prots page
    { pr_checksum = hk_checksum; pr_corrupt = hk_corrupt; seal }

let unprotect t page =
  if sealed_prot t page then seal_removed t page;
  Int_hashtbl.remove t.prots page;
  Int_hashtbl.remove t.quarantine page

let protected t page = Int_hashtbl.mem t.prots page

(* Non-raising verification probe for the scrub pass.  Unverifiable pages
   (unprotected, or registered without a checksum hook) report clean. *)
let verify t page =
  if Int_hashtbl.mem t.quarantine page then false
  else
    match Int_hashtbl.find_opt t.prots page with
    | Some ({ pr_checksum = Some cs; _ } as p) -> verify_seal t page p cs
    | _ -> true

let quarantined t page = Int_hashtbl.mem t.quarantine page

let quarantine t page = Int_hashtbl.replace t.quarantine page ()

(* At-rest damage injection for oracles and benches: mutate the payload
   directly, bypassing the device write path, so the stored seal (computed
   at the last write-out) convicts the page.  No-op on pages that own no
   payload. *)
let corrupt_page t page way sel =
  match Int_hashtbl.find_opt t.prots page with
  | Some p -> p.pr_corrupt way sel
  | None -> ()

(* Sorted, so damage plans indexing into it replay identically. *)
let protected_gids t =
  Int_hashtbl.fold
    (fun g p acc -> if p.pr_checksum <> None then g :: acc else acc)
    t.prots []
  |> List.sort compare
