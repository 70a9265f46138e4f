type rid = { rid_page : int; rid_slot : int }

(* A page is a zero-copy window into the file's {!Arena}: [off] is the word
   offset of its block, holding [tpp] slots of [1 + arity] words each — word
   0 is the presence flag, words 1..arity the attributes.  Tuple data lives
   off the OCaml heap; the page records only bookkeeping. *)
type page = { gid : int; off : int; mutable live : int }

type t = {
  pool : Buffer_pool.t;
  tpp : int;
  arena : Arena.t;
  mutable arity : int;  (* -1 until the first append fixes it *)
  mutable pages : page array;
  mutable n_pages : int;
  mutable n_tuples : int;
  mutable tail_used : int;  (* slots handed out on the last page *)
  mutable hint : int;  (* every page below it is full: where [next_rid] looks *)
  mutable prot : bool;  (* checksum-protect pages as they are created *)
}

let create ?arity pool ~tuples_per_page =
  if tuples_per_page < 1 then invalid_arg "Heap_file.create";
  (match arity with
  | Some a when a < 0 -> invalid_arg "Heap_file.create: negative arity"
  | _ -> ());
  {
    pool;
    tpp = tuples_per_page;
    arena = Arena.create ();
    arity = (match arity with Some a -> a | None -> -1);
    pages = [||];
    n_pages = 0;
    n_tuples = 0;
    tail_used = 0;
    hint = 0;
    prot = false;
  }

let slot_words t = 1 + t.arity

let page_words t = t.tpp * slot_words t

let slot_off t page slot = page.off + (slot * slot_words t)

let fix_arity t tuple =
  let a = Array.length tuple in
  if t.arity = -1 then t.arity <- a
  else if a <> t.arity then invalid_arg "Heap_file: arity mismatch"

(* Register a page's arena window with the pool's corruption machinery.
   The checksum covers the whole block (presence flags included), so any
   damaged word convicts the page.  Damage selectors map onto the block
   deterministically: a bit flip picks a word and one of its low 62 bits, a
   torn write keeps a word prefix and zeroes the rest. *)
let protect_page t page =
  Buffer_pool.protect t.pool page.gid
    {
      Buffer_pool.hk_checksum =
        Some (fun () -> Checksum.arena t.arena ~off:page.off ~len:(page_words t));
      hk_corrupt =
        (fun way sel ->
          let words = page_words t in
          match way with
          | Faults.Bit_flip ->
              let w = page.off + (sel mod words) in
              let b = sel / words mod 62 in
              Arena.set t.arena w (Arena.get t.arena w lxor (1 lsl b))
          | Faults.Torn_write ->
              (* The unwritten tail holds stale device garbage, marked with
                 a high bit no real attribute carries — so a tear is
                 detectably wrong even over a run of empty slots. *)
              for w = sel mod words to words - 1 do
                Arena.set t.arena (page.off + w) ((sel + w) lor (1 lsl 60))
              done);
    }

let grow t =
  (* Both fault points (the allocation, and the eviction a touch_new may
     force) fire before any heap mutation, so a failed grow leaves the file
     exactly as it was — including the arena, whose block is only carved out
     afterwards. *)
  let gid = Buffer_pool.fresh_page t.pool in
  Buffer_pool.touch_new t.pool gid;
  let off = Arena.alloc t.arena (page_words t) in
  let page = { gid; off; live = 0 } in
  if t.prot then protect_page t page;
  if t.n_pages = Array.length t.pages then begin
    let ncap = max 8 (2 * Array.length t.pages) in
    let npages = Array.make ncap page in
    Array.blit t.pages 0 npages 0 t.n_pages;
    t.pages <- npages
  end;
  t.pages.(t.n_pages) <- page;
  t.n_pages <- t.n_pages + 1;
  t.tail_used <- 0;
  page

let write_slot t page slot tuple =
  let off = slot_off t page slot in
  Arena.set t.arena off 1;
  Arena.blit_from_array t.arena ~off:(off + 1) tuple

let slot_live t page slot = Arena.get t.arena (slot_off t page slot) <> 0

let clear_slot t page slot = Arena.set t.arena (slot_off t page slot) 0

let read_slot t page slot =
  Arena.to_array t.arena ~off:(slot_off t page slot + 1) ~len:t.arity

(* Freed slots are reused: the next append fills the lowest free slot on
   the first page below the tail that has one, and goes to the tail only
   when no such page exists — so the file's length follows its live tuples,
   not every tuple ever inserted.  Every page handed out before the tail
   has had all its slots handed out, so its holes are [tpp - live]: the
   search reads the [live] counters and moves [hint] past the full pages it
   skips; only the page it stops on is read slot by slot.  Tail-page holes
   wait until the page stops being the tail, so an append to the tail page
   is always at [tail_used] and [truncate_last] can tell it from a
   backfill.  The rid is a pure function of the file's state, which is what
   lets the write-ahead log predict it. *)
let rec free_slot t page s =
  if s >= t.tpp then -1 else if slot_live t page s then free_slot t page (s + 1) else s

let rec search t p =
  if p >= t.n_pages - 1 then
    if t.n_pages = 0 || t.tail_used >= t.tpp then { rid_page = t.n_pages; rid_slot = 0 }
    else { rid_page = t.n_pages - 1; rid_slot = t.tail_used }
  else
    let page = t.pages.(p) in
    if page.live = t.tpp then begin
      if t.hint = p then t.hint <- p + 1;
      search t (p + 1)
    end
    else
      (* A page whose presence words show no hole despite its [live] count
         is damaged; it is passed over (not skipped by [hint]) until scrub
         convicts it. *)
      let s = free_slot t page 0 in
      if s < 0 then search t (p + 1) else { rid_page = p; rid_slot = s }

let next_rid t = search t t.hint

let append t tuple =
  fix_arity t tuple;
  let rid = next_rid t in
  let at_tail = rid.rid_page >= t.n_pages - 1 in
  let page =
    if rid.rid_page = t.n_pages then grow t
    else begin
      (* Fault before mutation, as in [grow]. *)
      let page = t.pages.(rid.rid_page) in
      Buffer_pool.touch t.pool page.gid ~dirty:true;
      page
    end
  in
  write_slot t page rid.rid_slot tuple;
  page.live <- page.live + 1;
  if at_tail then t.tail_used <- t.tail_used + 1;
  t.n_tuples <- t.n_tuples + 1;
  rid

(* Empty a live slot of page [p]; the free-slot search must look there. *)
let remove_live t p slot =
  let page = t.pages.(p) in
  clear_slot t page slot;
  page.live <- page.live - 1;
  t.n_tuples <- t.n_tuples - 1;
  if p < t.hint then t.hint <- p

let check_rid t rid =
  rid.rid_page >= 0 && rid.rid_page < t.n_pages && rid.rid_slot >= 0
  && rid.rid_slot < t.tpp

let get t rid =
  if not (check_rid t rid) then invalid_arg "Heap_file.get: bad rid";
  let page = t.pages.(rid.rid_page) in
  Buffer_pool.touch t.pool page.gid ~dirty:false;
  if slot_live t page rid.rid_slot then Some (read_slot t page rid.rid_slot)
  else None

let delete t rid =
  if not (check_rid t rid) then invalid_arg "Heap_file.delete: bad rid";
  let page = t.pages.(rid.rid_page) in
  Buffer_pool.touch t.pool page.gid ~dirty:true;
  if not (slot_live t page rid.rid_slot) then false
  else begin
    remove_live t rid.rid_page rid.rid_slot;
    true
  end

let update t rid tuple =
  if not (check_rid t rid) then invalid_arg "Heap_file.update: bad rid";
  fix_arity t tuple;
  let page = t.pages.(rid.rid_page) in
  Buffer_pool.touch t.pool page.gid ~dirty:true;
  if not (slot_live t page rid.rid_slot) then false
  else begin
    write_slot t page rid.rid_slot tuple;
    true
  end

let restore t rid tuple =
  if not (check_rid t rid) then invalid_arg "Heap_file.restore: bad rid";
  fix_arity t tuple;
  let page = t.pages.(rid.rid_page) in
  Buffer_pool.touch t.pool page.gid ~dirty:true;
  if slot_live t page rid.rid_slot then false
  else begin
    write_slot t page rid.rid_slot tuple;
    page.live <- page.live + 1;
    t.n_tuples <- t.n_tuples + 1;
    true
  end

let truncate_last t rid =
  (* Tolerant: the rid was *predicted* before the append ran, so when undo
     reaches it the append may never have happened — then a tail rid still
     points one past the tail, and a backfill rid at an empty slot, and
     there is nothing to remove. *)
  if
    rid.rid_page >= t.n_pages
    || (rid.rid_page = t.n_pages - 1 && rid.rid_slot >= t.tail_used)
  then false
  else if rid.rid_page < t.n_pages - 1 then begin
    (* Undo of a backfill: clear the slot, keep the page. *)
    if not (check_rid t rid) then invalid_arg "Heap_file.truncate_last: bad rid";
    let page = t.pages.(rid.rid_page) in
    if not (slot_live t page rid.rid_slot) then false
    else begin
      Buffer_pool.touch t.pool page.gid ~dirty:true;
      remove_live t rid.rid_page rid.rid_slot;
      true
    end
  end
  else if rid.rid_slot = t.tail_used - 1 then begin
    let page = t.pages.(rid.rid_page) in
    Buffer_pool.touch t.pool page.gid ~dirty:true;
    if slot_live t page rid.rid_slot then remove_live t rid.rid_page rid.rid_slot;
    t.tail_used <- t.tail_used - 1;
    if t.tail_used = 0 then begin
      (* The append that created this slot also grew the page: drop it
         without a write-back, returning its arena block (LIFO — the tail
         page's block is the arena's tail) and restoring the pre-append
         page count.  Every page below [hint] is full, so [hint] stays
         valid past the shorter file. *)
      Buffer_pool.discard t.pool page.gid;
      if t.prot then Buffer_pool.unprotect t.pool page.gid;
      Arena.release t.arena (page_words t);
      t.n_pages <- t.n_pages - 1;
      t.tail_used <- (if t.n_pages = 0 then 0 else t.tpp)
    end;
    true
  end
  else invalid_arg "Heap_file.truncate_last: rid is not the tail"

(* The key filter of [scan_where]: open addressing over a power-of-two
   table at most a quarter full, linear probing from the multiplicative
   hash (the one [Vis_util.Int_hashtbl] uses).  [fkey] holds the keys and
   [fused] marks the occupied cells — a mark apart from the key, so any int
   can be a key: there is no sentinel value.  Only this module knows the
   layout: [scan_live] probes it inline, since under [-opaque] a call into
   another module per slot costs about twice the probe. *)
type filter = { fkey : int array; fused : Bytes.t; fmask : int }

let filter_hash k = (k * 0x1E3779B97F4A7C15) lsr 20

let rec pow2_above n k = if k >= n then k else pow2_above n (2 * k)

let make_filter keys =
  let size = pow2_above (4 * List.length keys) 8 in
  let f = { fkey = Array.make size 0; fused = Bytes.make size '\000'; fmask = size - 1 } in
  List.iter
    (fun k ->
      let i = ref (filter_hash k land f.fmask) in
      while Bytes.get f.fused !i <> '\000' && f.fkey.(!i) <> k do
        i := (!i + 1) land f.fmask
      done;
      f.fkey.(!i) <- k;
      Bytes.set f.fused !i '\001')
    keys;
  f

let no_keys = make_filter []

(* Both scans run this loop.  It indexes the arena's backing array in place
   (see [Arena]): one window check per page, then inlined reads of each
   slot's presence word and, when [attr >= 0], its key word, which is
   probed in [keys] right here.  Only the tuples handed to [f] are copied
   out.  The array is re-fetched after every callback, in case [f] grew the
   arena. *)
let scan_live t ~attr ~keys ~f =
  let sw = slot_words t in
  let { fkey; fused; fmask } = keys in
  for p = 0 to t.n_pages - 1 do
    let page = t.pages.(p) in
    Buffer_pool.touch t.pool page.gid ~dirty:false;
    if not (Arena.in_use t.arena ~off:page.off ~len:(page_words t)) then
      invalid_arg "Heap_file: page outside its arena";
    let w = ref (Arena.words t.arena) in
    for s = 0 to t.tpp - 1 do
      let off = page.off + (s * sw) in
      if
        Bigarray.Array1.unsafe_get !w off <> 0
        && (attr < 0
           ||
           let k = Bigarray.Array1.unsafe_get !w (off + 1 + attr) in
           let i = ref (filter_hash k land fmask) in
           while
             Bytes.unsafe_get fused !i <> '\000' && Array.unsafe_get fkey !i <> k
           do
             i := (!i + 1) land fmask
           done;
           Bytes.unsafe_get fused !i <> '\000')
      then begin
        f { rid_page = p; rid_slot = s }
          (Arena.to_array t.arena ~off:(off + 1) ~len:t.arity);
        w := Arena.words t.arena
      end
    done
  done

let scan t ~f = scan_live t ~attr:(-1) ~keys:no_keys ~f

let scan_where t ~attr ~keys ~f =
  if attr < 0 || (t.arity >= 0 && attr >= t.arity) then
    invalid_arg "Heap_file.scan_where";
  scan_live t ~attr ~keys:(make_filter keys) ~f

let n_tuples t = t.n_tuples

let n_pages t = t.n_pages

let tuples_per_page t = t.tpp

let arena_words t = Arena.used_words t.arena

let page_gid t i =
  if i < 0 || i >= t.n_pages then invalid_arg "Heap_file.page_gid";
  t.pages.(i).gid

let protect t =
  if not t.prot then begin
    t.prot <- true;
    for i = 0 to t.n_pages - 1 do
      protect_page t t.pages.(i)
    done
  end

let protected t = t.prot
