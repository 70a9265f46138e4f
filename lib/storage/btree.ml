type rid = Heap_file.rid

(* Entries are totally ordered by (key, rid), which makes every entry unique
   and lets leaves split anywhere, even inside a run of duplicate keys. *)
type entry = int * rid

let cmp_entry ((k1, r1) : entry) ((k2, r2) : entry) =
  match Int.compare k1 k2 with
  | 0 -> (
      match Int.compare r1.Heap_file.rid_page r2.Heap_file.rid_page with
      | 0 -> Int.compare r1.Heap_file.rid_slot r2.Heap_file.rid_slot
      | c -> c)
  | c -> c

let min_rid = { Heap_file.rid_page = min_int; rid_slot = min_int }

type node = Leaf of leaf | Inner of inner

and leaf = {
  lgid : int;
  mutable entries : entry array;
  mutable next : leaf option;
}

and inner = {
  igid : int;
  (* seps.(i) bounds the subtrees: everything in kids.(i) is < seps.(i) and
     everything in kids.(i+1) is >= seps.(i). *)
  mutable seps : entry array;
  mutable kids : node array;
}

type t = {
  pool : Buffer_pool.t;
  fanout : int;
  mutable root : node;
  mutable count : int;
  mutable pages : int;
  mutable prot : bool;  (* checksum-protect nodes as they are created *)
}

(* --- Corruption protection.

   Node payloads are OCaml values, so each registered page seals its entry
   (or separator) array plus a per-node damage count.  Injected damage
   never mutates tree *structure* (array lengths, kid pointers): a bit flip
   xors one bit of one entry field, a torn write replaces a suffix of
   entries with zeroed stale fields — the tree stays safe to traverse while
   damaged, and the scrub pass convicts it by seal.  Every damage also
   bumps the count, so even damage that lands on an empty node or an
   already-zero suffix is detectable.

   The count sits in the seal's low [dmg_bits] bits, apart from the entry
   hash above them.  Folded into the hash chain instead, a count change and
   an entry flip could cancel: the FNV-1a step carries a difference only
   toward higher bits, so two flips at one high bit of two words can leave
   the same state.  Kept apart, every single injection changes the low
   bits, whatever it does to the entries. *)

let fold_entries h entries =
  let h = ref (Checksum.add h (Array.length entries)) in
  Array.iter
    (fun (k, r) ->
      h := Checksum.add !h k;
      h := Checksum.add !h r.Heap_file.rid_page;
      h := Checksum.add !h r.Heap_file.rid_slot)
    entries;
  !h

let dmg_bits = 8

let node_seal dmg entries =
  let hash = Checksum.finish (fold_entries Checksum.empty entries) in
  ((hash lsl dmg_bits) lor (dmg land ((1 lsl dmg_bits) - 1))) land max_int

let zero_rid = { Heap_file.rid_page = 0; rid_slot = 0 }

let damage_entries entries way sel =
  let n = Array.length entries in
  if n = 0 then entries
  else
    match way with
    | Faults.Bit_flip ->
        let field = sel mod (3 * n) in
        let i = field / 3 and bit = 1 lsl (sel / (3 * n) mod 62) in
        let k, r = entries.(i) in
        let e' =
          match field mod 3 with
          | 0 -> (k lxor bit, r)
          | 1 -> (k, { r with Heap_file.rid_page = r.Heap_file.rid_page lxor bit })
          | _ -> (k, { r with Heap_file.rid_slot = r.Heap_file.rid_slot lxor bit })
        in
        let out = Array.copy entries in
        out.(i) <- e';
        out
    | Faults.Torn_write ->
        let keep = sel mod n in
        Array.mapi (fun i e -> if i < keep then e else (0, zero_rid)) entries

let node_hooks ~get ~set =
  let dmg = ref 0 in
  {
    Buffer_pool.hk_checksum = Some (fun () -> node_seal !dmg (get ()));
    hk_corrupt =
      (fun way sel ->
        incr dmg;
        set (damage_entries (get ()) way sel));
  }

let register_leaf pool l =
  Buffer_pool.protect pool l.lgid
    (node_hooks ~get:(fun () -> l.entries) ~set:(fun e -> l.entries <- e))

let register_inner pool nd =
  Buffer_pool.protect pool nd.igid
    (node_hooks ~get:(fun () -> nd.seps) ~set:(fun e -> nd.seps <- e))

let create ?(protect = false) pool ~fanout =
  if fanout < 4 then invalid_arg "Btree.create: fanout < 4";
  let gid = Buffer_pool.fresh_page pool in
  Buffer_pool.touch_new pool gid;
  let root = { lgid = gid; entries = [||]; next = None } in
  if protect then register_leaf pool root;
  {
    pool;
    fanout;
    root = Leaf root;
    count = 0;
    pages = 1;
    prot = protect;
  }

let length t = t.count

let n_pages t = t.pages

let height t =
  let rec depth = function
    | Leaf _ -> 1
    | Inner n -> 1 + depth n.kids.(0)
  in
  depth t.root

(* Index of the child an entry belongs to: the number of separators <= it. *)
let child_index seps e =
  let lo = ref 0 and hi = ref (Array.length seps) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp_entry seps.(mid) e <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Position of the first array element >= e. *)
let lower_bound entries e =
  let lo = ref 0 and hi = ref (Array.length entries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp_entry entries.(mid) e < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let array_insert arr pos x =
  let n = Array.length arr in
  let out = Array.make (n + 1) x in
  Array.blit arr 0 out 0 pos;
  Array.blit arr pos out (pos + 1) (n - pos);
  out

let array_remove arr pos =
  let n = Array.length arr in
  let out = Array.make (n - 1) arr.(0) in
  Array.blit arr 0 out 0 pos;
  Array.blit arr (pos + 1) out pos (n - 1 - pos);
  out

let insert t ~key rid =
  let e = (key, rid) in
  (* Fault atomicity: every pool interaction — the path touches and the
     page allocations any splits will need — happens in a first phase, so
     an injected fault leaves the tree untouched; the mutation phase below
     performs no pool calls.  The touch/alloc sequence replicates the
     naive single-pass insert's exactly, keeping the operation stream (and
     with it fault schedules) unchanged on the fault-free path. *)
  let rec descend acc = function
    | Leaf l -> (acc, l)
    | Inner nd ->
        Buffer_pool.touch t.pool nd.igid ~dirty:false;
        descend (nd :: acc) nd.kids.(child_index nd.seps e)
  in
  (* [inners] is the search path, deepest inner first. *)
  let inners, leaf = descend [] t.root in
  Buffer_pool.touch t.pool leaf.lgid ~dirty:true;
  let pos = lower_bound leaf.entries e in
  if pos < Array.length leaf.entries && cmp_entry leaf.entries.(pos) e = 0 then
    invalid_arg "Btree.insert: duplicate (key, rid) entry";
  let alloc () =
    let gid = Buffer_pool.fresh_page t.pool in
    Buffer_pool.touch_new t.pool gid;
    gid
  in
  (* Pages for the split chain, in the order the mutation phase consumes
     them: the leaf's right sibling, then one per splitting inner going
     up, then the new root.  A node gains a kid iff its child split. *)
  let pages = ref [] in
  let gains = ref (Array.length leaf.entries + 1 > t.fanout) in
  if !gains then pages := alloc () :: !pages;
  List.iter
    (fun nd ->
      if !gains then begin
        Buffer_pool.touch t.pool nd.igid ~dirty:true;
        gains := Array.length nd.kids + 1 > t.fanout;
        if !gains then pages := alloc () :: !pages
      end)
    inners;
  if !gains then pages := alloc () :: !pages;
  let pages = ref (List.rev !pages) in
  let take () =
    match !pages with
    | gid :: rest ->
        pages := rest;
        t.pages <- t.pages + 1;
        gid
    | [] -> assert false
  in
  (* Mutation phase: returns the (separator, new right sibling) when the
     node split. *)
  let rec ins node =
    match node with
    | Leaf l ->
        l.entries <- array_insert l.entries pos e;
        if Array.length l.entries > t.fanout then begin
          let n = Array.length l.entries in
          let mid = n / 2 in
          let right_entries = Array.sub l.entries mid (n - mid) in
          let right = { lgid = take (); entries = right_entries; next = l.next } in
          (* Registration is side-table only (no pool I/O), so it is safe
             inside the no-pool-calls mutation phase. *)
          if t.prot then register_leaf t.pool right;
          l.entries <- Array.sub l.entries 0 mid;
          l.next <- Some right;
          Some (right.entries.(0), Leaf right)
        end
        else None
    | Inner nd -> (
        let i = child_index nd.seps e in
        match ins nd.kids.(i) with
        | None -> None
        | Some (sep, right) ->
            nd.seps <- array_insert nd.seps i sep;
            nd.kids <- array_insert nd.kids (i + 1) right;
            if Array.length nd.kids > t.fanout then begin
              let k = Array.length nd.kids in
              let mid = k / 2 in
              (* kids mid..k-1 and seps mid..k-2 go right; seps.(mid-1)
                 becomes the separator pushed up. *)
              let up = nd.seps.(mid - 1) in
              let right =
                {
                  igid = take ();
                  seps = Array.sub nd.seps mid (k - 1 - mid);
                  kids = Array.sub nd.kids mid (k - mid);
                }
              in
              if t.prot then register_inner t.pool right;
              nd.seps <- Array.sub nd.seps 0 (mid - 1);
              nd.kids <- Array.sub nd.kids 0 mid;
              Some (up, Inner right)
            end
            else None)
  in
  (match ins t.root with
  | None -> ()
  | Some (sep, right) ->
      let root = { igid = take (); seps = [| sep |]; kids = [| t.root; right |] } in
      if t.prot then register_inner t.pool root;
      t.root <- Inner root);
  assert (!pages = []);
  t.count <- t.count + 1

let find_leaf t e =
  let rec descend = function
    | Leaf l ->
        Buffer_pool.touch t.pool l.lgid ~dirty:false;
        l
    | Inner nd ->
        Buffer_pool.touch t.pool nd.igid ~dirty:false;
        descend nd.kids.(child_index nd.seps e)
  in
  descend t.root

let mem t ~key rid =
  let e = (key, rid) in
  let leaf = find_leaf t e in
  let pos = lower_bound leaf.entries e in
  pos < Array.length leaf.entries && cmp_entry leaf.entries.(pos) e = 0

let remove t ~key rid =
  let e = (key, rid) in
  let leaf = find_leaf t e in
  let pos = lower_bound leaf.entries e in
  if pos < Array.length leaf.entries && cmp_entry leaf.entries.(pos) e = 0 then begin
    Buffer_pool.touch t.pool leaf.lgid ~dirty:true;
    leaf.entries <- array_remove leaf.entries pos;
    t.count <- t.count - 1;
    true
  end
  else false

let lookup t ~key =
  let probe = (key, min_rid) in
  let leaf = find_leaf t probe in
  let rec collect l pos acc =
    if pos >= Array.length l.entries then
      match l.next with
      | Some next ->
          Buffer_pool.touch t.pool next.lgid ~dirty:false;
          collect next 0 acc
      | None -> acc
    else
      let k, rid = l.entries.(pos) in
      if k = key then collect l (pos + 1) (rid :: acc)
      else if k > key then acc
      else collect l (pos + 1) acc
  in
  List.rev (collect leaf (lower_bound leaf.entries probe) [])

let range t ~lo ~hi =
  if lo > hi then []
  else begin
    let probe = (lo, min_rid) in
    let leaf = find_leaf t probe in
    let rec collect l pos acc =
      if pos >= Array.length l.entries then
        match l.next with
        | Some next ->
            Buffer_pool.touch t.pool next.lgid ~dirty:false;
            collect next 0 acc
        | None -> acc
      else
        let ((k, _) as entry) = l.entries.(pos) in
        if k > hi then acc else collect l (pos + 1) (entry :: acc)
    in
    List.rev (collect leaf (lower_bound leaf.entries probe) [])
  end

let iter t ~f =
  let rec leftmost = function
    | Leaf l ->
        Buffer_pool.touch t.pool l.lgid ~dirty:false;
        l
    | Inner nd ->
        Buffer_pool.touch t.pool nd.igid ~dirty:false;
        leftmost nd.kids.(0)
  in
  let rec walk l =
    Array.iter (fun (k, rid) -> f k rid) l.entries;
    match l.next with
    | Some next ->
        Buffer_pool.touch t.pool next.lgid ~dirty:false;
        walk next
    | None -> ()
  in
  walk (leftmost t.root)

(* All node gids, root first — the unprotect list when an index is rebuilt
   away, and the scrub sweep's view of the index. *)
let page_gids t =
  let rec walk acc = function
    | Leaf l -> l.lgid :: acc
    | Inner nd -> Array.fold_left walk (nd.igid :: acc) nd.kids
  in
  List.rev (walk [] t.root)

let protect t =
  if not t.prot then begin
    t.prot <- true;
    let rec walk = function
      | Leaf l -> register_leaf t.pool l
      | Inner nd ->
          register_inner t.pool nd;
          Array.iter walk nd.kids
    in
    walk t.root
  end

let protected t = t.prot

exception Check_failed of string

let check t =
  let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt in
  let rec depth = function
    | Leaf _ -> 1
    | Inner n -> 1 + depth n.kids.(0)
  in
  let d = depth t.root in
  let counted = ref 0 in
  (* lo/hi are exclusive/inclusive composite bounds on the subtree. *)
  let rec walk node level lo hi =
    (match node with
    | Leaf l ->
        if level <> d then fail "leaf at depth %d, expected %d" level d;
        Array.iteri
          (fun i e ->
            incr counted;
            (match lo with
            | Some b when cmp_entry e b < 0 -> fail "entry below lower bound"
            | _ -> ());
            (match hi with
            | Some b when cmp_entry e b >= 0 -> fail "entry above upper bound"
            | _ -> ());
            if i > 0 && cmp_entry l.entries.(i - 1) e >= 0 then
              fail "leaf entries not strictly sorted")
          l.entries;
        if Array.length l.entries > t.fanout then fail "leaf overflow"
    | Inner n ->
        let nk = Array.length n.kids in
        if nk <> Array.length n.seps + 1 then fail "inner arity mismatch";
        if nk > t.fanout then fail "inner overflow";
        if nk < 2 then fail "inner underflow";
        Array.iteri
          (fun i s ->
            if i > 0 && cmp_entry n.seps.(i - 1) s >= 0 then
              fail "separators not sorted")
          n.seps;
        Array.iteri
          (fun i kid ->
            let lo' = if i = 0 then lo else Some n.seps.(i - 1) in
            let hi' = if i = nk - 1 then hi else Some n.seps.(i) in
            walk kid (level + 1) lo' hi')
          n.kids);
  in
  try
    walk t.root 1 None None;
    if !counted <> t.count then
      fail "count mismatch: counted %d, recorded %d" !counted t.count
    else Ok ()
  with Check_failed msg -> Error msg
