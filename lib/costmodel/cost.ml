module Bitset = Vis_util.Bitset
module Num = Vis_util.Num
module Schema = Vis_catalog.Schema
module Derived = Vis_catalog.Derived

type join_method = Nbj | Index_join of Element.index

type ins_start = From_delta | From_saved of Bitset.t

type ins_plan = { ip_start : ins_start; ip_steps : (Element.t * join_method) list }

type locate_method = Loc_scan | Loc_key_index of Element.index

type prop = {
  p_eval : float;
  p_apply : float;
  p_save : float;
  p_index : float;
  p_result_tuples : float;
}

let prop_total p = p.p_eval +. p.p_apply +. p.p_save +. p.p_index

let zero_prop =
  { p_eval = 0.; p_apply = 0.; p_save = 0.; p_index = 0.; p_result_tuples = 0. }

type memo_value =
  | M_ins of prop * ins_plan
  | M_loc of prop * locate_method
  | M_elem of float

(* ------------------------------------------------------------------ *)
(* Flat int-keyed tables: linear probing over a power-of-two array kept at
   most half full, [-1] marking an empty cell, backward-shift deletion so
   there are no tombstones.  Keys are non-negative ints; a value cell holds
   [Some v] exactly when its key cell is taken, so a lookup returns the
   stored option as it is and allocates nothing.  The table lives in this
   module, not a shared one, because dev builds compile with [-opaque]:
   memo lookups are the hottest calls of a search, and a cross-module call
   per probe would cost more than the probe. *)

type 'a itbl = {
  mutable keys : int array;
  mutable vals : 'a option array;
  mutable count : int;
}

let itbl_create n =
  let rec pow2 p = if p >= 2 * n then p else pow2 (2 * p) in
  let size = pow2 16 in
  { keys = Array.make size (-1); vals = Array.make size None; count = 0 }

(* Fibonacci hashing: the product's high bits are the well-mixed ones.  The
   cell index takes bits 20 and up, the stripe (see [stripe_of]) the top
   four, so striping does not empty out cell ranges. *)
let mix key = key * 0x1E3779B97F4A7C15

let home t key = (mix key lsr 20) land (Array.length t.keys - 1)

(* Cell of [key], or the empty cell ending its probe run. *)
let rec probe keys key i =
  let k = Array.unsafe_get keys i in
  if k = key || k < 0 then i
  else probe keys key ((i + 1) land (Array.length keys - 1))

let itbl_find t key = Array.unsafe_get t.vals (probe t.keys key (home t key))

let rec itbl_add t key v =
  if 2 * (t.count + 1) > Array.length t.keys then begin
    let keys = t.keys and vals = t.vals in
    t.keys <- Array.make (2 * Array.length keys) (-1);
    t.vals <- Array.make (2 * Array.length keys) None;
    t.count <- 0;
    Array.iteri (fun i k -> if k >= 0 then itbl_add t k vals.(i)) keys
  end;
  let i = probe t.keys key (home t key) in
  if t.keys.(i) < 0 then begin
    t.keys.(i) <- key;
    t.count <- t.count + 1
  end;
  t.vals.(i) <- v

let itbl_remove t key =
  let keys = t.keys and mask = Array.length t.keys - 1 in
  let i = probe keys key (home t key) in
  if keys.(i) >= 0 then begin
    let hole = ref i and j = ref ((i + 1) land mask) in
    while keys.(!j) >= 0 do
      let h = home t keys.(!j) in
      (* Entry [j] may move into the hole unless its home lies cyclically in
         (hole, j]. *)
      let stays =
        if !hole <= !j then h > !hole && h <= !j else h > !hole || h <= !j
      in
      if not stays then begin
        keys.(!hole) <- keys.(!j);
        t.vals.(!hole) <- t.vals.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    keys.(!hole) <- -1;
    t.vals.(!hole) <- None;
    t.count <- t.count - 1
  end

(* A table with an exact FIFO bound: [ring] holds the keys in insertion
   order, the oldest at [head]; an insert into a full table evicts that one
   first.  [ring = [||]] means unbounded. *)
type 'a fifo_tbl = {
  tbl : 'a itbl;
  ring : int array;
  mutable head : int;
}

let fifo_create capacity =
  {
    tbl = itbl_create (min capacity 256);
    ring = Array.make capacity 0;
    head = 0;
  }

(* Inserts a new key, evicting the oldest when full; [true] when it
   evicted.  The caller checked that [key] is absent. *)
let fifo_add f key v =
  let cap = Array.length f.ring in
  let evicted =
    if cap = 0 then false
    else if f.tbl.count < cap then begin
      f.ring.((f.head + f.tbl.count) mod cap) <- key;
      false
    end
    else begin
      itbl_remove f.tbl f.ring.(f.head);
      f.ring.(f.head) <- key;
      f.head <- (f.head + 1) mod cap;
      true
    end
  in
  itbl_add f.tbl key (Some v);
  evicted

(* The locks of the shared cache guard it only while a multi-domain batch
   runs (see {!Vis_util.Parallel.concurrent}): at any other time the
   caller's domain is the only one running, so a lookup takes no mutex. *)
let lock_if m =
  let conc = Vis_util.Parallel.concurrent () in
  if conc then Mutex.lock m;
  conc

let unlock_if m conc = if conc then Mutex.unlock m

let with_lock m f =
  let conc = lock_if m in
  match f () with
  | r ->
      unlock_if m conc;
      r
  | exception e ->
      unlock_if m conc;
      raise e

(* ------------------------------------------------------------------ *)
(* The configuration-independent half of [Eval] (see [eval_ins] below):
   one skeleton per (target relation set, delta relation), built on first
   use and kept in the problem's cache beside the memo stripes. *)

(* A join-probe candidate of a unit: an index on the unit's side of a join
   whose other side lies in the target but outside the unit.  Whether the
   index exists is the configuration's business. *)
type probe = {
  pr_outside : int;  (* dense bit of the outside relation *)
  pr_index : Element.index;  (* the probed index, as plans name it *)
  pr_matches : float;  (* unit tuples joining one outer tuple *)
  pr_per_probe : float;  (* index pages read per probe *)
}

(* A join unit: a base relation of the target other than the delta
   relation, or a view inside the target that avoids it. *)
type join_unit = {
  ju_elem : Element.t;
  ju_mask : int;  (* dense mask of the relations it covers *)
  ju_card : float;
  ju_pages : float;
  ju_ix_pages : float;  (* pages of any index on the unit *)
  ju_probes : probe list;  (* in schema join order *)
  ju_sel_attrs : Element.attr list;
      (* a base unit's selection attributes: an index on any of them allows
         Table 5's index scan of the inner side, costing
         [ju_sel_ix_pages +. read_f *. ju_sel_data_pages] *)
  ju_sel_ix_pages : float;
  ju_sel_data_pages : float;
}

type skeleton = {
  sk_dense : int array;  (* relation -> dense bit; -1 outside the target *)
  sk_sets : Bitset.t array;  (* dense code -> relation set *)
  sk_r_bit : int;  (* dense bit of the delta relation *)
  sk_delta_pages : float;  (* pages of the shipped delta *)
  sk_tuples : float array;  (* per code: delta result tuples *)
  sk_pages : float array;  (* per code: delta result pages *)
  sk_blocks : float array;  (* per code: [ceil (pages / P_m)] *)
  sk_bases : join_unit array;  (* base units, in relaxation order *)
  sk_views : join_unit option Atomic.t array;
      (* view units by dense code, built on first use *)
}

(* The cache is shared by every evaluator of a problem — including, since
   the multicore work, evaluators running concurrently on several domains.
   It is striped: keys hash to one of a fixed set of stripes, each a small
   independent cache (table, FIFO bound, counters) with its own mutex.
   While a multi-domain batch runs, every access takes its stripe's lock,
   so hits + misses equals the number of lookups exactly — no lost updates
   — while domains touching different stripes never contend; at any other
   time there is one domain and no lock is taken (see [lock_if]).  Cached
   values equal freshly computed ones (the cost model is a pure function of
   the restricted configuration), so concurrent duplicate computation of a
   missed key is wasteful but harmless.

   A memo key is one word, [(id, kind, rel)], where [id] is the interned
   (element, restricted configuration) pair; see [elem_id].  The interning
   tables and the [Eval] skeletons sit beside the stripes under their own
   locks; they are never counted, and only the intern trie of a bounded
   cache is ever evicted. *)

type stripe = {
  memo : memo_value fifo_tbl;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type cache = {
  stripes : stripe array;
  smask : int;
  slots : int itbl;  (* element code -> dense element slot *)
  fnos : int itbl;  (* feature key -> dense feature number *)
  trie : int fifo_tbl;  (* (parent id, symbol) -> child id *)
  mutable next_id : int;
  in_lock : Mutex.t;  (* guards [slots], [fnos], [trie], [next_id] *)
  skeletons : skeleton itbl;  (* (target set, delta rel) -> skeleton *)
  sk_lock : Mutex.t;  (* guards [skeletons] *)
}

type cache_stats = {
  cs_hits : int;
  cs_misses : int;
  cs_evictions : int;
  cs_entries : int;
}

let new_stripe capacity =
  {
    memo = fifo_create capacity;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let new_cache ?(capacity = 0) () : cache =
  if capacity < 0 then invalid_arg "Cost.new_cache: negative capacity";
  (* Bounded caches get at most [capacity] stripes so the per-stripe bounds
     sum to exactly [capacity]; stripe counts stay powers of two for the
     mask-based stripe selection. *)
  let n_stripes =
    if capacity = 0 then 16
    else begin
      let rec pow2 p = if 2 * p <= min capacity 16 then pow2 (2 * p) else p in
      pow2 1
    end
  in
  let stripes =
    Array.init n_stripes (fun i ->
        if capacity = 0 then new_stripe 0
        else
          new_stripe
            ((capacity / n_stripes)
            + (if i < capacity mod n_stripes then 1 else 0)))
  in
  {
    stripes;
    smask = n_stripes - 1;
    slots = itbl_create 64;
    fnos = itbl_create 64;
    (* A bounded cache bounds its trie too, or interning alone would grow
       with the distinct configurations seen. *)
    trie = fifo_create (4 * capacity);
    next_id = 1;
    in_lock = Mutex.create ();
    skeletons = itbl_create 64;
    sk_lock = Mutex.create ();
  }

let stripe_of c key =
  Array.unsafe_get c.stripes ((mix key lsr 59) land c.smask)

let cache_stats c =
  Array.fold_left
    (fun acc s ->
      with_lock s.lock (fun () ->
          {
            cs_hits = acc.cs_hits + s.hits;
            cs_misses = acc.cs_misses + s.misses;
            cs_evictions = acc.cs_evictions + s.evictions;
            cs_entries = acc.cs_entries + s.memo.tbl.count;
          }))
    { cs_hits = 0; cs_misses = 0; cs_evictions = 0; cs_entries = 0 }
    c.stripes

let hit_rate s =
  let lookups = s.cs_hits + s.cs_misses in
  if lookups = 0 then 0. else float_of_int s.cs_hits /. float_of_int lookups

let reset_cache_stats c =
  Array.iter
    (fun s ->
      with_lock s.lock (fun () ->
          s.hits <- 0;
          s.misses <- 0;
          s.evictions <- 0))
    c.stripes

let cache_stats_json c =
  let s = cache_stats c in
  Vis_util.Json.Obj
    [
      ("hits", Vis_util.Json.Int s.cs_hits);
      ("misses", Vis_util.Json.Int s.cs_misses);
      ("evictions", Vis_util.Json.Int s.cs_evictions);
      ("entries", Vis_util.Json.Int s.cs_entries);
      ("hit_rate", Vis_util.Json.Float (hit_rate s));
    ]

(* A lookup that maintains the counters; [store] inserts the freshly
   computed value, evicting the oldest entry of a bounded stripe. *)
let cache_find c key =
  let s = stripe_of c key in
  let conc = lock_if s.lock in
  let r = itbl_find s.memo.tbl key in
  (match r with
  | Some _ -> s.hits <- s.hits + 1
  | None -> s.misses <- s.misses + 1);
  unlock_if s.lock conc;
  r

let cache_store c key value =
  let s = stripe_of c key in
  let conc = lock_if s.lock in
  (* Two domains that missed the same key both store it; the second store
     only replaces the value, or the key would be queued twice and its
     stale copy would later evict a live entry. *)
  (match itbl_find s.memo.tbl key with
  | Some _ -> itbl_add s.memo.tbl key (Some value)
  | None -> if fifo_add s.memo key value then s.evictions <- s.evictions + 1);
  unlock_if s.lock conc

(* ------------------------------------------------------------------ *)
(* Interning.  The memo key of an element is its restricted configuration
   ({!Config.restrict}: the features whose relation set lies inside the
   element's), so evaluators of different configurations share every
   element a difference cannot reach.  The cache numbers each element code
   and each feature it sees densely, and hash-conses the sequence
   [element; restricted features in canonical order] in a trie of one-word
   edges [(parent id, symbol) -> child id]: two (element, restricted
   configuration) pairs get the same id exactly when they are equal.  Ids
   are never reused, so an edge evicted from a bounded cache's trie only
   costs sharing — the next walk takes a fresh id — never a wrong hit. *)

let elem_code = function
  | Element.Base i -> (2 * i) + 1
  | Element.View s -> 2 * Bitset.to_int s

(* Distinct non-negative keys for the three feature kinds (low two bits). *)
let feature_key schema = function
  | Config.F_view w -> Bitset.to_int w lsl 2
  | Config.F_index ix ->
      let a = ix.Element.ix_attr in
      let attr =
        (64 * a.Element.a_rel)
        + Schema.attr_pos schema a.Element.a_rel a.Element.a_name
      in
      (((elem_code ix.Element.ix_elem * 4096) + attr) lsl 2) lor 1
  | Config.F_compress e -> (elem_code e lsl 2) lor 2

let symbol_bits = 24

(* The dense number of [key] in [tbl], assigned on first sight. *)
let symbol tbl key =
  match itbl_find tbl key with
  | Some n -> n
  | None ->
      let n = tbl.count in
      if n >= 1 lsl symbol_bits then
        invalid_arg "Cost: too many elements or features";
      itbl_add tbl key (Some n);
      n

let intern c parent sym =
  let key = (parent lsl symbol_bits) lor sym in
  match itbl_find c.trie.tbl key with
  | Some id -> id
  | None ->
      let id = c.next_id in
      c.next_id <- id + 1;
      ignore (fifo_add c.trie key id);
      id

type t = {
  derived : Derived.t;
  config : Config.t;
  cache : cache;
  fnos : int array;  (* the configuration's features, in canonical order *)
  frels : Bitset.t array;  (* their relation sets *)
  mutable ids : int array;  (* element slot -> interned id; 0 until known *)
}

let create ?cache derived config =
  let cache = match cache with Some c -> c | None -> new_cache () in
  let schema = Derived.schema derived in
  (* Views, then indexes, then compressed elements, each list sorted: the
     order [Config.restrict] keeps, so equal restrictions walk the trie
     along the same edges. *)
  let features =
    Array.of_list
      (List.map (fun w -> Config.F_view w) (Config.views config)
      @ List.map (fun ix -> Config.F_index ix) (Config.indexes config)
      @ List.map (fun e -> Config.F_compress e) (Config.compress config))
  in
  let keys = Array.map (feature_key schema) features in
  let fnos =
    with_lock cache.in_lock (fun () -> Array.map (symbol cache.fnos) keys)
  in
  {
    derived;
    config;
    cache;
    fnos;
    frels = Array.map Config.feature_rels features;
    ids = [||];
  }

(* The interned id of [target] under the evaluator's configuration, computed
   at most once per evaluator and kept by element slot. *)
let intern_elem t target code =
  let c = t.cache in
  let rels = Element.rels target in
  let slot, id =
    with_lock c.in_lock (fun () ->
        let slot = symbol c.slots code in
        let id = ref (intern c 0 slot) in
        for i = 0 to Array.length t.fnos - 1 do
          if Bitset.subset t.frels.(i) rels then id := intern c !id t.fnos.(i)
        done;
        (slot, !id))
  in
  if slot >= Array.length t.ids then begin
    let ids = Array.make (max (slot + 1) (2 * Array.length t.ids)) 0 in
    Array.blit t.ids 0 ids 0 (Array.length t.ids);
    t.ids <- ids
  end;
  t.ids.(slot) <- id;
  id

let elem_id t target =
  let c = t.cache in
  let code = elem_code target in
  let conc = lock_if c.in_lock in
  let slot = match itbl_find c.slots code with Some s -> s | None -> -1 in
  unlock_if c.in_lock conc;
  if slot >= 0 && slot < Array.length t.ids && t.ids.(slot) > 0 then
    t.ids.(slot)
  else intern_elem t target code

let k_elem = 0

let k_ins = 1

let k_del = 2

let k_upd = 3

(* [rel] is a relation number, or [-1] for an element's whole cost. *)
let memo_key id ~kind ~rel = (id lsl 9) lor (kind lsl 7) lor (rel + 1)

let config t = t.config

(* Page-level compression.  A compressed element stores its tuples in
   roughly [compress_page_ratio] of the pages, so each logical data-page
   access moves half the I/O — but pays a CPU surcharge to decode (reads)
   or encode (writes), charged in page-cost units.  The net per-page
   factors are applied multiplicatively at every charging site that touches
   the element's *data* pages; index pages, shipped deltas and scratch
   saved deltas are never compressed.  Keeping the factors linear (page
   counts in the formulas stay uncompressed) is what lets the A* bounds
   scale floors by [compress_read_factor] exactly. *)

let compress_page_ratio = 0.5

(* ratio + decode CPU: 0.5 + 0.15 *)
let compress_read_factor = 0.65

(* ratio + encode CPU: 0.5 + 0.60 — writing compressed pages costs more
   than it saves, which is what makes compression a genuine trade-off. *)
let compress_write_factor = 1.10

let read_f t e =
  if Config.has_compress (config t) e then compress_read_factor else 1.

let write_f t e =
  if Config.has_compress (config t) e then compress_write_factor else 1.

let derived t = t.derived

let schema t = Derived.schema t.derived

let mem_pages t = float_of_int (schema t).Schema.mem_pages

(* ------------------------------------------------------------------ *)
(* Index maintenance: Apply_ix of Table 4.  [k] is the number of delta
   tuples applied to [elem]; per index we charge the internal-page reads
   (root cached, hence H-1 levels) estimated with Y_WAP plus the leaf
   pages written estimated with yao (entries of one batch are applied in
   sorted order). *)

let apply_one_index t elem attr k =
  ignore attr;
  if k <= 0. then 0.
  else begin
    let card = Element.card t.derived elem in
    let shape = Derived.index_shape t.derived ~entries:card in
    let reads =
      Yao.y_wap ~n:card ~p:shape.Derived.ix_pages
        ~k:(k *. float_of_int (shape.Derived.ix_height - 1))
        ~m:(mem_pages t)
    in
    let writes = Yao.yao ~n:card ~p:shape.Derived.ix_leaf_pages ~k in
    reads +. writes
  end

let apply_ix t elem k =
  List.fold_left
    (fun acc attr -> acc +. apply_one_index t elem attr k)
    0.
    (Config.indexes_on (config t) elem)

(* ------------------------------------------------------------------ *)

let nbj_cost t ~outer_pages ~inner_pages =
  Float.ceil (outer_pages /. mem_pages t) *. inner_pages

(* ------------------------------------------------------------------ *)
(* Propagating insertions: Eval(ΔR ⋈ ...) by dynamic programming over the
   covered relation subsets, starting from the shipped delta or from a
   saved delta of a materialized subview, and extending with base
   relations or materialized views via nested-block or index joins.

   Everything the DP needs that does not depend on the configuration lives
   in the (target, delta relation) skeleton: the dense subset codes, each
   code's result size, and each unit's join-probe candidates.  A derivation
   only checks which candidate indexes and views the configuration has,
   prices the inner sides, and relaxes over arrays. *)

let dense_of_set dense set =
  Bitset.fold (fun rel acc -> acc lor (1 lsl dense.(rel))) set 0

let make_join_unit d target_set dense elem =
  let s = Derived.schema d in
  let urels = Element.rels elem in
  let card = Element.card d elem in
  let pages = Element.pages d elem in
  let shape = Derived.index_shape d ~entries:card in
  let probe (j : Schema.join) =
    let inside_attr =
      if
        Bitset.mem j.Schema.left_rel urels
        && (not (Bitset.mem j.Schema.right_rel urels))
        && Bitset.mem j.Schema.right_rel target_set
      then
        Some
          ( { Element.a_rel = j.Schema.left_rel; a_name = j.Schema.left_attr },
            j.Schema.right_rel )
      else if
        Bitset.mem j.Schema.right_rel urels
        && (not (Bitset.mem j.Schema.left_rel urels))
        && Bitset.mem j.Schema.left_rel target_set
      then
        Some
          ( { Element.a_rel = j.Schema.right_rel; a_name = j.Schema.right_attr },
            j.Schema.left_rel )
      else None
    in
    Option.map
      (fun (attr, outside_rel) ->
        let matches = card *. j.Schema.join_sel in
        {
          pr_outside = 1 lsl dense.(outside_rel);
          pr_index = { Element.ix_elem = elem; ix_attr = attr };
          pr_matches = matches;
          pr_per_probe =
            float_of_int (max 0 (shape.Derived.ix_height - 2))
            +. Num.fceil (shape.Derived.ix_pages *. matches /. Float.max card 1e-9);
        })
      inside_attr
  in
  let sel_attrs, sel_ix_pages, sel_data_pages =
    match elem with
    | Element.View _ -> ([], 0., 0.)
    | Element.Base i ->
        let matching = Derived.eff_card d i in
        ( List.map
            (fun a -> { Element.a_rel = i; a_name = a })
            (Schema.selection_attrs s i),
          float_of_int (shape.Derived.ix_height - 1)
          +. Num.fceil (shape.Derived.ix_pages *. matching /. Float.max card 1e-9),
          Yao.y_wap ~n:card ~p:pages ~k:matching
            ~m:(float_of_int s.Schema.mem_pages) )
  in
  {
    ju_elem = elem;
    ju_mask = dense_of_set dense urels;
    ju_card = card;
    ju_pages = pages;
    ju_ix_pages = shape.Derived.ix_pages;
    ju_probes = List.filter_map probe s.Schema.joins;
    ju_sel_attrs = sel_attrs;
    ju_sel_ix_pages = sel_ix_pages;
    ju_sel_data_pages = sel_data_pages;
  }

let make_skeleton d target_set r =
  let s = Derived.schema d in
  let i_r = (Schema.delta s r).Schema.n_ins in
  let scale = i_r /. Derived.base_card d r in
  let pm = float_of_int s.Schema.mem_pages in
  let positions = Array.of_list (Bitset.elements target_set) in
  let nstates = 1 lsl Array.length positions in
  let dense = Array.make (Schema.n_relations s) (-1) in
  Array.iteri (fun bit rel -> dense.(rel) <- bit) positions;
  (* sets.(code) is the Bitset for a dense code; built incrementally. *)
  let sets = Array.make nstates Bitset.empty in
  for code = 1 to nstates - 1 do
    let low = code land -code in
    let bit = ref 0 and v = ref low in
    while !v > 1 do
      incr bit;
      v := !v lsr 1
    done;
    sets.(code) <- Bitset.add positions.(!bit) sets.(code land (code - 1))
  done;
  let tuples = Array.map (fun set -> Derived.view_card d set *. scale) sets in
  let pages =
    Array.init nstates (fun code ->
        Derived.pages_of_tuples d ~set:sets.(code) ~tuples:tuples.(code))
  in
  let bases =
    Bitset.fold
      (fun i acc ->
        if i = r then acc else make_join_unit d target_set dense (Element.Base i) :: acc)
      target_set []
  in
  {
    sk_dense = dense;
    sk_sets = sets;
    sk_r_bit = 1 lsl dense.(r);
    sk_delta_pages = Derived.delta_pages d ~rel:r ~count:i_r;
    sk_tuples = tuples;
    sk_pages = pages;
    sk_blocks = Array.map (fun p -> Float.ceil (p /. pm)) pages;
    sk_bases = Array.of_list bases;
    sk_views = Array.init nstates (fun _ -> Atomic.make None);
  }

(* Domains that miss the same skeleton build identical copies; the first
   one published is the one every later derivation uses. *)
let skeleton t target_set r =
  let c = t.cache in
  let key = (Bitset.to_int target_set lsl 6) lor r in
  let conc = lock_if c.sk_lock in
  let found = itbl_find c.skeletons key in
  unlock_if c.sk_lock conc;
  match found with
  | Some sk -> sk
  | None ->
      let sk = make_skeleton t.derived target_set r in
      let conc = lock_if c.sk_lock in
      let sk =
        match itbl_find c.skeletons key with
        | Some first -> first
        | None ->
            itbl_add c.skeletons key (Some sk);
            sk
      in
      unlock_if c.sk_lock conc;
      sk

let view_unit t sk target_set w =
  let slot = sk.sk_views.(dense_of_set sk.sk_dense w) in
  match Atomic.get slot with
  | Some u -> u
  | None ->
      let u = make_join_unit t.derived target_set sk.sk_dense (Element.View w) in
      Atomic.set slot (Some u);
      u

(* Accessing the inner side of a nested-block join.  A stored view or a
   replica is scanned; a base relation carrying a local selection may
   instead be read through an index on the selection attribute (Table 5's
   index scan), when such an index is materialized.  Index pages are never
   compressed; only the data pages pay (or enjoy) the factor [rf]. *)
let inner_access t u rf =
  let scan = rf *. u.ju_pages in
  if List.exists (Config.has_index (config t) u.ju_elem) u.ju_sel_attrs then
    Float.min scan (u.ju_sel_ix_pages +. (rf *. u.ju_sel_data_pages))
  else scan

let eval_ins t target_set r =
  let sk = skeleton t target_set r in
  let views = Config.views (config t) in
  (* Units in relaxation order: the base relations, then the configuration's
     views inside the target that avoid the delta relation. *)
  let units =
    Array.append sk.sk_bases
      (Array.of_list
         (List.filter_map
            (fun w ->
              if Bitset.subset w target_set && not (Bitset.mem r w) then
                Some (view_unit t sk target_set w)
              else None)
            views))
  in
  let read = Array.map (fun u -> read_f t u.ju_elem) units in
  let access = Array.mapi (fun i u -> inner_access t u read.(i)) units in
  let probes =
    Array.map
      (fun u ->
        Array.of_list
          (List.filter
             (fun pr -> Config.has_index (config t) u.ju_elem pr.pr_index.Element.ix_attr)
             u.ju_probes))
      units
  in
  let half_mem = mem_pages t /. 2. in
  let nstates = Array.length sk.sk_tuples in
  let r_bit = sk.sk_r_bit in
  (* DP tables.  A code's winning step is the unit that reached it and the
     probe used ([-1]: nested-block join); a code reached by no step is a
     start, whose predecessor is found by removing the unit's mask. *)
  let cost = Array.make nstates infinity in
  let via_unit = Array.make nstates (-1) in
  let via_probe = Array.make nstates (-1) in
  cost.(r_bit) <- sk.sk_delta_pages;
  (* Every start other than [r_bit] is a saved delta; [r_bit] itself is one
     only when a σ-view of [r] alone beats the shipped delta. *)
  let delta_start = ref true in
  List.iter
    (fun w ->
      if Bitset.mem r w && Bitset.proper_subset w target_set then begin
        let code = dense_of_set sk.sk_dense w in
        if sk.sk_pages.(code) < cost.(code) then begin
          cost.(code) <- sk.sk_pages.(code);
          if code = r_bit then delta_start := false
        end
      end)
    views;
  let n_units = Array.length units in
  for code = r_bit to nstates - 1 do
    let base = cost.(code) in
    if code land r_bit <> 0 && base < infinity then begin
      let tuples = sk.sk_tuples.(code) and blocks = sk.sk_blocks.(code) in
      for ui = 0 to n_units - 1 do
        let u = units.(ui) in
        if code land u.ju_mask = 0 then begin
          let next = code lor u.ju_mask in
          let c = base +. (blocks *. access.(ui)) in
          if c < cost.(next) then begin
            cost.(next) <- c;
            via_unit.(next) <- ui;
            via_probe.(next) <- -1
          end;
          let ps = probes.(ui) in
          for pi = 0 to Array.length ps - 1 do
            let pr = ps.(pi) in
            if code land pr.pr_outside <> 0 then begin
              let c =
                base
                +. (Yao.y_wap ~n:u.ju_card ~p:u.ju_ix_pages
                      ~k:(tuples *. pr.pr_per_probe) ~m:half_mem
                   +. read.(ui)
                      *. Yao.y_wap ~n:u.ju_card ~p:u.ju_pages
                           ~k:(tuples *. pr.pr_matches) ~m:half_mem)
              in
              if c < cost.(next) then begin
                cost.(next) <- c;
                via_unit.(next) <- ui;
                via_probe.(next) <- pi
              end
            end
          done
        end
      done
    end
  done;
  let final = nstates - 1 in
  assert (cost.(final) < infinity);
  (* Reconstruct the winning update path. *)
  let rec walk code steps =
    let ui = via_unit.(code) in
    if ui < 0 then
      let start =
        if code = r_bit && !delta_start then From_delta
        else From_saved sk.sk_sets.(code)
      in
      { ip_start = start; ip_steps = steps }
    else
      let u = units.(ui) in
      let how =
        if via_probe.(code) < 0 then Nbj
        else Index_join probes.(ui).(via_probe.(code)).pr_index
      in
      walk (code lxor u.ju_mask) ((u.ju_elem, how) :: steps)
  in
  (cost.(final), walk final [])

let prop_ins_uncached t ~target ~rel =
  let d = t.derived in
  let s = schema t in
  let i_r = (Schema.delta s rel).Schema.n_ins in
  if i_r <= 0. then (zero_prop, { ip_start = From_delta; ip_steps = [] })
  else
    match target with
    | Element.Base i ->
        assert (i = rel);
        let dp = Derived.delta_pages d ~rel ~count:i_r in
        ( {
            p_eval = dp;
            p_apply = write_f t target *. dp;
            p_save = 0.;
            p_index = apply_ix t target i_r;
            p_result_tuples = i_r;
          },
          { ip_start = From_delta; ip_steps = [] } )
    | Element.View set ->
        let eval, plan = eval_ins t set rel in
        let tuples =
          Derived.view_card d set *. i_r /. Derived.base_card d rel
        in
        let result_pages = Derived.pages_of_tuples d ~set ~tuples in
        let is_supporting =
          not (Bitset.equal set (Schema.all_relations s))
        in
        ( {
            p_eval = eval;
            p_apply = write_f t target *. result_pages;
            (* Saved deltas live in scratch space and are never compressed. *)
            p_save = (if is_supporting then result_pages else 0.);
            p_index = apply_ix t target tuples;
            p_result_tuples = tuples;
          },
          plan )

(* ------------------------------------------------------------------ *)
(* Propagating deletions and protected updates: locate the affected target
   tuples by key (index semijoin or scan), then rewrite them. *)

let prop_delupd_uncached t ~target ~rel ~kind =
  let d = t.derived in
  let s = schema t in
  let delta = Schema.delta s rel in
  let count_src =
    match kind with `Del -> delta.Schema.n_del | `Upd -> delta.Schema.n_upd
  in
  if count_src <= 0. then (zero_prop, Loc_scan)
  else begin
    let card_v = Element.card d target in
    let pages_v = Element.pages d target in
    let s_key =
      match target with
      | Element.Base i ->
          assert (i = rel);
          1.
      | Element.View set -> Derived.matches_per_key d ~view:set ~rel
    in
    let affected = count_src *. s_key in
    let delta_pages = Derived.delta_pages d ~rel ~count:count_src in
    let pm = mem_pages t in
    let rf = read_f t target and wf = write_f t target in
    (* Option 1: scan the target with the delta keys in memory.  The shipped
       delta is uncompressed; only the target's data pages carry factors. *)
    let scan_eval =
      delta_pages
      +. rf *. nbj_cost t ~outer_pages:delta_pages ~inner_pages:pages_v
    in
    let scan_apply = wf *. Yao.yao ~n:card_v ~p:pages_v ~k:affected in
    let best = ref (scan_eval, scan_apply, Loc_scan) in
    (* Option 2: probe an index on the key attribute of [rel]. *)
    let key_attr =
      { Element.a_rel = rel; a_name = (Schema.relation s rel).Schema.key_attr }
    in
    if Config.has_index (config t) target key_attr then begin
      let shape = Derived.index_shape d ~entries:card_v in
      let per_probe =
        float_of_int (max 0 (shape.Derived.ix_height - 2))
        +. Num.fceil (shape.Derived.ix_pages *. s_key /. Float.max card_v 1e-9)
      in
      let ix_eval =
        delta_pages
        +. Yao.y_wap ~n:card_v ~p:shape.Derived.ix_pages
             ~k:(count_src *. per_probe) ~m:(pm /. 2.)
        +. rf *. Yao.y_wap ~n:card_v ~p:pages_v ~k:affected ~m:(pm /. 2.)
      in
      let ix_apply = wf *. Yao.y_wap ~n:card_v ~p:pages_v ~k:affected ~m:pm in
      let ix = { Element.ix_elem = target; ix_attr = key_attr } in
      let scan_total = scan_eval +. scan_apply in
      if ix_eval +. ix_apply < scan_total then
        best := (ix_eval, ix_apply, Loc_key_index ix)
    end;
    let eval, apply, how = !best in
    let p_index = match kind with `Del -> apply_ix t target affected | `Upd -> 0. in
    ( {
        p_eval = eval;
        p_apply = apply;
        p_save = 0.;
        p_index;
        p_result_tuples = affected;
      },
      how )
  end

(* ------------------------------------------------------------------ *)
(* Memoized entry points.  [element_cost] interns its element once and
   hands the id to the three propagations it sums. *)

let ins_id t id ~target ~rel =
  let key = memo_key id ~kind:k_ins ~rel in
  match cache_find t.cache key with
  | Some (M_ins (p, plan)) -> (p, plan)
  | Some (M_loc _ | M_elem _) -> assert false
  | None ->
      let p, plan = prop_ins_uncached t ~target ~rel in
      cache_store t.cache key (M_ins (p, plan));
      (p, plan)

let loc_id t id ~target ~rel ~kind =
  let kind_code = match kind with `Del -> k_del | `Upd -> k_upd in
  let key = memo_key id ~kind:kind_code ~rel in
  match cache_find t.cache key with
  | Some (M_loc (p, how)) -> (p, how)
  | Some (M_ins _ | M_elem _) -> assert false
  | None ->
      let p, how = prop_delupd_uncached t ~target ~rel ~kind in
      cache_store t.cache key (M_loc (p, how));
      (p, how)

let prop_ins t ~target ~rel = ins_id t (elem_id t target) ~target ~rel

let prop_del t ~target ~rel =
  loc_id t (elem_id t target) ~target ~rel ~kind:`Del

let prop_upd t ~target ~rel =
  loc_id t (elem_id t target) ~target ~rel ~kind:`Upd

let element_cost t elem =
  let id = elem_id t elem in
  let key = memo_key id ~kind:k_elem ~rel:(-1) in
  match cache_find t.cache key with
  | Some (M_elem c) -> c
  | Some (M_ins _ | M_loc _) -> assert false
  | None ->
      let c =
        Bitset.fold
          (fun r acc ->
            let pi, _ = ins_id t id ~target:elem ~rel:r in
            let pd, _ = loc_id t id ~target:elem ~rel:r ~kind:`Del in
            let pu, _ = loc_id t id ~target:elem ~rel:r ~kind:`Upd in
            acc +. prop_total pi +. prop_total pd +. prop_total pu)
          (Element.rels elem) 0.
      in
      cache_store t.cache key (M_elem c);
      c

let index_maint_cost t ix =
  let elem = ix.Element.ix_elem in
  Bitset.fold
    (fun r acc ->
      let pi, _ = prop_ins t ~target:elem ~rel:r in
      let pd, _ = prop_del t ~target:elem ~rel:r in
      acc
      +. apply_one_index t elem ix.Element.ix_attr pi.p_result_tuples
      +. apply_one_index t elem ix.Element.ix_attr pd.p_result_tuples)
    (Element.rels elem) 0.

let maintained_elements t =
  let s = schema t in
  let n = Schema.n_relations s in
  List.init n (fun i -> Element.Base i)
  @ List.map (fun w -> Element.View w) (Config.views (config t))
  @ [ Element.View (Schema.all_relations s) ]

let total t =
  List.fold_left (fun acc e -> acc +. element_cost t e) 0. (maintained_elements t)

let total_of ?cache derived config = total (create ?cache derived config)

let pp_ins_plan s ~target ~rel ppf plan =
  ignore target;
  let rel_name = (Schema.relation s rel).Schema.rel_name in
  (match plan.ip_start with
  | From_delta -> Format.fprintf ppf "\xce\x94%s" rel_name
  | From_saved w ->
      Format.fprintf ppf "\xce\x94%s^save(%s)" rel_name
        (Element.name s (Element.View w)));
  List.iter
    (fun (unit, how) ->
      match how with
      | Nbj -> Format.fprintf ppf " \xe2\x8b\x88nbj %s" (Element.name s unit)
      | Index_join ix ->
          Format.fprintf ppf " \xe2\x8b\x88ix[%s] %s"
            (Element.index_name s ix) (Element.name s unit))
    plan.ip_steps
