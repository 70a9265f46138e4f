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

(* Memoization keys: (element code, kind, relation, restricted feature
   bitmask, restricted-configuration signature).  Evaluators over a
   problem's numbered feature universe key by the restricted bitmask alone
   (4th slot >= 0, empty signature) — a single-word key with no allocation
   per restriction; evaluators for configurations outside any universe fall
   back to the structural signature (4th slot = -1).  The two key spaces are
   disjoint, so both kinds can share one cache.  A custom hash mixes the
   whole signature — the polymorphic hash only samples a prefix, which
   collides badly when enumerating index subsets. *)
module Key = struct
  type t = int * int * int * int * int list

  let equal (a1, b1, c1, m1, l1) (a2, b2, c2, m2, l2) =
    a1 = a2 && b1 = b2 && c1 = c2 && m1 = m2
    &&
    let rec eq l1 l2 =
      match (l1, l2) with
      | [], [] -> true
      | (x : int) :: r1, y :: r2 -> x = y && eq r1 r2
      | [], _ :: _ | _ :: _, [] -> false
    in
    eq l1 l2

  let hash (a, b, c, m, l) =
    let mix h x = (h * 0x01000193) lxor (x land 0xffffffff) in
    let h = mix (mix (mix (mix 0x811c9dc5 a) b) c) m in
    List.fold_left mix h l land max_int
end

module Ktbl = Hashtbl.Make (Key)

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
   It is lock-striped: keys hash to one of a fixed set of stripes, each a
   small independent cache (table, FIFO eviction queue, counters) guarded by
   its own mutex.  Counter updates happen under the stripe lock, so
   hits + misses equals the number of lookups exactly even under concurrent
   use — no lost updates — while domains touching different stripes never
   contend.  Cached values equal freshly computed ones (the cost model is a
   pure function of the restricted configuration signature), so concurrent
   duplicate computation of a missed key is wasteful but harmless.  The
   [Eval] skeletons sit beside the stripes in their own table; they are
   never evicted and never counted. *)

type stripe = {
  tbl : memo_value Ktbl.t;
  fifo : Key.t Queue.t;  (* insertion order; only kept for bounded stripes *)
  s_capacity : int;  (* per-stripe bound; 0 = unbounded *)
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type cache = {
  stripes : stripe array;
  mask : int;
  skeletons : (int * int, skeleton) Hashtbl.t;  (* (target set, delta rel) *)
  sk_lock : Mutex.t;  (* guards [skeletons] *)
}

type cache_stats = {
  cs_hits : int;
  cs_misses : int;
  cs_evictions : int;
  cs_entries : int;
}

let new_stripe s_capacity =
  {
    tbl = Ktbl.create 512;
    fifo = Queue.create ();
    s_capacity;
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
    mask = n_stripes - 1;
    skeletons = Hashtbl.create 64;
    sk_lock = Mutex.create ();
  }

let stripe_of c key =
  (* The table inside each stripe indexes buckets by the low bits of
     [Key.hash]; pick the stripe from remixed high bits so striping does not
     empty out bucket ranges. *)
  let h = Key.hash key in
  let h = h lxor (h lsr 29) in
  c.stripes.(((h lsr 16) lxor h) land c.mask)

let locked s f =
  Mutex.lock s.lock;
  let r = f () in
  Mutex.unlock s.lock;
  r

let cache_size c =
  Array.fold_left
    (fun acc s -> acc + locked s (fun () -> Ktbl.length s.tbl))
    0 c.stripes

let cache_stats c =
  Array.fold_left
    (fun acc s ->
      locked s (fun () ->
          {
            cs_hits = acc.cs_hits + s.hits;
            cs_misses = acc.cs_misses + s.misses;
            cs_evictions = acc.cs_evictions + s.evictions;
            cs_entries = acc.cs_entries + Ktbl.length s.tbl;
          }))
    { cs_hits = 0; cs_misses = 0; cs_evictions = 0; cs_entries = 0 }
    c.stripes

let hit_rate s =
  let lookups = s.cs_hits + s.cs_misses in
  if lookups = 0 then 0. else float_of_int s.cs_hits /. float_of_int lookups

let reset_cache_stats c =
  Array.iter
    (fun s ->
      locked s (fun () ->
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
   computed value, evicting the oldest entry of a bounded stripe.  Both run
   under the stripe lock. *)
let cache_find c key =
  let s = stripe_of c key in
  locked s (fun () ->
      match Ktbl.find_opt s.tbl key with
      | Some _ as r ->
          s.hits <- s.hits + 1;
          r
      | None ->
          s.misses <- s.misses + 1;
          None)

let cache_store c key value =
  let s = stripe_of c key in
  locked s (fun () ->
      (* Two domains that missed the same key both store it; the second
         store only replaces the value, or the key would be queued twice
         and its stale copy would later evict a live entry. *)
      if s.s_capacity > 0 && not (Ktbl.mem s.tbl key) then begin
        if Ktbl.length s.tbl >= s.s_capacity then begin
          match Queue.take_opt s.fifo with
          | Some oldest ->
              Ktbl.remove s.tbl oldest;
              s.evictions <- s.evictions + 1
          | None -> ()
        end;
        Queue.add key s.fifo
      end;
      Ktbl.replace s.tbl key value)

let elem_code = function
  | Element.Base i -> (2 * i) + 1
  | Element.View s -> 2 * Bitset.to_int s

let index_sig_code schema ix =
  let attr =
    (64 * ix.Element.ix_attr.Element.a_rel)
    + Schema.attr_pos schema ix.Element.ix_attr.Element.a_rel
        ix.Element.ix_attr.Element.a_name
  in
  lnot ((elem_code ix.Element.ix_elem * 4096) + attr)

(* ------------------------------------------------------------------ *)
(* Feature encoding: a problem's candidate features (views, indexes,
   compression) numbered once into bits 0..61, so a configuration drawn
   from that universe is a single [int] mask.  The encoding also
   precomputes, per maintained element, the *relevance mask* — the bits of
   features whose relation set is contained in the element's (exactly the
   features [Config.restrict] would keep) — so the memoization key of an
   element under mask [m] is just [m land relevance].  Everything here is
   immutable after construction, so encodings are shared freely across
   worker domains. *)

exception Encoding_too_large of int

type encoding = {
  en_schema : Schema.t;
  en_features : Config.feature array;  (* bit i <-> en_features.(i) *)
  en_view_bit : (int, int) Hashtbl.t;  (* view-set int -> bit *)
  en_index_bit : (int, int) Hashtbl.t;  (* index signature code -> bit *)
  en_compress_bit : (int, int) Hashtbl.t;  (* element signature code -> bit *)
  en_relevance : (int, int) Hashtbl.t;  (* relation-set int -> relevance mask *)
}

let compute_relevance features rels =
  let m = ref 0 in
  Array.iteri
    (fun i f -> if Bitset.subset (Config.feature_rels f) rels then m := !m lor (1 lsl i))
    features;
  !m

let make_encoding derived features =
  let schema = Derived.schema derived in
  let n_features = Array.length features in
  if n_features > 62 then raise (Encoding_too_large n_features);
  let view_bit = Hashtbl.create 32 in
  let index_bit = Hashtbl.create 64 in
  let compress_bit = Hashtbl.create 16 in
  Array.iteri
    (fun i f ->
      match f with
      | Config.F_view w -> Hashtbl.replace view_bit (Bitset.to_int w) i
      | Config.F_index ix -> Hashtbl.replace index_bit (index_sig_code schema ix) i
      | Config.F_compress e ->
          Hashtbl.replace compress_bit (elem_code e) i)
    features;
  (* Relevance of every element a configuration of the universe can
     maintain: the base relations, the candidate views, the primary view. *)
  let relevance_tbl = Hashtbl.create 64 in
  let add_relevance rels =
    Hashtbl.replace relevance_tbl (Bitset.to_int rels)
      (compute_relevance features rels)
  in
  for i = 0 to Schema.n_relations schema - 1 do
    add_relevance (Bitset.singleton i)
  done;
  Hashtbl.iter (fun w _ -> add_relevance (Bitset.of_int w)) view_bit;
  add_relevance (Schema.all_relations schema);
  {
    en_schema = schema;
    en_features = features;
    en_view_bit = view_bit;
    en_index_bit = index_bit;
    en_compress_bit = compress_bit;
    en_relevance = relevance_tbl;
  }

(* Relevance of an arbitrary element; the table covers every maintained
   element of the universe, so misses only happen for out-of-universe
   queries, answered by a pure scan without mutating the shared table. *)
let relevance enc rels =
  match Hashtbl.find_opt enc.en_relevance (Bitset.to_int rels) with
  | Some m -> m
  | None -> compute_relevance enc.en_features rels

exception Out_of_universe

let mask_of_config enc config =
  match
    let m =
      List.fold_left
        (fun acc w ->
          match Hashtbl.find_opt enc.en_view_bit (Bitset.to_int w) with
          | Some b -> acc lor (1 lsl b)
          | None -> raise Out_of_universe)
        0 (Config.views config)
    in
    let m =
      List.fold_left
        (fun acc ix ->
          match
            Hashtbl.find_opt enc.en_index_bit (index_sig_code enc.en_schema ix)
          with
          | Some b -> acc lor (1 lsl b)
          | None -> raise Out_of_universe)
        m (Config.indexes config)
    in
    List.fold_left
      (fun acc e ->
        match
          Hashtbl.find_opt enc.en_compress_bit (elem_code e)
        with
        | Some b -> acc lor (1 lsl b)
        | None -> raise Out_of_universe)
      m (Config.compress config)
  with
  | m -> Some m
  | exception Out_of_universe -> None

let config_of_mask enc mask =
  let views = ref [] and indexes = ref [] and compress = ref [] in
  Array.iteri
    (fun i f ->
      if mask land (1 lsl i) <> 0 then
        match f with
        | Config.F_view w -> views := w :: !views
        | Config.F_index ix -> indexes := ix :: !indexes
        | Config.F_compress e -> compress := e :: !compress)
    enc.en_features;
  List.fold_left Config.add_compress
    (Config.make ~views:!views ~indexes:!indexes)
    !compress

(* ------------------------------------------------------------------ *)

type structural_keying = {
  enc_views : (Bitset.t * int) list;
  enc_indexes : (Bitset.t * int) list;
  enc_compress : (Bitset.t * int) list;
  (* Per-element restricted signature, memoized per evaluator. *)
  mutable prefixes : (int * int list) list;
}

type keying =
  | K_masked of { enc : encoding; kmask : int }
      (* a configuration inside a numbered universe: restriction is a mask
         intersection, keys carry no allocation *)
  | K_structural of structural_keying

type t = {
  derived : Derived.t;
  config : Config.t;
  cache : cache;
  keying : keying;
}

let structural_keying schema config =
  let enc_views =
    List.map (fun v -> (v, 2 * Bitset.to_int v)) (Config.views config)
  in
  let enc_indexes =
    List.map
      (fun ix -> (Element.rels ix.Element.ix_elem, index_sig_code schema ix))
      (Config.indexes config)
  in
  (* Codes must match {!Config.signature_ints} so structural keys agree with
     the encoded universe's decoded configurations. *)
  let enc_compress =
    List.map
      (fun e -> (Element.rels e, lnot ((1 lsl 40) + elem_code e)))
      (Config.compress config)
  in
  K_structural { enc_views; enc_indexes; enc_compress; prefixes = [] }

let create ?cache ?encoding derived config =
  let cache = match cache with Some c -> c | None -> new_cache () in
  let keying =
    match Option.bind encoding (fun enc -> mask_of_config enc config) with
    | Some kmask -> K_masked { enc = Option.get encoding; kmask }
    | None -> structural_keying (Derived.schema derived) config
  in
  { derived; config; cache; keying }

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

let elem_prefix k target =
  let code = elem_code target in
  match List.assq_opt code k.prefixes with
  | Some p -> p
  | None ->
      let rels = Element.rels target in
      let keep (frels, c) = if Bitset.subset frels rels then Some c else None in
      let p =
        List.filter_map keep k.enc_views
        @ List.filter_map keep k.enc_indexes
        @ List.filter_map keep k.enc_compress
      in
      k.prefixes <- (code, p) :: k.prefixes;
      p

let memo_key t ~target ~rel ~kind : Key.t =
  match t.keying with
  | K_masked { enc; kmask } ->
      ( elem_code target,
        Char.code kind,
        rel,
        kmask land relevance enc (Element.rels target),
        [] )
  | K_structural k -> (elem_code target, Char.code kind, rel, -1, elem_prefix k target)

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
  let key = (Bitset.to_int target_set, r) in
  match Mutex.protect c.sk_lock (fun () -> Hashtbl.find_opt c.skeletons key) with
  | Some sk -> sk
  | None ->
      let sk = make_skeleton t.derived target_set r in
      Mutex.protect c.sk_lock (fun () ->
          match Hashtbl.find_opt c.skeletons key with
          | Some first -> first
          | None ->
              Hashtbl.add c.skeletons key sk;
              sk)

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
(* Memoized entry points. *)

let prop_ins t ~target ~rel =
  let key = memo_key t ~target ~rel ~kind:'i' in
  match cache_find t.cache key with
  | Some (M_ins (p, plan)) -> (p, plan)
  | Some (M_loc _ | M_elem _) -> assert false
  | None ->
      let p, plan = prop_ins_uncached t ~target ~rel in
      cache_store t.cache key (M_ins (p, plan));
      (p, plan)

let prop_loc t ~target ~rel ~kind =
  let tag = match kind with `Del -> 'd' | `Upd -> 'u' in
  let key = memo_key t ~target ~rel ~kind:tag in
  match cache_find t.cache key with
  | Some (M_loc (p, how)) -> (p, how)
  | Some (M_ins _ | M_elem _) -> assert false
  | None ->
      let p, how = prop_delupd_uncached t ~target ~rel ~kind in
      cache_store t.cache key (M_loc (p, how));
      (p, how)

let prop_del t ~target ~rel = prop_loc t ~target ~rel ~kind:`Del

let prop_upd t ~target ~rel = prop_loc t ~target ~rel ~kind:`Upd

let element_cost t elem =
  let key = memo_key t ~target:elem ~rel:(-1) ~kind:'E' in
  match cache_find t.cache key with
  | Some (M_elem c) -> c
  | Some (M_ins _ | M_loc _) -> assert false
  | None ->
      let c =
        Bitset.fold
          (fun r acc ->
            let pi, _ = prop_ins t ~target:elem ~rel:r in
            let pd, _ = prop_del t ~target:elem ~rel:r in
            let pu, _ = prop_upd t ~target:elem ~rel:r in
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
