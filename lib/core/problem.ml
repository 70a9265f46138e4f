module Bitset = Vis_util.Bitset
module Schema = Vis_catalog.Schema
module Derived = Vis_catalog.Derived
module Element = Vis_costmodel.Element
module Config = Vis_costmodel.Config
module Cost = Vis_costmodel.Cost

type feature = Config.feature =
  | F_view of Bitset.t
  | F_index of Element.index
  | F_compress of Element.t

type candidates = {
  cand_views : Bitset.t list;
  cand_attrs : (int * string) list;
}

type t = {
  schema : Schema.t;
  derived : Derived.t;
  cache : Cost.cache;
  share_cache : bool;
  candidate_views : Bitset.t list;
  compress_elems : Element.t list;
  features : feature list;
  encoding : unit option;
  restricted : candidates option;
}

let receives_delupd schema i =
  let d = Schema.delta schema i in
  d.Schema.n_del +. d.Schema.n_upd > 0.

(* When a mined candidate set restricts the problem, query-driven index
   attributes (join and selection predicates) outside it are dropped;
   maintenance-driven key attributes of relations receiving deletions or
   updates are always kept — pruning them would break refresh, not just
   lose queries the log never saw. *)
let attr_allowed restrict =
  match restrict with
  | None -> fun _ -> true
  | Some c ->
      let set : (int * string, unit) Hashtbl.t =
        Hashtbl.create (1 + List.length c.cand_attrs)
      in
      List.iter (fun k -> Hashtbl.replace set k ()) c.cand_attrs;
      fun key -> Hashtbl.mem set key

(* Candidate index attributes for an element, per FST88 / Section 3.1.
   Dedup via a hash set keyed on (relation, attribute name): join-heavy
   schemas repeat the same attribute across many joins, and the linear
   [List.exists] rescans made this quadratic.  Prepend order (and hence the
   final reversed order) is identical to the original scan-based version —
   and the [restrict] filter preserves order too, so a full-coverage
   candidate set reproduces the unrestricted list bit for bit. *)
let candidate_attrs ?restrict schema elem =
  let allowed = attr_allowed restrict in
  let seen : (int * string, unit) Hashtbl.t = Hashtbl.create 16 in
  let add acc (a : Element.attr) =
    let key = (a.Element.a_rel, a.Element.a_name) in
    if Hashtbl.mem seen key then acc
    else begin
      Hashtbl.add seen key ();
      a :: acc
    end
  in
  let attrs =
    match elem with
    | Element.Base i ->
        let acc =
          if receives_delupd schema i then
            add [] { Element.a_rel = i; a_name = (Schema.relation schema i).Schema.key_attr }
          else []
        in
        let add_query acc name =
          if allowed (i, name) then add acc { Element.a_rel = i; a_name = name }
          else acc
        in
        let acc = List.fold_left add_query acc (Schema.join_attrs schema i) in
        List.fold_left add_query acc (Schema.selection_attrs schema i)
    | Element.View w ->
        let acc =
          Bitset.fold
            (fun i acc ->
              if receives_delupd schema i then
                add acc
                  { Element.a_rel = i; a_name = (Schema.relation schema i).Schema.key_attr }
              else acc)
            w []
        in
        let add_query acc rel name =
          if allowed (rel, name) then add acc { Element.a_rel = rel; a_name = name }
          else acc
        in
        List.fold_left
          (fun acc (j : Schema.join) ->
            if Bitset.mem j.Schema.left_rel w && not (Bitset.mem j.Schema.right_rel w)
            then add_query acc j.Schema.left_rel j.Schema.left_attr
            else if
              Bitset.mem j.Schema.right_rel w && not (Bitset.mem j.Schema.left_rel w)
            then add_query acc j.Schema.right_rel j.Schema.right_attr
            else acc)
          acc schema.Schema.joins
  in
  List.rev attrs

let candidate_views_of schema ~connected_only ~max_view_rels =
  let full = Schema.all_relations schema in
  Bitset.proper_nonempty_subsets full
  |> List.filter (fun s ->
         (match max_view_rels with
         | Some k -> Bitset.cardinal s <= k
         | None -> true)
         && (if connected_only then Schema.connected schema s else true)
         &&
         match Bitset.elements s with
         | [ i ] -> Schema.has_selection schema i
         | _ -> true)
  |> List.sort (fun a b ->
         match Int.compare (Bitset.cardinal a) (Bitset.cardinal b) with
         | 0 -> Bitset.compare a b
         | c -> c)

let make ?(connected_only = false) ?max_view_rels ?(share_cache = true)
    ?(compression = false) ?candidates schema =
  (match max_view_rels with
  | Some k when k < 1 -> invalid_arg "Problem.make: max_view_rels must be >= 1"
  | Some _ | None -> ());
  let derived = Derived.create schema in
  let candidate_views = candidate_views_of schema ~connected_only ~max_view_rels in
  (* A mined candidate set narrows — never widens — the structural
     enumeration: views outside the lattice (or outside [max_view_rels] /
     [connected_only]) stay excluded even if the miner proposed them.  The
     order-preserving filter keeps a full-coverage candidate set
     bit-identical to the unrestricted problem. *)
  let candidate_views =
    match candidates with
    | None -> candidate_views
    | Some c ->
        let keep : (int, unit) Hashtbl.t =
          Hashtbl.create (1 + List.length c.cand_views)
        in
        List.iter (fun w -> Hashtbl.replace keep (Bitset.to_int w) ()) c.cand_views;
        List.filter (fun w -> Hashtbl.mem keep (Bitset.to_int w)) candidate_views
  in
  let indexes_of elem =
    List.map
      (fun a -> { Element.ix_elem = elem; ix_attr = a })
      (candidate_attrs ?restrict:candidates schema elem)
  in
  let n = Schema.n_relations schema in
  let base_ix = List.concat_map (fun i -> indexes_of (Element.Base i)) (List.init n Fun.id) in
  let primary_ix = indexes_of (Element.View (Schema.all_relations schema)) in
  (* Compression candidates are the always-materialized elements only (base
     replicas and the primary view), so an [F_compress] never depends on
     another feature being present — like the always-on indexes, it is
     applicable in every state. *)
  let compress_elems =
    if not compression then []
    else
      List.init n (fun i -> Element.Base i)
      @ [ Element.View (Schema.all_relations schema) ]
  in
  let features =
    List.map (fun e -> F_compress e) compress_elems
    @ List.map (fun ix -> F_index ix) (base_ix @ primary_ix)
    @ List.concat_map
        (fun w ->
          F_view w :: List.map (fun ix -> F_index ix) (indexes_of (Element.View w)))
        candidate_views
  in
  {
    schema;
    derived;
    cache = Cost.new_cache ();
    share_cache;
    candidate_views;
    compress_elems;
    features;
    (* perfbench's class label only: "packed" vs "structural". *)
    encoding =
      (if share_cache && List.length features <= 62 then Some () else None);
    restricted = candidates;
  }

let candidate_indexes_on p elem =
  List.map
    (fun a -> { Element.ix_elem = elem; ix_attr = a })
    (candidate_attrs ?restrict:p.restricted p.schema elem)

let always_on_indexes p =
  let n = Schema.n_relations p.schema in
  List.concat_map (fun i -> candidate_indexes_on p (Element.Base i)) (List.init n Fun.id)
  @ candidate_indexes_on p (Element.View (Schema.all_relations p.schema))

let indexes_for_views p views =
  always_on_indexes p
  @ List.concat_map (fun w -> candidate_indexes_on p (Element.View w)) views

let compress_candidates p = p.compress_elems

(* The always-applicable (state-independent) features beyond the view
   lattice: candidate indexes for the given view state plus every
   compression candidate.  The exhaustive search enumerates subsets of
   exactly this list per view state. *)
let extra_features_for_views p views =
  List.map (fun ix -> F_index ix) (indexes_for_views p views)
  @ List.map (fun e -> F_compress e) p.compress_elems

let evaluator p config =
  if p.share_cache then Cost.create ~cache:p.cache p.derived config
  else Cost.create p.derived config

let total p config = Cost.total (evaluator p config)

let feature_name p = function
  | F_view w -> Element.name p.schema (Element.View w)
  | F_index ix -> Element.index_name p.schema ix
  | F_compress e -> "compress(" ^ Element.name p.schema e ^ ")"

let equal_feature = Config.equal_feature

let has_feature config = function
  | F_view w -> Config.has_view config w
  | F_index ix -> Config.has_index config ix.Element.ix_elem ix.Element.ix_attr
  | F_compress e -> Config.has_compress config e

let applicable p config = function
  | F_view _ -> true
  | F_index ix -> (
      match ix.Element.ix_elem with
      | Element.Base _ -> true
      | Element.View w ->
          Bitset.equal w (Schema.all_relations p.schema) || Config.has_view config w)
  (* Compression candidates are always-materialized elements. *)
  | F_compress _ -> true

let add_feature config = function
  | F_view w -> Config.add_view config w
  | F_index ix -> Config.add_index config ix
  | F_compress e -> Config.add_compress config e

(* Dropping a view also drops the indexes living on it. *)
let drop_feature config = function
  | F_view w ->
      let config = Config.remove_view config w in
      List.fold_left
        (fun c ix ->
          if Element.equal ix.Element.ix_elem (Element.View w) then
            Config.remove_index c ix
          else c)
        config (Config.indexes config)
  | F_index ix -> Config.remove_index config ix
  | F_compress e -> Config.remove_compress config e

let valid_config p config =
  let view_ok w = List.exists (Bitset.equal w) p.candidate_views in
  (* The eligible-index set depends only on the configuration's views:
     compute it once per call instead of once per index. *)
  let eligible = indexes_for_views p (Config.views config) in
  let index_ok ix =
    let elem_materialized =
      match ix.Element.ix_elem with
      | Element.Base _ -> true
      | Element.View w ->
          Bitset.equal w (Schema.all_relations p.schema)
          || List.exists (Bitset.equal w) (Config.views config)
    in
    elem_materialized && List.exists (Element.equal_index ix) eligible
  in
  let compress_ok e = List.exists (Element.equal e) p.compress_elems in
  List.for_all view_ok (Config.views config)
  && List.for_all index_ok (Config.indexes config)
  && List.for_all compress_ok (Config.compress config)
