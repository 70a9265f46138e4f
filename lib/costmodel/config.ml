module Bitset = Vis_util.Bitset

type feature =
  | F_view of Bitset.t
  | F_index of Element.index
  | F_compress of Element.t

let feature_rels = function
  | F_view w -> w
  | F_index ix -> Element.rels ix.Element.ix_elem
  | F_compress e -> Element.rels e

let equal_feature a b =
  match (a, b) with
  | F_view v, F_view w -> Bitset.equal v w
  | F_index i, F_index j -> Element.equal_index i j
  | F_compress d, F_compress e -> Element.equal d e
  | (F_view _ | F_index _ | F_compress _), _ -> false

type t = {
  cviews : Bitset.t list;
  cindexes : Element.index list;
  ccompress : Element.t list;
}

let empty = { cviews = []; cindexes = []; ccompress = [] }

let sort_views vs = List.sort_uniq Bitset.compare vs

let sort_indexes ixs = List.sort_uniq Element.compare_index ixs

let sort_compress es = List.sort_uniq Element.compare es

let make ~views ~indexes =
  { cviews = sort_views views; cindexes = sort_indexes indexes; ccompress = [] }

let views c = c.cviews

let indexes c = c.cindexes

let has_view c v = List.exists (Bitset.equal v) c.cviews

let has_index c elem attr =
  List.exists
    (fun ix -> Element.equal ix.Element.ix_elem elem && Element.equal_attr ix.Element.ix_attr attr)
    c.cindexes

let indexes_on c elem =
  List.filter_map
    (fun ix ->
      if Element.equal ix.Element.ix_elem elem then Some ix.Element.ix_attr
      else None)
    c.cindexes

let add_view c v = { c with cviews = sort_views (v :: c.cviews) }

let remove_view c v =
  { c with cviews = List.filter (fun w -> not (Bitset.equal w v)) c.cviews }

let add_index c ix = { c with cindexes = sort_indexes (ix :: c.cindexes) }

let remove_index c ix =
  {
    c with
    cindexes = List.filter (fun i -> not (Element.equal_index i ix)) c.cindexes;
  }

let compress c = c.ccompress

let has_compress c e = List.exists (Element.equal e) c.ccompress

let add_compress c e = { c with ccompress = sort_compress (e :: c.ccompress) }

let remove_compress c e =
  { c with ccompress = List.filter (fun d -> not (Element.equal d e)) c.ccompress }

let equal a b =
  List.length a.cviews = List.length b.cviews
  && List.length a.cindexes = List.length b.cindexes
  && List.length a.ccompress = List.length b.ccompress
  && List.for_all2 Bitset.equal a.cviews b.cviews
  && List.for_all2 Element.equal_index a.cindexes b.cindexes
  && List.for_all2 Element.equal a.ccompress b.ccompress

let restrict c ~rels =
  {
    cviews = List.filter (fun v -> Bitset.subset v rels) c.cviews;
    cindexes =
      List.filter
        (fun ix -> Bitset.subset (Element.rels ix.Element.ix_elem) rels)
        c.cindexes;
    ccompress =
      List.filter (fun e -> Bitset.subset (Element.rels e) rels) c.ccompress;
  }

let space derived c =
  let view_space =
    List.fold_left
      (fun acc v -> acc +. Vis_catalog.Derived.view_pages derived v)
      0. c.cviews
  in
  List.fold_left
    (fun acc ix -> acc +. (Element.index_shape derived ix).Vis_catalog.Derived.ix_pages)
    view_space c.cindexes

let signature c =
  let buf = Buffer.create 64 in
  List.iter
    (fun v ->
      Buffer.add_char buf 'v';
      Buffer.add_string buf (string_of_int (Bitset.to_int v));
      Buffer.add_char buf ';')
    c.cviews;
  List.iter
    (fun ix ->
      (match ix.Element.ix_elem with
      | Element.Base i ->
          Buffer.add_char buf 'B';
          Buffer.add_string buf (string_of_int i)
      | Element.View s ->
          Buffer.add_char buf 'V';
          Buffer.add_string buf (string_of_int (Bitset.to_int s)));
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int ix.Element.ix_attr.Element.a_rel);
      Buffer.add_char buf '.';
      Buffer.add_string buf ix.Element.ix_attr.Element.a_name;
      Buffer.add_char buf ';')
    c.cindexes;
  List.iter
    (fun e ->
      Buffer.add_char buf 'z';
      (match e with
      | Element.Base i -> Buffer.add_string buf ("B" ^ string_of_int i)
      | Element.View s ->
          Buffer.add_string buf ("V" ^ string_of_int (Bitset.to_int s)));
      Buffer.add_char buf ';')
    c.ccompress;
  Buffer.contents buf

let describe schema c =
  let views =
    match c.cviews with
    | [] -> "views: (none)"
    | vs ->
        "views: "
        ^ String.concat ", "
            (List.map (fun v -> Element.name schema (Element.View v)) vs)
  in
  let indexes =
    match c.cindexes with
    | [] -> "indexes: (none)"
    | ixs ->
        "indexes: " ^ String.concat ", " (List.map (Element.index_name schema) ixs)
  in
  let compressed =
    match c.ccompress with
    | [] -> ""
    | es ->
        "; compressed: "
        ^ String.concat ", " (List.map (Element.name schema) es)
  in
  views ^ "; " ^ indexes ^ compressed
