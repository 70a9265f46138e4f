module Bitset = Vis_util.Bitset

type relation = {
  rel_name : string;
  card : float;
  tuple_bytes : int;
  key_attr : string;
  attrs : string list;
}

type selection = { sel_rel : int; sel_attr : string; selectivity : float }

type join = {
  left_rel : int;
  left_attr : string;
  right_rel : int;
  right_attr : string;
  join_sel : float;
}

type delta = { n_ins : float; n_del : float; n_upd : float }

type t = {
  relations : relation array;
  selections : selection list;
  joins : join list;
  deltas : delta array;
  page_bytes : int;
  mem_pages : int;
  index_entry_bytes : int;
}

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let validate t =
  let n = Array.length t.relations in
  if n = 0 then invalid "schema has no relations";
  if n > 20 then invalid "schema has too many relations (max 20)";
  let names = Hashtbl.create 16 in
  Array.iteri
    (fun i r ->
      if Hashtbl.mem names r.rel_name then
        invalid "duplicate relation name %s" r.rel_name;
      Hashtbl.add names r.rel_name i;
      if r.card <= 0. then invalid "%s: cardinality must be positive" r.rel_name;
      if r.tuple_bytes <= 0 then invalid "%s: tuple_bytes must be positive" r.rel_name;
      if r.tuple_bytes > t.page_bytes then
        invalid "%s: tuple wider than a page" r.rel_name;
      if not (List.mem r.key_attr r.attrs) then
        invalid "%s: key attribute %s not among attributes" r.rel_name r.key_attr;
      let seen = Hashtbl.create 8 in
      List.iter
        (fun a ->
          if Hashtbl.mem seen a then
            invalid "%s: duplicate attribute %s" r.rel_name a;
          Hashtbl.add seen a ())
        r.attrs)
    t.relations;
  let check_attr who i a =
    if i < 0 || i >= n then invalid "%s: relation index %d out of range" who i;
    if not (List.mem a t.relations.(i).attrs) then
      invalid "%s: unknown attribute %s.%s" who t.relations.(i).rel_name a
  in
  List.iter
    (fun s ->
      check_attr "selection" s.sel_rel s.sel_attr;
      if s.selectivity <= 0. || s.selectivity > 1. then
        invalid "selection on %s.%s: selectivity must be in (0,1]"
          t.relations.(s.sel_rel).rel_name s.sel_attr)
    t.selections;
  List.iter
    (fun j ->
      check_attr "join" j.left_rel j.left_attr;
      check_attr "join" j.right_rel j.right_attr;
      if j.left_rel = j.right_rel then invalid "self-joins are not supported";
      if j.join_sel <= 0. || j.join_sel > 1. then
        invalid "join selectivity must be in (0,1]")
    t.joins;
  if Array.length t.deltas <> n then
    invalid "expected %d delta entries, got %d" n (Array.length t.deltas);
  Array.iteri
    (fun i d ->
      if d.n_ins < 0. || d.n_del < 0. || d.n_upd < 0. then
        invalid "%s: delta counts must be non-negative" t.relations.(i).rel_name;
      if d.n_del +. d.n_upd > t.relations.(i).card then
        invalid "%s: more deletions+updates than tuples" t.relations.(i).rel_name)
    t.deltas;
  if t.page_bytes < 64 then invalid "page_bytes too small";
  if t.mem_pages < 2 then invalid "mem_pages must be at least 2";
  if t.index_entry_bytes <= 0 || t.index_entry_bytes > t.page_bytes then
    invalid "index_entry_bytes out of range";
  t

let make ?(page_bytes = 4096) ?(mem_pages = 1000) ?(index_entry_bytes = 16)
    ~relations ~selections ~joins ~deltas () =
  validate
    {
      relations = Array.of_list relations;
      selections;
      joins;
      deltas = Array.of_list deltas;
      page_bytes;
      mem_pages;
      index_entry_bytes;
    }

let n_relations t = Array.length t.relations

let all_relations t = Bitset.full (n_relations t)

let relation t i = t.relations.(i)

let delta t i = t.deltas.(i)

let rel_index t name =
  let n = n_relations t in
  let rec loop i =
    if i >= n then raise Not_found
    else if t.relations.(i).rel_name = name then i
    else loop (i + 1)
  in
  loop 0

let attr_pos t rel name =
  let attrs = t.relations.(rel).attrs in
  let rec loop i = function
    | [] -> raise Not_found
    | a :: rest -> if String.equal a name then i else loop (i + 1) rest
  in
  loop 0 attrs

let combined_selectivity t i =
  List.fold_left
    (fun acc s -> if s.sel_rel = i then acc *. s.selectivity else acc)
    1.0 t.selections

let has_selection t i = List.exists (fun s -> s.sel_rel = i) t.selections

let selection_attrs t i =
  List.fold_left
    (fun acc s ->
      if s.sel_rel = i && not (List.mem s.sel_attr acc) then s.sel_attr :: acc
      else acc)
    [] t.selections
  |> List.rev

let joins_within t set =
  List.filter
    (fun j -> Bitset.mem j.left_rel set && Bitset.mem j.right_rel set)
    t.joins

let connected t set =
  if Bitset.is_empty set then true
  else begin
    let start = Bitset.choose set in
    let rec grow reached =
      let next =
        List.fold_left
          (fun acc j ->
            if
              Bitset.mem j.left_rel set && Bitset.mem j.right_rel set
            then
              if Bitset.mem j.left_rel acc then Bitset.add j.right_rel acc
              else if Bitset.mem j.right_rel acc then Bitset.add j.left_rel acc
              else acc
            else acc)
          reached t.joins
      in
      if Bitset.equal next reached then reached else grow next
    in
    Bitset.equal (grow (Bitset.singleton start)) set
  end

let join_attrs t i =
  let add acc a = if List.mem a acc then acc else a :: acc in
  List.fold_left
    (fun acc j ->
      let acc = if j.left_rel = i then add acc j.left_attr else acc in
      if j.right_rel = i then add acc j.right_attr else acc)
    [] t.joins
  |> List.rev

let with_deltas t deltas = validate { t with deltas = Array.of_list deltas }

let with_mem_pages t m = validate { t with mem_pages = m }

let scale_deltas t factor =
  if factor < 0. then invalid "scale_deltas: negative factor";
  let deltas =
    Array.map
      (fun d ->
        {
          n_ins = d.n_ins *. factor;
          n_del = d.n_del *. factor;
          n_upd = d.n_upd *. factor;
        })
      t.deltas
  in
  validate { t with deltas }

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i r ->
      let d = t.deltas.(i) in
      Format.fprintf ppf "relation %s: T=%.0f width=%dB key=%s I=%.0f D=%.0f U=%.0f@,"
        r.rel_name r.card r.tuple_bytes r.key_attr d.n_ins d.n_del d.n_upd)
    t.relations;
  List.iter
    (fun s ->
      Format.fprintf ppf "selection %s.%s sel=%g@,"
        t.relations.(s.sel_rel).rel_name s.sel_attr s.selectivity)
    t.selections;
  List.iter
    (fun j ->
      Format.fprintf ppf "join %s.%s = %s.%s f=%g@,"
        t.relations.(j.left_rel).rel_name j.left_attr
        t.relations.(j.right_rel).rel_name j.right_attr j.join_sel)
    t.joins;
  Format.fprintf ppf "page_bytes=%d mem_pages=%d index_entry_bytes=%d@]"
    t.page_bytes t.mem_pages t.index_entry_bytes
