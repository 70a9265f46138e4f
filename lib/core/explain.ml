module Bitset = Vis_util.Bitset
module T = Vis_util.Tableprint
module Schema = Vis_catalog.Schema
module Element = Vis_costmodel.Element
module Config = Vis_costmodel.Config
module Cost = Vis_costmodel.Cost

type line = {
  l_element : string;
  l_delta : string;
  l_plan : string;
  l_eval : float;
  l_apply : float;
  l_save : float;
  l_index : float;
  l_total : float;
}

type report = {
  r_config : string;
  r_total : float;
  r_space : float;
  r_lines : line list;
}

let rel_name schema r = (Schema.relation schema r).Schema.rel_name

let render_locate schema = function
  | Cost.Loc_scan -> "scan, semijoin with shipped keys"
  | Cost.Loc_key_index ix ->
      Printf.sprintf "probe %s per shipped key" (Element.index_name schema ix)

let explain p config =
  let schema = p.Problem.schema in
  let eval = Problem.evaluator p config in
  let lines = ref [] in
  let add element delta plan (prop : Cost.prop) =
    if Cost.prop_total prop > 0. then
      lines :=
        {
          l_element = element;
          l_delta = delta;
          l_plan = plan;
          l_eval = prop.Cost.p_eval;
          l_apply = prop.Cost.p_apply;
          l_save = prop.Cost.p_save;
          l_index = prop.Cost.p_index;
          l_total = Cost.prop_total prop;
        }
        :: !lines
  in
  List.iter
    (fun elem ->
      let ename = Element.name schema elem in
      Bitset.iter
        (fun r ->
          let rn = rel_name schema r in
          let pi, plan = Cost.prop_ins eval ~target:elem ~rel:r in
          add ename
            (Printf.sprintf "\xce\x94%s" rn)
            (Format.asprintf "%a" (Cost.pp_ins_plan schema ~target:elem ~rel:r) plan)
            pi;
          let pd, how_d = Cost.prop_del eval ~target:elem ~rel:r in
          add ename
            (Printf.sprintf "\xe2\x88\x87%s" rn)
            (render_locate schema how_d) pd;
          let pu, how_u = Cost.prop_upd eval ~target:elem ~rel:r in
          add ename
            (Printf.sprintf "\xce\xbc%s" rn)
            (render_locate schema how_u) pu)
        (Element.rels elem))
    (Cost.maintained_elements eval);
  {
    r_config = Config.describe schema config;
    r_total = Cost.total eval;
    r_space = Config.space p.Problem.derived config;
    r_lines = List.rev !lines;
  }

let report_json report =
  let module Json = Vis_util.Json in
  let line l =
    Json.Obj
      [
        ("element", Json.String l.l_element);
        ("delta", Json.String l.l_delta);
        ("plan", Json.String l.l_plan);
        ("eval", Json.Float l.l_eval);
        ("apply", Json.Float l.l_apply);
        ("save", Json.Float l.l_save);
        ("index", Json.Float l.l_index);
        ("total", Json.Float l.l_total);
      ]
  in
  Json.Obj
    [
      ("config", Json.String report.r_config);
      ("total_cost", Json.Float report.r_total);
      ("space_pages", Json.Float report.r_space);
      ("propagations", Json.List (List.map line report.r_lines));
    ]

let compare_designs p configs =
  let reports = List.map (fun (name, c) -> (name, explain p c)) configs in
  let elements =
    (* Union of element names across designs, stable order. *)
    List.fold_left
      (fun acc (_, r) ->
        List.fold_left
          (fun acc l -> if List.mem l.l_element acc then acc else acc @ [ l.l_element ])
          acc r.r_lines)
      [] reports
  in
  let tbl = T.create ([ "element" ] @ List.map fst reports) in
  List.iter
    (fun elem ->
      let cells =
        List.map
          (fun (_, r) ->
            let subtotal =
              List.fold_left
                (fun acc l -> if l.l_element = elem then acc +. l.l_total else acc)
                0. r.r_lines
            in
            T.fmt_compact subtotal)
          reports
      in
      T.add_row tbl (elem :: cells))
    elements;
  T.add_row tbl
    ("TOTAL" :: List.map (fun (_, r) -> T.fmt_compact r.r_total) reports);
  T.add_row tbl
    ("space" :: List.map (fun (_, r) -> T.fmt_compact r.r_space) reports);
  T.render tbl
