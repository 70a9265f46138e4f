module Schema = Vis_catalog.Schema
module Json = Vis_util.Json

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* ------------------------------------------------------------------ *)
(* JSON field access. *)

let get name v =
  match Json.member name v with
  | Json.Null -> malformed "missing field %S" name
  | field -> field

let to_int name = function
  | Json.Int i -> i
  | v -> malformed "field %S: expected an integer, found %s" name (Json.to_string v)

let to_float name = function
  | Json.Int i -> float_of_int i
  | Json.Float x -> x
  | v -> malformed "field %S: expected a number, found %s" name (Json.to_string v)

let to_string name = function
  | Json.String s -> s
  | v -> malformed "field %S: expected a string, found %s" name (Json.to_string v)

let to_list name = function
  | Json.List items -> items
  | v -> malformed "field %S: expected a list, found %s" name (Json.to_string v)

let geti name v = to_int name (get name v)

let getf name v = to_float name (get name v)

let gets name v = to_string name (get name v)

let getl name v = to_list name (get name v)

(* ------------------------------------------------------------------ *)
(* Schema serialization. *)

let schema_to_json (s : Schema.t) =
  Json.Obj
    [
      ("page_bytes", Json.Int s.Schema.page_bytes);
      ("mem_pages", Json.Int s.Schema.mem_pages);
      ("index_entry_bytes", Json.Int s.Schema.index_entry_bytes);
      ( "relations",
        Json.List
          (Array.to_list s.Schema.relations
          |> List.map (fun (r : Schema.relation) ->
                 Json.Obj
                   [
                     ("name", Json.String r.Schema.rel_name);
                     ("cardinality", Json.Float r.Schema.card);
                     ("tuple_bytes", Json.Int r.Schema.tuple_bytes);
                     ("key", Json.String r.Schema.key_attr);
                     ( "attrs",
                       Json.List
                         (List.map (fun a -> Json.String a) r.Schema.attrs) );
                   ])) );
      ( "selections",
        Json.List
          (List.map
             (fun (sel : Schema.selection) ->
               Json.Obj
                 [
                   ("rel", Json.Int sel.Schema.sel_rel);
                   ("attr", Json.String sel.Schema.sel_attr);
                   ("selectivity", Json.Float sel.Schema.selectivity);
                 ])
             s.Schema.selections) );
      ( "joins",
        Json.List
          (List.map
             (fun (j : Schema.join) ->
               Json.Obj
                 [
                   ("left_rel", Json.Int j.Schema.left_rel);
                   ("left_attr", Json.String j.Schema.left_attr);
                   ("right_rel", Json.Int j.Schema.right_rel);
                   ("right_attr", Json.String j.Schema.right_attr);
                   ("selectivity", Json.Float j.Schema.join_sel);
                 ])
             s.Schema.joins) );
      ( "deltas",
        Json.List
          (Array.to_list s.Schema.deltas
          |> List.map (fun (d : Schema.delta) ->
                 Json.Obj
                   [
                     ("insert", Json.Float d.Schema.n_ins);
                     ("delete", Json.Float d.Schema.n_del);
                     ("update", Json.Float d.Schema.n_upd);
                   ])) );
    ]

let schema_of_json v =
  let relations =
    List.map
      (fun r ->
        {
          Schema.rel_name = gets "name" r;
          card = getf "cardinality" r;
          tuple_bytes = geti "tuple_bytes" r;
          key_attr = gets "key" r;
          attrs = List.map (to_string "attrs") (getl "attrs" r);
        })
      (getl "relations" v)
  in
  let selections =
    List.map
      (fun s ->
        {
          Schema.sel_rel = geti "rel" s;
          sel_attr = gets "attr" s;
          selectivity = getf "selectivity" s;
        })
      (getl "selections" v)
  in
  let joins =
    List.map
      (fun j ->
        {
          Schema.left_rel = geti "left_rel" j;
          left_attr = gets "left_attr" j;
          right_rel = geti "right_rel" j;
          right_attr = gets "right_attr" j;
          join_sel = getf "selectivity" j;
        })
      (getl "joins" v)
  in
  let deltas =
    List.map
      (fun d ->
        {
          Schema.n_ins = getf "insert" d;
          n_del = getf "delete" d;
          n_upd = getf "update" d;
        })
      (getl "deltas" v)
  in
  Schema.make ~page_bytes:(geti "page_bytes" v) ~mem_pages:(geti "mem_pages" v)
    ~index_entry_bytes:(geti "index_entry_bytes" v)
    ~relations ~selections ~joins ~deltas ()

(* ------------------------------------------------------------------ *)
(* The repro document. *)

type t = {
  r_seed : int;
  r_trial : int;
  r_oracle : string;
  r_failure : string;
  r_schema : Schema.t;
  r_original : Schema.t option;
  r_fault_rounds : int;
  r_fault_seed : int;
}

let default_fault_rounds = 1

let default_fault_seed = 0

let to_json r =
  Json.Obj
    ([
       ("seed", Json.Int r.r_seed);
       ("trial", Json.Int r.r_trial);
       ("oracle", Json.String r.r_oracle);
       ("failure", Json.String r.r_failure);
       ("fault_rounds", Json.Int r.r_fault_rounds);
       ("fault_seed", Json.Int r.r_fault_seed);
       ("schema", schema_to_json r.r_schema);
     ]
    @
    match r.r_original with
    | None -> []
    | Some s -> [ ("original_schema", schema_to_json s) ])

let of_json v =
  let opt_int name default =
    match Json.member name v with Json.Null -> default | f -> to_int name f
  in
  {
    r_seed = geti "seed" v;
    r_trial = geti "trial" v;
    r_oracle = gets "oracle" v;
    r_failure = gets "failure" v;
    r_schema = schema_of_json (get "schema" v);
    r_original =
      (match Json.member "original_schema" v with
      | Json.Null -> None
      | s -> Some (schema_of_json s));
    r_fault_rounds =
      (match opt_int "fault_rounds" default_fault_rounds with
      | n when n < 0 -> malformed "field %S: must be >= 0, found %d" "fault_rounds" n
      | n -> n);
    r_fault_seed = opt_int "fault_seed" default_fault_seed;
  }

let save path r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string ~indent:2 (to_json r));
      output_char oc '\n')

let load path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_json (Json.of_string text)
