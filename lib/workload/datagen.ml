module Schema = Vis_catalog.Schema
module Int_hashtbl = Vis_util.Int_hashtbl

exception Unsupported of string

let sel_resolution = 1000

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

type dataset = { ds_tuples : int array list array; ds_next_key : int array }

type batch = {
  b_ins : int array list array;
  b_del : int list array;
  b_upd : (int * int array) list array;
}

(* Per attribute of a relation: how to draw its value. *)
type role =
  | Key
  | Fk of int  (* referenced relation; draw an existing key *)
  | Sel of float  (* selectivity; uniform over [0, sel_resolution) *)
  | Payload

let roles schema rel =
  let r = Schema.relation schema rel in
  List.map
    (fun attr ->
      let is_key = String.equal attr r.Schema.key_attr in
      let fk_target =
        List.fold_left
          (fun acc (j : Schema.join) ->
            let referenced this_rel this_attr other_rel other_attr =
              (* this side is the FK when the other side is the key *)
              this_rel = rel
              && String.equal this_attr attr
              && String.equal other_attr
                   (Schema.relation schema other_rel).Schema.key_attr
            in
            if referenced j.Schema.left_rel j.Schema.left_attr j.Schema.right_rel j.Schema.right_attr
            then Some j.Schema.right_rel
            else if
              referenced j.Schema.right_rel j.Schema.right_attr j.Schema.left_rel j.Schema.left_attr
            then Some j.Schema.left_rel
            else acc)
          None schema.Schema.joins
      in
      let in_some_join =
        List.exists
          (fun (j : Schema.join) ->
            (j.Schema.left_rel = rel && String.equal j.Schema.left_attr attr)
            || (j.Schema.right_rel = rel && String.equal j.Schema.right_attr attr))
          schema.Schema.joins
      in
      let sel =
        List.fold_left
          (fun acc (s : Schema.selection) ->
            if s.Schema.sel_rel = rel && String.equal s.Schema.sel_attr attr then
              Some s.Schema.selectivity
            else acc)
          None schema.Schema.selections
      in
      match (is_key, fk_target, sel) with
      | true, Some _, _ ->
          unsupported "%s.%s is both a key and a foreign key" r.Schema.rel_name attr
      | true, None, Some _ ->
          unsupported "%s.%s is both a key and a selection attribute"
            r.Schema.rel_name attr
      | true, None, None ->
          (* A key being joined from elsewhere is fine: the other side is
             the foreign key. *)
          Key
      | false, Some _, Some _ ->
          unsupported "%s.%s is both a foreign key and a selection attribute"
            r.Schema.rel_name attr
      | false, Some target, None -> Fk target
      | false, None, Some s ->
          if in_some_join then
            unsupported "%s.%s is both a join and a selection attribute"
              r.Schema.rel_name attr
          else Sel s
      | false, None, None ->
          if in_some_join then
            unsupported
              "%s.%s joins an attribute that is not the other side's key"
              r.Schema.rel_name attr
          else Payload)
    r.Schema.attrs

let draw_tuple ~rng schema rel ~key =
  let cards =
    Array.map (fun (r : Schema.relation) -> int_of_float r.Schema.card)
      schema.Schema.relations
  in
  roles schema rel
  |> List.map (fun role ->
         match role with
         | Key -> key
         | Fk target -> Random.State.int rng (max 1 cards.(target))
         | Sel _ -> Random.State.int rng sel_resolution
         | Payload -> Random.State.int rng 1_000_000)
  |> Array.of_list

let generate ~rng schema =
  let n = Schema.n_relations schema in
  let ds_tuples =
    Array.init n (fun rel ->
        let card = int_of_float (Schema.relation schema rel).Schema.card in
        List.init card (fun key -> draw_tuple ~rng schema rel ~key))
  in
  let ds_next_key =
    Array.init n (fun rel -> int_of_float (Schema.relation schema rel).Schema.card)
  in
  { ds_tuples; ds_next_key }

let passes_selections schema ~rel tuple =
  List.for_all
    (fun (s : Schema.selection) ->
      if s.Schema.sel_rel <> rel then true
      else
        let pos = Schema.attr_pos schema rel s.Schema.sel_attr in
        tuple.(pos) < int_of_float (s.Schema.selectivity *. float_of_int sel_resolution))
    schema.Schema.selections

let protected_attrs schema rel =
  let r = Schema.relation schema rel in
  List.filter
    (fun attr ->
      (not (String.equal attr r.Schema.key_attr))
      && (not (List.mem attr (Schema.join_attrs schema rel)))
      && not (List.mem attr (Schema.selection_attrs schema rel)))
    r.Schema.attrs

(* Draw [count] distinct values from [0, bound) excluding [avoid]. *)
let sample_distinct ~rng ~count ~bound avoid =
  let taken = Int_hashtbl.create (2 * count) in
  List.iter (fun k -> Int_hashtbl.replace taken k ()) avoid;
  let rec draw acc remaining guard =
    if remaining = 0 || guard > 100 * count then acc
    else
      let k = Random.State.int rng bound in
      if Int_hashtbl.mem taken k then draw acc remaining (guard + 1)
      else begin
        Int_hashtbl.replace taken k ();
        draw (k :: acc) (remaining - 1) guard
      end
  in
  draw [] count 0

let deltas ~rng schema dataset =
  let n = Schema.n_relations schema in
  let b_ins =
    Array.init n (fun rel ->
        let d = Schema.delta schema rel in
        let count = int_of_float (Float.round d.Schema.n_ins) in
        let base = dataset.ds_next_key.(rel) in
        List.init count (fun i -> draw_tuple ~rng schema rel ~key:(base + i)))
  in
  let b_del =
    Array.init n (fun rel ->
        let d = Schema.delta schema rel in
        let count = int_of_float (Float.round d.Schema.n_del) in
        sample_distinct ~rng ~count ~bound:dataset.ds_next_key.(rel) [])
  in
  let b_upd =
    Array.init n (fun rel ->
        let d = Schema.delta schema rel in
        let count = int_of_float (Float.round d.Schema.n_upd) in
        let prot = protected_attrs schema rel in
        if prot = [] then []
        else begin
          let keys =
            sample_distinct ~rng ~count ~bound:dataset.ds_next_key.(rel)
              b_del.(rel)
          in
          let originals = Array.of_list dataset.ds_tuples.(rel) in
          List.filter_map
            (fun key ->
              if key >= Array.length originals then None
              else begin
                let tuple = Array.copy originals.(key) in
                List.iter
                  (fun attr ->
                    let pos = Schema.attr_pos schema rel attr in
                    tuple.(pos) <- Random.State.int rng 1_000_000)
                  prot;
                Some (key, tuple)
              end)
            keys
        end)
  in
  { b_ins; b_del; b_upd }

let key_pos schema rel =
  Schema.attr_pos schema rel (Schema.relation schema rel).Schema.key_attr

let apply schema dataset batch =
  let n = Array.length dataset.ds_tuples in
  let ds_tuples =
    Array.init n (fun rel ->
        let kp = key_pos schema rel in
        let dels = Int_hashtbl.create 16 in
        List.iter (fun k -> Int_hashtbl.replace dels k ()) batch.b_del.(rel);
        let upds = Int_hashtbl.create 16 in
        List.iter
          (fun (k, tuple) -> Int_hashtbl.replace upds k tuple)
          batch.b_upd.(rel);
        let kept =
          List.filter_map
            (fun tuple ->
              let k = tuple.(kp) in
              if Int_hashtbl.mem dels k then None
              else
                match Int_hashtbl.find_opt upds k with
                | Some replacement -> Some replacement
                | None -> Some tuple)
            dataset.ds_tuples.(rel)
        in
        (* Inserted keys start at [ds_next_key] and ascend, so appending
           preserves the key-sorted invariant. *)
        kept @ batch.b_ins.(rel))
  in
  let ds_next_key =
    Array.init n (fun rel ->
        dataset.ds_next_key.(rel) + List.length batch.b_ins.(rel))
  in
  { ds_tuples; ds_next_key }

let deltas_evolving ~rng schema dataset =
  let n = Schema.n_relations schema in
  let b_ins =
    Array.init n (fun rel ->
        let d = Schema.delta schema rel in
        let count = int_of_float (Float.round d.Schema.n_ins) in
        let base = dataset.ds_next_key.(rel) in
        List.init count (fun i -> draw_tuple ~rng schema rel ~key:(base + i)))
  in
  (* Deletes and updates are drawn as positions into the current tuple list
     (not raw keys as in {!deltas}): after earlier batches removed tuples
     the key space is sparse, and only positions are guaranteed to name
     live tuples. *)
  let tuples = Array.map Array.of_list dataset.ds_tuples in
  let del_pos =
    Array.init n (fun rel ->
        let d = Schema.delta schema rel in
        let count = int_of_float (Float.round d.Schema.n_del) in
        let bound = Array.length tuples.(rel) in
        if bound = 0 || count = 0 then []
        else sample_distinct ~rng ~count:(min count bound) ~bound [])
  in
  let b_del =
    Array.init n (fun rel ->
        let kp = key_pos schema rel in
        List.map (fun i -> tuples.(rel).(i).(kp)) del_pos.(rel))
  in
  let b_upd =
    Array.init n (fun rel ->
        let d = Schema.delta schema rel in
        let count = int_of_float (Float.round d.Schema.n_upd) in
        let prot = protected_attrs schema rel in
        let bound = Array.length tuples.(rel) in
        let avail = bound - List.length del_pos.(rel) in
        if prot = [] || count = 0 || avail <= 0 then []
        else begin
          let kp = key_pos schema rel in
          let poss =
            sample_distinct ~rng ~count:(min count avail) ~bound
              del_pos.(rel)
          in
          List.map
            (fun i ->
              let tuple = Array.copy tuples.(rel).(i) in
              List.iter
                (fun attr ->
                  let pos = Schema.attr_pos schema rel attr in
                  tuple.(pos) <- Random.State.int rng 1_000_000)
                prot;
              (tuple.(kp), tuple))
            poss
        end)
  in
  { b_ins; b_del; b_upd }

let batch_rows batch =
  let count per = Array.fold_left (fun acc l -> acc + List.length l) 0 per in
  count batch.b_ins + count batch.b_del + count batch.b_upd
