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

let protected_attrs schema rel =
  let r = Schema.relation schema rel in
  List.filter
    (fun attr ->
      (not (String.equal attr r.Schema.key_attr))
      && (not (List.mem attr (Schema.join_attrs schema rel)))
      && not (List.mem attr (Schema.selection_attrs schema rel)))
    r.Schema.attrs

let key_pos schema rel =
  Schema.attr_pos schema rel (Schema.relation schema rel).Schema.key_attr

(* What drawing tuples of a schema needs, resolved once per (schema,
   relation) rather than per tuple.  Roles are lazy so that, as before,
   [Unsupported] is raised only once a tuple of the offending relation is
   drawn. *)
type shape = {
  sh_roles : role array Lazy.t array;
  sh_cards : int array;  (* the cardinalities foreign keys draw below *)
  sh_key_pos : int array;
  sh_prot : int array array;  (* positions of [protected_attrs], in order *)
}

let shape schema =
  let n = Schema.n_relations schema in
  {
    sh_roles =
      Array.init n (fun rel -> lazy (Array.of_list (roles schema rel)));
    sh_cards =
      Array.map
        (fun (r : Schema.relation) -> int_of_float r.Schema.card)
        schema.Schema.relations;
    sh_key_pos = Array.init n (key_pos schema);
    sh_prot =
      Array.init n (fun rel ->
          Array.of_list
            (List.map (Schema.attr_pos schema rel) (protected_attrs schema rel)));
  }

let draw_tuple ~rng sh rel ~key =
  Array.map
    (function
      | Key -> key
      | Fk target -> Random.State.int rng (max 1 sh.sh_cards.(target))
      | Sel _ -> Random.State.int rng sel_resolution
      | Payload -> Random.State.int rng 1_000_000)
    (Lazy.force sh.sh_roles.(rel))

(* A copy of [tuple] with its protected payload redrawn — an update's
   replacement. *)
let redraw_payload ~rng sh rel tuple =
  let tuple = Array.copy tuple in
  Array.iter (fun pos -> tuple.(pos) <- Random.State.int rng 1_000_000)
    sh.sh_prot.(rel);
  tuple

(* A delta statistic rounded to a row count. *)
let count_of x = int_of_float (Float.round x)

let draw_inserts ~rng schema sh ~next_key =
  Array.init (Schema.n_relations schema) (fun rel ->
      let count = count_of (Schema.delta schema rel).Schema.n_ins in
      let base = next_key.(rel) in
      List.init count (fun i -> draw_tuple ~rng sh rel ~key:(base + i)))

let generate ~rng schema =
  let sh = shape schema in
  let n = Schema.n_relations schema in
  let ds_tuples =
    Array.init n (fun rel ->
        List.init sh.sh_cards.(rel) (fun key -> draw_tuple ~rng sh rel ~key))
  in
  { ds_tuples; ds_next_key = Array.copy sh.sh_cards }

let passes_selections schema ~rel tuple =
  List.for_all
    (fun (s : Schema.selection) ->
      if s.Schema.sel_rel <> rel then true
      else
        let pos = Schema.attr_pos schema rel s.Schema.sel_attr in
        tuple.(pos) < int_of_float (s.Schema.selectivity *. float_of_int sel_resolution))
    schema.Schema.selections

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
  let sh = shape schema in
  let b_ins = draw_inserts ~rng schema sh ~next_key:dataset.ds_next_key in
  let b_del =
    Array.init n (fun rel ->
        let count = count_of (Schema.delta schema rel).Schema.n_del in
        sample_distinct ~rng ~count ~bound:dataset.ds_next_key.(rel) [])
  in
  let b_upd =
    Array.init n (fun rel ->
        let count = count_of (Schema.delta schema rel).Schema.n_upd in
        if Array.length sh.sh_prot.(rel) = 0 then []
        else begin
          let keys =
            sample_distinct ~rng ~count ~bound:dataset.ds_next_key.(rel)
              b_del.(rel)
          in
          let originals = Array.of_list dataset.ds_tuples.(rel) in
          List.filter_map
            (fun key ->
              if key >= Array.length originals then None
              else Some (key, redraw_payload ~rng sh rel originals.(key)))
            keys
        end)
  in
  { b_ins; b_del; b_upd }

module Mirror = struct
  (* One relation: a key-ascending slot array with a live flag per slot,
     and a Fenwick tree over the live count of each block of [block]
     slots.  A deleted tuple leaves the tombstone [[|key|]] in its slot, so
     binary search still reads every slot's key and the dead tuple is
     released.  Rank selection descends the tree to a block and scans at
     most one block. *)
  type rel = {
    kp : int;  (* the key's position in a live tuple *)
    mutable tuples : int array array;
    mutable flags : Bytes.t;  (* ['\001'] where the slot is live *)
    mutable fenwick : int array;  (* 1-based, one entry per block *)
    mutable slots : int;
    mutable live : int;
  }

  type t = { sh : shape; rels : rel array; next_key : int array }

  let block_bits = 5
  let block = 1 lsl block_bits

  (* Capacity for [n] slots plus half again, in whole blocks. *)
  let capacity n = (n + (n / 2) + block) land lnot (block - 1)

  let is_live r s = Bytes.unsafe_get r.flags s = '\001'
  let key r s = r.tuples.(s).(if is_live r s then r.kp else 0)

  let rebuild_fenwick r =
    let nb = Array.length r.tuples lsr block_bits in
    let f = Array.make (nb + 1) 0 in
    for s = 0 to r.slots - 1 do
      if is_live r s then begin
        let b = (s lsr block_bits) + 1 in
        f.(b) <- f.(b) + 1
      end
    done;
    for i = 1 to nb do
      let j = i + (i land -i) in
      if j <= nb then f.(j) <- f.(j) + f.(i)
    done;
    r.fenwick <- f

  let fenwick_add r slot d =
    let f = r.fenwick in
    let nb = Array.length f - 1 in
    let i = ref ((slot lsr block_bits) + 1) in
    while !i <= nb do
      f.(!i) <- f.(!i) + d;
      i := !i + (!i land - !i)
    done

  (* Move the slots to arrays of [capacity r.slots] entries. *)
  let resize r =
    let cap = capacity r.slots in
    let tuples = Array.make cap [||] and flags = Bytes.make cap '\000' in
    Array.blit r.tuples 0 tuples 0 r.slots;
    Bytes.blit r.flags 0 flags 0 r.slots;
    r.tuples <- tuples;
    r.flags <- flags;
    rebuild_fenwick r

  (* The slot of the [k]-th live tuple (0-based) in key order. *)
  let select r k =
    let f = r.fenwick in
    let nb = Array.length f - 1 in
    let step = ref 1 in
    while !step * 2 <= nb do
      step := !step * 2
    done;
    let b = ref 0 and rem = ref (k + 1) in
    while !step > 0 do
      let next = !b + !step in
      if next <= nb && f.(next) < !rem then begin
        b := next;
        rem := !rem - f.(next)
      end;
      step := !step lsr 1
    done;
    let rec scan s rem =
      if not (is_live r s) then scan (s + 1) rem
      else if rem = 1 then s
      else scan (s + 1) (rem - 1)
    in
    scan (!b lsl block_bits) !rem

  (* The live slot holding [key], or -1. *)
  let find r k =
    let rec go lo hi =
      if lo >= hi then -1
      else
        let mid = (lo + hi) lsr 1 in
        let km = key r mid in
        if km = k then if is_live r mid then mid else -1
        else if km < k then go (mid + 1) hi
        else go lo mid
    in
    go 0 r.slots

  let append r tuple =
    if r.slots = Array.length r.tuples then resize r;
    r.tuples.(r.slots) <- tuple;
    Bytes.unsafe_set r.flags r.slots '\001';
    fenwick_add r r.slots 1;
    r.slots <- r.slots + 1;
    r.live <- r.live + 1

  let delete r k =
    let s = find r k in
    if s >= 0 then begin
      r.tuples.(s) <- [| k |];
      Bytes.unsafe_set r.flags s '\000';
      fenwick_add r s (-1);
      r.live <- r.live - 1
    end

  let update r k tuple =
    let s = find r k in
    if s >= 0 then r.tuples.(s) <- tuple

  (* Squeeze out the dead slots once they are a quarter of all slots, so
     slots stay below [4/3 · live] after every batch, and shrink arrays
     that a shrinking relation left over-sized: the slot arrays follow the
     live tuples down as well as up. *)
  let compact r =
    let dead = r.slots - r.live in
    if dead > 0 && 4 * dead >= r.slots then begin
      let w = ref 0 in
      for s = 0 to r.slots - 1 do
        if is_live r s then begin
          r.tuples.(!w) <- r.tuples.(s);
          Bytes.unsafe_set r.flags !w '\001';
          incr w
        end
      done;
      Array.fill r.tuples !w (r.slots - !w) [||];
      Bytes.fill r.flags !w (r.slots - !w) '\000';
      r.slots <- !w;
      if Array.length r.tuples > capacity r.slots then resize r
      else rebuild_fenwick r
    end

  let rel_of_list kp tuples =
    let n = List.length tuples in
    let cap = capacity n in
    let r =
      {
        kp;
        tuples = Array.make cap [||];
        flags = Bytes.make cap '\000';
        fenwick = [||];
        slots = 0;
        live = 0;
      }
    in
    List.iter
      (fun t ->
        if r.slots > 0 && t.(kp) <= key r (r.slots - 1) then
          invalid_arg "Datagen.Mirror.of_dataset: keys not ascending";
        r.tuples.(r.slots) <- t;
        Bytes.unsafe_set r.flags r.slots '\001';
        r.slots <- r.slots + 1)
      tuples;
    r.live <- n;
    rebuild_fenwick r;
    r

  let of_dataset schema dataset =
    let sh = shape schema in
    {
      sh;
      rels =
        Array.mapi
          (fun rel l -> rel_of_list sh.sh_key_pos.(rel) l)
          dataset.ds_tuples;
      next_key = Array.copy dataset.ds_next_key;
    }

  let to_dataset m =
    let tuples r =
      let acc = ref [] in
      for s = r.slots - 1 downto 0 do
        if is_live r s then acc := r.tuples.(s) :: !acc
      done;
      !acc
    in
    { ds_tuples = Array.map tuples m.rels; ds_next_key = Array.copy m.next_key }

  let live m rel = m.rels.(rel).live
  let slots m rel = m.rels.(rel).slots
  let next_key m rel = m.next_key.(rel)

  let deltas ~rng schema m =
    let n = Array.length m.rels in
    if Schema.n_relations schema <> n then
      invalid_arg "Datagen.Mirror.deltas: schema has another relation count";
    let b_ins = draw_inserts ~rng schema m.sh ~next_key:m.next_key in
    (* Deletes and updates are drawn as ranks among the live tuples (not
       raw keys as in {!deltas}): after earlier batches removed tuples the
       key space is sparse, and only ranks are guaranteed to name live
       tuples. *)
    let del_pos =
      Array.init n (fun rel ->
          let count = count_of (Schema.delta schema rel).Schema.n_del in
          let bound = m.rels.(rel).live in
          if bound = 0 || count = 0 then []
          else sample_distinct ~rng ~count:(min count bound) ~bound [])
    in
    let b_del =
      Array.init n (fun rel ->
          let r = m.rels.(rel) in
          List.map (fun i -> r.tuples.(select r i).(r.kp)) del_pos.(rel))
    in
    let b_upd =
      Array.init n (fun rel ->
          let r = m.rels.(rel) in
          let count = count_of (Schema.delta schema rel).Schema.n_upd in
          let avail = r.live - List.length del_pos.(rel) in
          if Array.length m.sh.sh_prot.(rel) = 0 || count = 0 || avail <= 0
          then []
          else
            sample_distinct ~rng ~count:(min count avail) ~bound:r.live
              del_pos.(rel)
            |> List.map (fun i ->
                   let t = r.tuples.(select r i) in
                   (t.(r.kp), redraw_payload ~rng m.sh rel t)))
    in
    { b_ins; b_del; b_upd }

  (* Checked before any slot changes, so a rejected batch leaves the
     mirror as it was. *)
  let check m batch =
    Array.iteri
      (fun rel r ->
        let kp = r.kp in
        let last = ref (if r.slots = 0 then min_int else key r (r.slots - 1)) in
        List.iter
          (fun t ->
            if t.(kp) <= !last then
              invalid_arg
                (Printf.sprintf
                   "Datagen.Mirror.apply: insert key %d of relation %d is not \
                    above every stored key"
                   t.(kp) rel);
            last := t.(kp))
          batch.b_ins.(rel);
        List.iter
          (fun (k, t) ->
            if t.(kp) <> k then
              invalid_arg
                (Printf.sprintf
                   "Datagen.Mirror.apply: update of key %d of relation %d \
                    carries key %d"
                   k rel t.(kp)))
          batch.b_upd.(rel))
      m.rels

  let apply m batch =
    check m batch;
    Array.iteri
      (fun rel r ->
        List.iter (delete r) batch.b_del.(rel);
        List.iter (fun (k, t) -> update r k t) batch.b_upd.(rel);
        List.iter (append r) batch.b_ins.(rel);
        m.next_key.(rel) <- m.next_key.(rel) + List.length batch.b_ins.(rel);
        compact r)
      m.rels
end

let apply schema dataset batch =
  let m = Mirror.of_dataset schema dataset in
  Mirror.apply m batch;
  Mirror.to_dataset m

let deltas_evolving ~rng schema dataset =
  Mirror.deltas ~rng schema (Mirror.of_dataset schema dataset)

let batch_rows batch =
  let count per = Array.fold_left (fun acc l -> acc + List.length l) 0 per in
  count batch.b_ins + count batch.b_del + count batch.b_upd
