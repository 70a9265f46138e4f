(* Pins the shapes of the generated star/snowflake workloads: relation
   counts, candidate-feature counts under the production candidate caps,
   and whether the problem stays in the benchmark's "packed" class (at
   most 62 features, [Problem.encoding]).  These numbers are
   load-bearing — the parallel-scaling study, the CI smoke and the sharded
   search tests all assume them — so a generator change that shifts them
   must show up here first.  Also checks that the generated schemas are
   executable: Datagen can realize their statistics and draw delta
   batches. *)

module Schema = Vis_catalog.Schema
module Problem = Vis_core.Problem
module Schemas = Vis_workload.Schemas
module Datagen = Vis_workload.Datagen

let checkb = Alcotest.(check bool)

let checki = Alcotest.(check int)

let shape name schema ~rels ~features ~packed =
  checki (name ^ ": relations") rels (Schema.n_relations schema);
  let p = Problem.make ~connected_only:true ~max_view_rels:2 schema in
  checki (name ^ ": features under cap 2") features
    (List.length p.Problem.features);
  checkb (name ^ ": feature encoding") packed (p.Problem.encoding <> None)

let test_star_shapes () =
  (* star ~n_dims:k is a fact table plus k dimensions *)
  shape "star-6" (Schemas.star ~n_dims:5 ()) ~rels:6 ~features:45 ~packed:true;
  shape "star-8" (Schemas.star ~n_dims:7 ()) ~rels:8 ~features:78 ~packed:false;
  shape "star-12"
    (Schemas.star ~n_dims:11 ())
    ~rels:12 ~features:165 ~packed:false

let test_snowflake_shapes () =
  (* snowflake ~arms ~depth is a fact table plus arms·depth dimensions *)
  shape "snowflake-7"
    (Schemas.snowflake ~arms:3 ~depth:2 ())
    ~rels:7 ~features:44 ~packed:true;
  (* 62 features — the largest packed problem *)
  shape "snowflake-9"
    (Schemas.snowflake ~arms:4 ~depth:2 ())
    ~rels:9 ~features:62 ~packed:true

let test_star_sized_like_issue () =
  (* The CLI accepts star3..star25 and snowflake5..snowflake25; spot-check
     the range endpoints the benchmark and CI use. *)
  List.iter
    (fun n ->
      checki
        (Printf.sprintf "star n_dims=%d relation count" n)
        (n + 1)
        (Schema.n_relations (Schemas.star ~n_dims:n ())))
    [ 2; 7; 11 ];
  List.iter
    (fun (arms, depth) ->
      checki
        (Printf.sprintf "snowflake %dx%d relation count" arms depth)
        (1 + (arms * depth))
        (Schema.n_relations (Schemas.snowflake ~arms ~depth ())))
    [ (2, 2); (3, 2); (4, 3) ]

let test_star_executable () =
  (* Foreign keys are separate attributes from the keys, so the generated
     schemas are realizable and refreshes can be drawn and executed. *)
  let schema = Schemas.star ~base_card:200. ~n_dims:4 () in
  let rng = Random.State.make [| 7 |] in
  let ds = Datagen.generate ~rng schema in
  checki "one tuple list per relation" (Schema.n_relations schema)
    (Array.length ds.Datagen.ds_tuples);
  Array.iteri
    (fun r tuples ->
      let card =
        int_of_float (Schema.relation schema r).Schema.card
      in
      checki (Printf.sprintf "relation %d realized cardinality" r) card
        (List.length tuples))
    ds.Datagen.ds_tuples;
  let batch = Datagen.deltas ~rng schema ds in
  let total_ins =
    Array.fold_left (fun acc l -> acc + List.length l) 0 batch.Datagen.b_ins
  in
  checkb "delta batch non-empty" true (total_ins > 0)

let test_snowflake_executable () =
  let schema = Schemas.snowflake ~base_card:200. ~arms:2 ~depth:2 () in
  let rng = Random.State.make [| 11 |] in
  let ds = Datagen.generate ~rng schema in
  let batch = Datagen.deltas ~rng schema ds in
  checki "one delete list per relation" (Schema.n_relations schema)
    (Array.length batch.Datagen.b_del)

(* ------------------------------------------------------------------ *)
(* The order-statistic mirror against the list functions it replaced.
   [Reference] is the former list implementation of [apply] and
   [deltas_evolving]: a full rebuild of every relation per batch, and
   position draws into a fresh array copy of the dataset. *)

module Reference = struct
  type role = Key | Fk of int | Sel | Payload

  (* Attribute roles of the executable schemas the tests draw from. *)
  let roles schema rel =
    let r = Schema.relation schema rel in
    let key_of other = (Schema.relation schema other).Schema.key_attr in
    List.map
      (fun attr ->
        let fk =
          List.find_map
            (fun (j : Schema.join) ->
              if
                j.Schema.left_rel = rel && j.Schema.left_attr = attr
                && j.Schema.right_attr = key_of j.Schema.right_rel
              then Some j.Schema.right_rel
              else if
                j.Schema.right_rel = rel && j.Schema.right_attr = attr
                && j.Schema.left_attr = key_of j.Schema.left_rel
              then Some j.Schema.left_rel
              else None)
            schema.Schema.joins
        in
        if attr = r.Schema.key_attr then Key
        else
          match fk with
          | Some target -> Fk target
          | None ->
              if List.mem attr (Schema.selection_attrs schema rel) then Sel
              else Payload)
      r.Schema.attrs

  let draw_tuple ~rng schema rel ~key =
    let cards =
      Array.map
        (fun (r : Schema.relation) -> int_of_float r.Schema.card)
        schema.Schema.relations
    in
    roles schema rel
    |> List.map (function
         | Key -> key
         | Fk target -> Random.State.int rng (max 1 cards.(target))
         | Sel -> Random.State.int rng Datagen.sel_resolution
         | Payload -> Random.State.int rng 1_000_000)
    |> Array.of_list

  let sample_distinct ~rng ~count ~bound avoid =
    let taken = Hashtbl.create (2 * count) in
    List.iter (fun k -> Hashtbl.replace taken k ()) avoid;
    let rec draw acc remaining guard =
      if remaining = 0 || guard > 100 * count then acc
      else
        let k = Random.State.int rng bound in
        if Hashtbl.mem taken k then draw acc remaining (guard + 1)
        else begin
          Hashtbl.replace taken k ();
          draw (k :: acc) (remaining - 1) guard
        end
    in
    draw [] count 0

  let apply schema (ds : Datagen.dataset) (batch : Datagen.batch) =
    let n = Array.length ds.Datagen.ds_tuples in
    let ds_tuples =
      Array.init n (fun rel ->
          let kp = Datagen.key_pos schema rel in
          let dels = Hashtbl.create 16 in
          List.iter (fun k -> Hashtbl.replace dels k ()) batch.Datagen.b_del.(rel);
          let upds = Hashtbl.create 16 in
          List.iter (fun (k, t) -> Hashtbl.replace upds k t) batch.Datagen.b_upd.(rel);
          List.filter_map
            (fun tuple ->
              let k = tuple.(kp) in
              if Hashtbl.mem dels k then None
              else
                match Hashtbl.find_opt upds k with
                | Some replacement -> Some replacement
                | None -> Some tuple)
            ds.Datagen.ds_tuples.(rel)
          @ batch.Datagen.b_ins.(rel))
    in
    let ds_next_key =
      Array.init n (fun rel ->
          ds.Datagen.ds_next_key.(rel) + List.length batch.Datagen.b_ins.(rel))
    in
    { Datagen.ds_tuples; ds_next_key }

  let deltas_evolving ~rng schema (ds : Datagen.dataset) =
    let n = Schema.n_relations schema in
    let count f rel = int_of_float (Float.round (f (Schema.delta schema rel))) in
    let b_ins =
      Array.init n (fun rel ->
          let base = ds.Datagen.ds_next_key.(rel) in
          List.init
            (count (fun d -> d.Schema.n_ins) rel)
            (fun i -> draw_tuple ~rng schema rel ~key:(base + i)))
    in
    let tuples = Array.map Array.of_list ds.Datagen.ds_tuples in
    let del_pos =
      Array.init n (fun rel ->
          let c = count (fun d -> d.Schema.n_del) rel in
          let bound = Array.length tuples.(rel) in
          if bound = 0 || c = 0 then []
          else sample_distinct ~rng ~count:(min c bound) ~bound [])
    in
    let b_del =
      Array.init n (fun rel ->
          let kp = Datagen.key_pos schema rel in
          List.map (fun i -> tuples.(rel).(i).(kp)) del_pos.(rel))
    in
    let b_upd =
      Array.init n (fun rel ->
          let c = count (fun d -> d.Schema.n_upd) rel in
          let prot = Datagen.protected_attrs schema rel in
          let bound = Array.length tuples.(rel) in
          let avail = bound - List.length del_pos.(rel) in
          if prot = [] || c = 0 || avail <= 0 then []
          else begin
            let kp = Datagen.key_pos schema rel in
            List.map
              (fun i ->
                let tuple = Array.copy tuples.(rel).(i) in
                List.iter
                  (fun attr ->
                    tuple.(Schema.attr_pos schema rel attr) <-
                      Random.State.int rng 1_000_000)
                  prot;
                (tuple.(kp), tuple))
              (sample_distinct ~rng ~count:(min c avail) ~bound del_pos.(rel))
          end)
    in
    { Datagen.b_ins; b_del; b_upd }
end

(* Fail on a difference only: the stream test makes thousands of
   comparisons. *)
let same_batch msg (a : Datagen.batch) (b : Datagen.batch) =
  if a <> b then Alcotest.failf "%s: batches differ" msg

let same_dataset msg (a : Datagen.dataset) (b : Datagen.dataset) =
  if a <> b then Alcotest.failf "%s: contents differ" msg

(* After every batch, a relation's slots stay below 4/3 of its live tuples
   (dead slots are under a quarter, or compaction removed them). *)
let check_slots m n =
  for rel = 0 to n - 1 do
    let live = Datagen.Mirror.live m rel and slots = Datagen.Mirror.slots m rel in
    if not (3 * slots <= 4 * live) then
      Alcotest.failf "relation %d: %d slots for %d live tuples" rel slots live
  done

(* Seeded streams on growing, shrinking and drifting schemas: the mirror
   kept across batches, the list wrappers and [Reference] all draw and
   apply the same batches, step by step. *)
let test_mirror_matches_reference () =
  let streams =
    [
      ("star growing", Schemas.star ~base_card:60. ~n_dims:3 (), 600);
      ( "star shrinking",
        Schemas.star ~base_card:60. ~n_dims:3 ~ins_frac:0.01 ~del_frac:0.03 (),
        500 );
      ( "validation churn",
        Schemas.validation ~base_card:120. ~ins_frac:0.02 ~del_frac:0.025
          ~upd_frac:0.02 (),
        600 );
      ( "snowflake",
        Schemas.snowflake ~base_card:40. ~arms:2 ~depth:2 ~del_frac:0.02 (),
        400 );
    ]
  in
  let total = ref 0 and compactions = ref 0 and grown = ref 0 in
  List.iteri
    (fun i (name, schema, batches) ->
      let n = Schema.n_relations schema in
      let rng_m = Random.State.make [| 31; i |] in
      let rng_w = Random.State.make [| 31; i |] in
      let rng_r = Random.State.make [| 31; i |] in
      let drift = Random.State.make [| 32; i |] in
      let ds = Datagen.generate ~rng:(Random.State.make [| 33; i |]) schema in
      let m = Datagen.Mirror.of_dataset schema ds in
      let cap0 = Array.init n (Datagen.Mirror.slots m) in
      let wrapped = ref ds and reference = ref ds in
      for step = 1 to batches do
        (* bursts up to x4 and lulls down to x0, as a drifting tenant *)
        let sch = Schema.scale_deltas schema (Random.State.float drift 4.) in
        let msg what = Printf.sprintf "%s step %d: %s" name step what in
        let b = Datagen.Mirror.deltas ~rng:rng_m sch m in
        let bw = Datagen.deltas_evolving ~rng:rng_w sch !wrapped in
        let br = Reference.deltas_evolving ~rng:rng_r sch !reference in
        same_batch (msg "mirror batch") br b;
        same_batch (msg "wrapper batch") br bw;
        let before = Array.init n (Datagen.Mirror.slots m) in
        Datagen.Mirror.apply m b;
        wrapped := Datagen.apply schema !wrapped b;
        reference := Reference.apply schema !reference b;
        same_dataset (msg "mirror contents") !reference (Datagen.Mirror.to_dataset m);
        same_dataset (msg "wrapper contents") !reference !wrapped;
        check_slots m n;
        for rel = 0 to n - 1 do
          let ins = List.length b.Datagen.b_ins.(rel) in
          if Datagen.Mirror.slots m rel < before.(rel) + ins then incr compactions;
          if Datagen.Mirror.slots m rel > 2 * max 16 cap0.(rel) then incr grown
        done;
        incr total
      done;
      (* Beyond the fixed cost of an empty mirror (the schema's shapes,
         one block of slots per relation), the mirror takes no more words
         than the list. *)
      let words x = Obj.reachable_words (Obj.repr x) in
      let empty =
        Datagen.Mirror.of_dataset schema
          { Datagen.ds_tuples = Array.make n []; ds_next_key = Array.make n 0 }
      in
      if words m > words (Datagen.Mirror.to_dataset m) + words empty then
        Alcotest.failf "%s: the mirror takes more words than the list" name)
    streams;
  checkb "at least 2,000 batches" true (!total >= 2_000);
  checkb "compactions crossed" true (!compactions > 100);
  checkb "growth crossed" true (!grown > 0)

let validation = Schemas.validation ~base_card:20. ()

(* Hand-made batches on the validation schema: every edge case of the
   list [apply], compared with the reference. *)
let test_mirror_crafted () =
  let schema = validation in
  let n = Schema.n_relations schema in
  let ds = Datagen.generate ~rng:(Random.State.make [| 5 |]) schema in
  let kp = Datagen.key_pos schema in
  let nth rel i = List.nth ds.Datagen.ds_tuples.(rel) i in
  let with_payload rel t v =
    let t = Array.copy t in
    (match Datagen.protected_attrs schema rel with
    | a :: _ -> t.(Schema.attr_pos schema rel a) <- v
    | [] -> ());
    t
  in
  let empty () =
    {
      Datagen.b_ins = Array.make n [];
      b_del = Array.make n [];
      b_upd = Array.make n [];
    }
  in
  (* After each batch: the same contents and live counts, and the same
     draws at volumes that delete and update most of each relation. *)
  let heavy = Schema.scale_deltas schema 40. in
  let run name ds batches =
    let m = Datagen.Mirror.of_dataset schema ds in
    ignore
      (List.fold_left
         (fun expect b ->
           let expect = Reference.apply schema expect b in
           Datagen.Mirror.apply m b;
           same_dataset name expect (Datagen.Mirror.to_dataset m);
           for rel = 0 to n - 1 do
             checki (name ^ ": live count")
               (List.length expect.Datagen.ds_tuples.(rel))
               (Datagen.Mirror.live m rel)
           done;
           check_slots m n;
           same_batch (name ^ ": draws")
             (Reference.deltas_evolving ~rng:(Random.State.make [| 9 |]) heavy
                expect)
             (Datagen.Mirror.deltas ~rng:(Random.State.make [| 9 |]) heavy m);
           expect)
         ds batches)
  in
  let k0 = (nth 0 0).(kp 0) and k1 = (nth 0 1).(kp 0) and k2 = (nth 0 2).(kp 0) in
  let b = empty () in
  b.Datagen.b_del.(0) <- [ k0; k0; k1; k1 ];
  b.Datagen.b_upd.(0) <-
    [ (k1, with_payload 0 (nth 0 1) 7); (k2, with_payload 0 (nth 0 2) 8);
      (k2, with_payload 0 (nth 0 2) 9) ];
  run "duplicate deletes, delete and update of one key, last update wins" ds [ b ];
  let absent = ds.Datagen.ds_next_key.(0) + 5 in
  let b = empty () in
  b.Datagen.b_del.(0) <- [ absent; -1 ];
  b.Datagen.b_upd.(0) <- [ (absent, Array.make 3 absent) ];
  run "absent keys" ds [ b; b ];
  let all = empty () in
  for rel = 0 to n - 1 do
    all.Datagen.b_del.(rel) <- List.map (fun t -> t.(kp rel)) ds.Datagen.ds_tuples.(rel)
  done;
  let refill = Datagen.deltas ~rng:(Random.State.make [| 6 |]) schema
      { ds with Datagen.ds_tuples = Array.make n [] } in
  let refill = { refill with Datagen.b_del = Array.make n []; b_upd = Array.make n [] } in
  run "every tuple deleted, then refilled" ds [ all; empty (); refill; all ];
  let none = { Datagen.ds_tuples = Array.make n []; ds_next_key = Array.make n 0 } in
  let m = Datagen.Mirror.of_dataset schema none in
  checkb "empty relation draws an insert-only batch" true
    (let b = Datagen.Mirror.deltas ~rng:(Random.State.make [| 7 |]) schema m in
     Array.for_all (( = ) []) b.Datagen.b_del
     && Array.for_all (( = ) []) b.Datagen.b_upd);
  run "empty relations" none [ empty (); refill ]

let test_mirror_key_order_checked () =
  let schema = validation in
  let n = Schema.n_relations schema in
  let ds = Datagen.generate ~rng:(Random.State.make [| 8 |]) schema in
  let m = Datagen.Mirror.of_dataset schema ds in
  let kp = Datagen.key_pos schema 1 in
  let stale = Array.copy (List.hd ds.Datagen.ds_tuples.(1)) in
  let fresh = Array.copy stale in
  fresh.(kp) <- ds.Datagen.ds_next_key.(1);
  let batch ins =
    {
      Datagen.b_ins = Array.init n (fun rel -> if rel = 1 then ins else []);
      b_del = Array.init n (fun rel -> if rel = 0 then [ 0 ] else []);
      b_upd = Array.make n [];
    }
  in
  let raises what b =
    match Datagen.Mirror.apply m b with
    | () -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  raises "an insert below the stored keys" (batch [ stale ]);
  raises "inserts out of order" (batch [ fresh; fresh ]);
  same_dataset "a rejected batch changes nothing" ds (Datagen.Mirror.to_dataset m);
  Datagen.Mirror.apply m (batch [ fresh ]);
  checki "an ascending insert appends" (List.length ds.Datagen.ds_tuples.(1) + 1)
    (Datagen.Mirror.live m 1);
  let shuffled = { ds with Datagen.ds_tuples = Array.map List.rev ds.Datagen.ds_tuples } in
  match Datagen.Mirror.of_dataset schema shuffled with
  | _ -> Alcotest.fail "descending keys accepted"
  | exception Invalid_argument _ -> ()

(* Canonical text of datasets and batches — decimal values in a fixed
   order — so a digest compares contents, never representation or
   sharing. *)
let add_tuple buf t =
  Array.iter (fun v -> Printf.bprintf buf "%d," v) t;
  Buffer.add_char buf ';'

let add_batch buf (b : Datagen.batch) =
  Array.iteri
    (fun rel ins ->
      Printf.bprintf buf "\nI%d:" rel;
      List.iter (add_tuple buf) ins;
      Printf.bprintf buf "\nD%d:" rel;
      List.iter (Printf.bprintf buf "%d,") b.Datagen.b_del.(rel);
      Printf.bprintf buf "\nU%d:" rel;
      List.iter
        (fun (k, t) ->
          Printf.bprintf buf "%d=" k;
          add_tuple buf t)
        b.Datagen.b_upd.(rel))
    b.Datagen.b_ins

let add_dataset buf (ds : Datagen.dataset) =
  Array.iteri
    (fun rel tuples ->
      Printf.bprintf buf "\nR%d<%d>:" rel ds.Datagen.ds_next_key.(rel);
      List.iter (add_tuple buf) tuples)
    ds.Datagen.ds_tuples

let chain_digest schema ~seed ~batches =
  let rng = Random.State.make [| seed |] in
  let buf = Buffer.create (1 lsl 16) in
  let ds = ref (Datagen.generate ~rng schema) in
  add_dataset buf !ds;
  for _ = 1 to batches do
    let b = Datagen.deltas_evolving ~rng schema !ds in
    ds := Datagen.apply schema !ds b;
    add_batch buf b
  done;
  add_dataset buf !ds;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* 200-batch [deltas_evolving]/[apply] chains, digests recorded from the
   list implementation: generation, draws and application are unchanged
   bit for bit. *)
let test_pinned_chains () =
  Alcotest.(check string) "star chain" "d3a17387cba2d6a8da01378776871bc6"
    (chain_digest
       (Schemas.star ~base_card:200. ~del_frac:0.015 ~n_dims:3 ())
       ~seed:24 ~batches:200);
  Alcotest.(check string) "validation chain" "da312930dfa36f5d65f3212c817f4205"
    (chain_digest
       (Schemas.validation ~base_card:100. ~del_frac:0.015 ~upd_frac:0.01 ())
       ~seed:24 ~batches:200)

let () =
  Alcotest.run "vis_datagen"
    [
      ( "generated workload shapes",
        [
          Alcotest.test_case "star shapes pinned" `Quick test_star_shapes;
          Alcotest.test_case "snowflake shapes pinned" `Quick
            test_snowflake_shapes;
          Alcotest.test_case "relation counts across sizes" `Quick
            test_star_sized_like_issue;
        ] );
      ( "executability",
        [
          Alcotest.test_case "star schema realizable" `Quick
            test_star_executable;
          Alcotest.test_case "snowflake schema realizable" `Quick
            test_snowflake_executable;
        ] );
      ( "logical mirror",
        [
          Alcotest.test_case "matches the list reference" `Quick
            test_mirror_matches_reference;
          Alcotest.test_case "crafted batches" `Quick test_mirror_crafted;
          Alcotest.test_case "key order checked" `Quick
            test_mirror_key_order_checked;
          Alcotest.test_case "pinned chains" `Quick test_pinned_chains;
        ] );
    ]
