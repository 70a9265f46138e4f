(* Tests for vis_relalg: tuple layouts, tables with index maintenance, and
   the physical operators compared against naive references. *)

module Bitset = Vis_util.Bitset
module Schema = Vis_catalog.Schema
module Iostats = Vis_storage.Iostats
module Buffer_pool = Vis_storage.Buffer_pool
module Reldesc = Vis_relalg.Reldesc
module Table = Vis_relalg.Table
module Exec = Vis_relalg.Exec

let checkb = Alcotest.(check bool)

let checki = Alcotest.(check int)

let schema = Vis_workload.Schemas.validation ()

let fresh_pool ?(capacity = 64) () =
  let stats = Iostats.create () in
  (Buffer_pool.create ~capacity ~stats, stats)

(* ------------------------------------------------------------------ *)
(* Reldesc. *)

let test_reldesc () =
  let r = Reldesc.of_relation schema 0 in
  let s = Reldesc.of_relation schema 1 in
  checki "arity" 3 (Reldesc.arity r);
  checki "offset R1" 1 (Reldesc.offset r ~rel:0 ~attr:"R1");
  checkb "mem" true (Reldesc.mem r ~rel:0 ~attr:"R2");
  checkb "not mem" false (Reldesc.mem r ~rel:1 ~attr:"S0");
  let rs = Reldesc.concat r s in
  checki "concat arity" 6 (Reldesc.arity rs);
  checki "offset across concat" 4 (Reldesc.offset rs ~rel:1 ~attr:"S1");
  checkb "equal" true (Reldesc.equal rs (Reldesc.concat r s));
  Alcotest.check_raises "overlap rejected"
    (Invalid_argument "Reldesc.concat: overlapping attribute") (fun () ->
      ignore (Reldesc.concat r r));
  Alcotest.check_raises "unknown attr" Not_found (fun () ->
      ignore (Reldesc.offset r ~rel:0 ~attr:"nope"))

(* ------------------------------------------------------------------ *)
(* Tables. *)

let small_table ?(rows = 20) () =
  let pool, stats = fresh_pool () in
  let t =
    Table.create pool ~desc:(Reldesc.of_relation schema 2) ~page_bytes:512
      ~attr_bytes:8
  in
  for i = 0 to rows - 1 do
    ignore (Table.insert t [| i; i mod 5; 100 + i |])
  done;
  (t, stats)

let test_table_index_consistency () =
  let t, _ = small_table () in
  let ix = Table.add_index t ~offset:1 in
  checki "index covers table" 20 (Vis_storage.Btree.length ix);
  (* Inserts keep indexes in sync. *)
  let _ = Table.insert t [| 100; 3; 0 |] in
  checki "insert indexed" 21 (Vis_storage.Btree.length ix);
  let hits = Vis_storage.Btree.lookup ix ~key:3 in
  checki "duplicates found" 5 (List.length hits);
  (* Deletes remove index entries. *)
  let victim = List.hd hits in
  checkb "delete" true (Table.delete t victim);
  checki "delete unindexed" 20 (Vis_storage.Btree.length ix);
  (* Same index handle when added twice. *)
  checkb "add_index idempotent" true (Table.add_index t ~offset:1 == ix)

let test_table_protected_update () =
  let t, _ = small_table () in
  ignore (Table.add_index t ~offset:0);
  let located = Exec.locate_by_index t ~offset:0 ~keys:[ 7 ] in
  (match located with
  | [ (rid, old) ] ->
      let fresh = Array.copy old in
      fresh.(2) <- 999;
      checkb "payload update ok" true (Table.update t rid fresh);
      let fresh2 = Array.copy old in
      fresh2.(0) <- 42;
      Alcotest.check_raises "indexed attribute immutable"
        (Invalid_argument "Table.update: protected update touches an indexed attribute")
        (fun () -> ignore (Table.update t rid fresh2))
  | _ -> Alcotest.fail "expected one match");
  ()

(* ------------------------------------------------------------------ *)
(* Operators vs references. *)

let reference_join outer rows inner_rows ~oo ~io =
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b -> if a.(oo) = b.(io) then Some (Array.append a b) else None)
        inner_rows)
    (ignore rows; outer)

let sorted_rows rows = List.sort compare (List.map Array.to_list rows)

let test_scan_filter () =
  let t, _ = small_table () in
  let all = Exec.scan t () in
  checki "all rows" 20 (List.length all);
  let even = Exec.scan t ~filter:(fun r -> r.(0) mod 2 = 0) () in
  checki "filtered" 10 (List.length even)

let test_index_scan () =
  let t, _ = small_table () in
  ignore (Table.add_index t ~offset:0);
  let rows = Exec.index_scan t ~offset:0 ~lo:5 ~hi:9 () in
  checki "range rows" 5 (List.length rows);
  Alcotest.check_raises "no index"
    (Invalid_argument "Exec.index_scan: no index on attribute") (fun () ->
      ignore (Exec.index_scan t ~offset:2 ~lo:0 ~hi:1 ()))

let test_nbj_matches_reference () =
  let t, _ = small_table ~rows:30 () in
  let inner_rows = Exec.scan t () in
  let outer = List.init 12 (fun i -> [| i * 7; i mod 5 |]) in
  (* join outer.(1) = inner.(1) *)
  let want = reference_join outer () inner_rows ~oo:1 ~io:1 in
  List.iter
    (fun block_tuples ->
      let got =
        Exec.nested_block_join ~outer ~outer_offset:1 ~block_tuples ~inner:t
          ~inner_offset:1 ()
      in
      Alcotest.(check (list (list int)))
        (Printf.sprintf "block=%d" block_tuples)
        (sorted_rows want) (sorted_rows got))
    [ 1; 3; 100 ]

let test_index_join_matches_reference () =
  let t, _ = small_table ~rows:30 () in
  ignore (Table.add_index t ~offset:1);
  let inner_rows = Exec.scan t () in
  let outer = List.init 12 (fun i -> [| i * 7; i mod 6 |]) in
  let want = reference_join outer () inner_rows ~oo:1 ~io:1 in
  let got = Exec.index_join ~outer ~outer_offset:1 ~inner:t ~inner_offset:1 () in
  Alcotest.(check (list (list int))) "index join" (sorted_rows want) (sorted_rows got)

let test_cross_join () =
  let t, _ = small_table ~rows:4 () in
  let outer = [ [| 1 |]; [| 2 |]; [| 3 |] ] in
  let got = Exec.block_cross_join ~outer ~block_tuples:2 ~inner:t () in
  checki "3x4 combinations" 12 (List.length got);
  let filtered =
    Exec.block_cross_join ~outer ~block_tuples:2 ~inner:t
      ~filter:(fun row -> row.(0) = 1)
      ()
  in
  checki "filter applies" 4 (List.length filtered)

let test_locate () =
  let t, _ = small_table () in
  let by_scan = Exec.locate_by_scan t ~offset:0 ~keys:[ 3; 7; 99 ] in
  checki "scan finds two" 2 (List.length by_scan);
  ignore (Table.add_index t ~offset:0);
  let by_index = Exec.locate_by_index t ~offset:0 ~keys:[ 3; 7; 99 ] in
  Alcotest.(check (list (list int)))
    "same rows either way"
    (sorted_rows (List.map snd by_scan))
    (sorted_rows (List.map snd by_index))

let test_nbj_io_blocks () =
  (* The inner is rescanned once per outer block: I/O grows with blocks. *)
  let pool, stats = fresh_pool ~capacity:4 () in
  let t =
    Table.create pool ~desc:(Reldesc.of_relation schema 2) ~page_bytes:512
      ~attr_bytes:8
  in
  for i = 0 to 199 do
    ignore (Table.insert t [| i; i mod 5; 0 |])
  done;
  Buffer_pool.flush pool;
  let outer = List.init 50 (fun i -> [| i; i mod 5 |]) in
  Iostats.reset stats;
  ignore
    (Exec.nested_block_join ~outer ~outer_offset:1 ~block_tuples:50 ~inner:t
       ~inner_offset:1 ());
  let one_block = Iostats.reads stats in
  Iostats.reset stats;
  Buffer_pool.flush pool;
  ignore
    (Exec.nested_block_join ~outer ~outer_offset:1 ~block_tuples:10 ~inner:t
       ~inner_offset:1 ());
  let five_blocks = Iostats.reads stats in
  checkb "more blocks, more reads" true (five_blocks > one_block)

(* The key-filtered operators as they were written with polymorphic
   [Hashtbl]s — a set for locate, a multimap for the join's build side —
   and with the key test as a predicate on every scanned tuple.  The
   int-keyed operators must return the same lists, in the same order, and
   touch the same pages. *)
module Poly_exec = struct
  module Heap_file = Vis_storage.Heap_file

  let keep filter tuple = match filter with None -> true | Some p -> p tuple

  let scan_where heap ~attr ~keep ~f =
    Heap_file.scan heap ~f:(fun rid tuple -> if keep tuple.(attr) then f rid tuple)

  let rec take_block n acc = function
    | [] -> (List.rev acc, [])
    | x :: rest when n > 0 -> take_block (n - 1) (x :: acc) rest
    | rest -> (List.rev acc, rest)

  let nested_block_join ~outer ~outer_offset ~block_tuples ~inner ~inner_offset
      ?filter () =
    let results = ref [] in
    let rec blocks remaining =
      match remaining with
      | [] -> ()
      | _ ->
          let block, rest = take_block block_tuples [] remaining in
          let hash = Hashtbl.create (2 * List.length block) in
          List.iter
            (fun tuple -> Hashtbl.add hash tuple.(outer_offset) tuple)
            block;
          scan_where (Table.heap inner) ~attr:inner_offset
            ~keep:(Hashtbl.mem hash) ~f:(fun _ inner_tuple ->
              List.iter
                (fun outer_tuple ->
                  let out = Array.append outer_tuple inner_tuple in
                  if keep filter out then results := out :: !results)
                (Hashtbl.find_all hash inner_tuple.(inner_offset)));
          blocks rest
    in
    blocks outer;
    List.rev !results

  let locate_by_scan t ~offset ~keys =
    let set = Hashtbl.create (2 * List.length keys) in
    List.iter (fun k -> Hashtbl.replace set k ()) keys;
    let acc = ref [] in
    scan_where (Table.heap t) ~attr:offset ~keep:(Hashtbl.mem set)
      ~f:(fun rid tuple -> acc := (rid, tuple) :: !acc);
    List.rev !acc
end

let io_counters s =
  Iostats.[ reads s; writes s; accesses s; pool_hits s; pool_misses s; pool_evictions s ]

let test_exec_matches_polymorphic () =
  let draw_key rng =
    match Random.State.int rng 20 with
    | 0 -> min_int
    | 1 -> max_int
    | _ -> Random.State.int rng 13 - 6
  in
  let joined = ref 0 and located = ref 0 in
  for seed = 1 to 80 do
    let rng = Random.State.make [| seed |] in
    let rows = List.init (Random.State.int rng 60) (fun i -> [| i; draw_key rng; -i |]) in
    let dead = List.filter (fun _ -> Random.State.int rng 4 = 0) rows in
    let capacity = 2 + Random.State.int rng 6 in
    (* Twin tables, so each operator starts from an identical pool. *)
    let twin () =
      let pool, stats = fresh_pool ~capacity () in
      let t =
        Table.create pool ~desc:(Reldesc.of_relation schema 2) ~page_bytes:128
          ~attr_bytes:8
      in
      let rids = List.map (fun r -> Table.insert t r) rows in
      List.iter2
        (fun r rid -> if List.memq r dead then ignore (Table.delete t rid))
        rows rids;
      Buffer_pool.flush pool;
      Iostats.reset stats;
      (t, stats)
    in
    (* Outer keys repeat: each block's build side has duplicate keys. *)
    let outer = List.init (Random.State.int rng 40) (fun j -> [| j; draw_key rng |]) in
    let block_tuples = 1 + Random.State.int rng 12 in
    let filter =
      if Random.State.bool rng then None else Some (fun r -> (r.(0) + r.(2)) mod 3 <> 0)
    in
    let keys = List.init (Random.State.int rng 10) (fun _ -> draw_key rng) in
    let where what = Printf.sprintf "seed %d: %s" seed what in
    let same what count run_new run_ref =
      let t, st = twin () and t', st' = twin () in
      let got = run_new t and want = run_ref t' in
      checkb (where what) true (got = want);
      Alcotest.(check (list int)) (where (what ^ " I/O")) (io_counters st') (io_counters st);
      count := !count + List.length got
    in
    same "nested-block join" joined
      (fun t ->
        Exec.nested_block_join ~outer ~outer_offset:1 ~block_tuples ~inner:t
          ~inner_offset:1 ?filter ())
      (fun t ->
        Poly_exec.nested_block_join ~outer ~outer_offset:1 ~block_tuples ~inner:t
          ~inner_offset:1 ?filter ());
    same "locate by scan" located
      (fun t -> Exec.locate_by_scan t ~offset:1 ~keys)
      (fun t -> Poly_exec.locate_by_scan t ~offset:1 ~keys)
  done;
  checkb "joins produced rows" true (!joined > 500);
  checkb "locates found rows" true (!located > 100)

(* Property: NBJ and index join agree on random data. *)
let prop_joins_agree =
  QCheck2.Test.make ~name:"exec: nested-block and index join agree" ~count:50
    QCheck2.Gen.(
      pair (int_range 1 2000)
        (pair (list_size (int_bound 40) (int_bound 8)) (int_range 1 60)))
    (fun (seed, (outer_keys, inner_rows)) ->
      let rng = Random.State.make [| seed |] in
      let pool, _ = fresh_pool ~capacity:128 () in
      let t =
        Table.create pool ~desc:(Reldesc.of_relation schema 2) ~page_bytes:512
          ~attr_bytes:8
      in
      for i = 0 to inner_rows - 1 do
        ignore (Table.insert t [| i; Random.State.int rng 8; i |])
      done;
      ignore (Table.add_index t ~offset:1);
      let outer = List.map (fun k -> [| k |]) outer_keys in
      let a =
        Exec.nested_block_join ~outer ~outer_offset:0 ~block_tuples:7 ~inner:t
          ~inner_offset:1 ()
      in
      let b = Exec.index_join ~outer ~outer_offset:0 ~inner:t ~inner_offset:1 () in
      sorted_rows a = sorted_rows b)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "vis_relalg"
    [
      ("reldesc", [ Alcotest.test_case "layouts" `Quick test_reldesc ]);
      ( "table",
        [
          Alcotest.test_case "index consistency" `Quick test_table_index_consistency;
          Alcotest.test_case "protected updates" `Quick test_table_protected_update;
        ] );
      ( "operators",
        [
          Alcotest.test_case "scan" `Quick test_scan_filter;
          Alcotest.test_case "index scan" `Quick test_index_scan;
          Alcotest.test_case "nbj reference" `Quick test_nbj_matches_reference;
          Alcotest.test_case "index join reference" `Quick test_index_join_matches_reference;
          Alcotest.test_case "cross join" `Quick test_cross_join;
          Alcotest.test_case "locate" `Quick test_locate;
          Alcotest.test_case "nbj block I/O" `Quick test_nbj_io_blocks;
          Alcotest.test_case "same lists as polymorphic tables" `Quick
            test_exec_matches_polymorphic;
        ]
        @ qt [ prop_joins_agree ] );
    ]
