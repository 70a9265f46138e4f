module Heap_file = Vis_storage.Heap_file
module Btree = Vis_storage.Btree
module Int_hashtbl = Vis_util.Int_hashtbl

type tuple = int array

type pred = tuple -> bool

let keep filter tuple = match filter with None -> true | Some p -> p tuple

let scan t ?filter () =
  let acc = ref [] in
  Heap_file.scan (Table.heap t) ~f:(fun _ tuple ->
      if keep filter tuple then acc := tuple :: !acc);
  List.rev !acc

let index_scan t ~offset ~lo ~hi ?filter () =
  match Table.index_on t ~offset with
  | None -> invalid_arg "Exec.index_scan: no index on attribute"
  | Some ix ->
      let entries = Btree.range ix ~lo ~hi in
      List.filter_map
        (fun (_, rid) ->
          match Heap_file.get (Table.heap t) rid with
          | Some tuple when keep filter tuple -> Some tuple
          | Some _ | None -> None)
        entries

let combine a b =
  let out = Array.make (Array.length a + Array.length b) 0 in
  Array.blit a 0 out 0 (Array.length a);
  Array.blit b 0 out (Array.length a) (Array.length b);
  out

let rec take_block n acc = function
  | [] -> (List.rev acc, [])
  | x :: rest when n > 0 -> take_block (n - 1) (x :: acc) rest
  | rest -> (List.rev acc, rest)

let nested_block_join ~outer ~outer_offset ~block_tuples ~inner ~inner_offset
    ?filter () =
  if block_tuples < 1 then invalid_arg "Exec.nested_block_join: empty block";
  let results = ref [] in
  let rec blocks remaining =
    match remaining with
    | [] -> ()
    | _ ->
        let block, rest = take_block block_tuples [] remaining in
        let hash = Int_hashtbl.create (2 * List.length block) in
        List.iter
          (fun tuple -> Int_hashtbl.add hash tuple.(outer_offset) tuple)
          block;
        (* Inner tuples without a partner in the block are never copied
           out of the arena. *)
        Heap_file.scan_where (Table.heap inner) ~attr:inner_offset
          ~keys:(List.map (fun tuple -> tuple.(outer_offset)) block)
          ~f:(fun _ inner_tuple ->
            List.iter
              (fun outer_tuple ->
                let out = combine outer_tuple inner_tuple in
                if keep filter out then results := out :: !results)
              (Int_hashtbl.find_all hash inner_tuple.(inner_offset)));
        blocks rest
  in
  blocks outer;
  List.rev !results

let block_cross_join ~outer ~block_tuples ~inner ?filter () =
  if block_tuples < 1 then invalid_arg "Exec.block_cross_join: empty block";
  let results = ref [] in
  let rec blocks remaining =
    match remaining with
    | [] -> ()
    | _ ->
        let block, rest = take_block block_tuples [] remaining in
        Heap_file.scan (Table.heap inner) ~f:(fun _ inner_tuple ->
            List.iter
              (fun outer_tuple ->
                let out = combine outer_tuple inner_tuple in
                if keep filter out then results := out :: !results)
              block);
        blocks rest
  in
  blocks outer;
  List.rev !results

let index_join ~outer ~outer_offset ~inner ~inner_offset ?filter () =
  match Table.index_on inner ~offset:inner_offset with
  | None -> invalid_arg "Exec.index_join: no index on inner attribute"
  | Some ix ->
      let results = ref [] in
      List.iter
        (fun outer_tuple ->
          let rids = Btree.lookup ix ~key:outer_tuple.(outer_offset) in
          List.iter
            (fun rid ->
              match Heap_file.get (Table.heap inner) rid with
              | Some inner_tuple ->
                  let out = combine outer_tuple inner_tuple in
                  if keep filter out then results := out :: !results
              | None -> ())
            rids)
        outer;
      List.rev !results

let locate_by_scan t ~offset ~keys =
  let acc = ref [] in
  Heap_file.scan_where (Table.heap t) ~attr:offset ~keys
    ~f:(fun rid tuple -> acc := (rid, tuple) :: !acc);
  List.rev !acc

let locate_by_index t ~offset ~keys =
  match Table.index_on t ~offset with
  | None -> invalid_arg "Exec.locate_by_index: no index on attribute"
  | Some ix ->
      List.concat_map
        (fun key ->
          List.filter_map
            (fun rid ->
              match Heap_file.get (Table.heap t) rid with
              | Some tuple -> Some (rid, tuple)
              | None -> None)
            (Btree.lookup ix ~key))
        keys
