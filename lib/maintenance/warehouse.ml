module Bitset = Vis_util.Bitset
module Int_hashtbl = Vis_util.Int_hashtbl
module Schema = Vis_catalog.Schema
module Derived = Vis_catalog.Derived
module Element = Vis_costmodel.Element
module Config = Vis_costmodel.Config
module Table = Vis_relalg.Table
module Reldesc = Vis_relalg.Reldesc
module Datagen = Vis_workload.Datagen

module Heap_file = Vis_storage.Heap_file
module Btree = Vis_storage.Btree
module Buffer_pool = Vis_storage.Buffer_pool
module Wal = Vis_storage.Wal
module Faults = Vis_storage.Faults

type t = {
  w_schema : Schema.t;
  w_derived : Derived.t;
  w_config : Config.t;
  w_pool : Vis_storage.Buffer_pool.t;
  w_stats : Vis_storage.Iostats.t;
  w_bases : Table.t array;
  mutable w_views : (Bitset.t * Table.t) list;
  w_wal : Wal.t;
}

let attr_bytes = 8

let view_desc schema set =
  Bitset.fold
    (fun i acc ->
      let d = Reldesc.of_relation schema i in
      match acc with None -> Some d | Some prev -> Some (Reldesc.concat prev d))
    set None
  |> function
  | Some d -> d
  | None -> invalid_arg "Warehouse.view_desc: empty set"

(* In-memory hash join of the view's relations, selections applied, in
   canonical relation order. *)
let compute_view_in_memory schema ~tuples set =
  let rels = Bitset.elements set in
  match rels with
  | [] -> invalid_arg "Warehouse.compute_view_in_memory: empty set"
  | first :: rest ->
      let filtered rel =
        List.filter
          (Datagen.passes_selections schema ~rel)
          tuples.(rel)
      in
      let init =
        (Reldesc.of_relation schema first, filtered first)
      in
      let step (desc, rows) rel =
        let rdesc = Reldesc.of_relation schema rel in
        let conds =
          List.filter_map
            (fun (j : Schema.join) ->
              if
                j.Schema.left_rel = rel
                && Reldesc.mem desc ~rel:j.Schema.right_rel ~attr:j.Schema.right_attr
              then
                Some
                  ( Reldesc.offset desc ~rel:j.Schema.right_rel ~attr:j.Schema.right_attr,
                    Schema.attr_pos schema rel j.Schema.left_attr )
              else if
                j.Schema.right_rel = rel
                && Reldesc.mem desc ~rel:j.Schema.left_rel ~attr:j.Schema.left_attr
              then
                Some
                  ( Reldesc.offset desc ~rel:j.Schema.left_rel ~attr:j.Schema.left_attr,
                    Schema.attr_pos schema rel j.Schema.right_attr )
              else None)
            schema.Schema.joins
        in
        let new_rows = filtered rel in
        let combined =
          match conds with
          | [] ->
              (* Cross product. *)
              List.concat_map
                (fun a -> List.map (fun b -> Array.append a b) new_rows)
                rows
          | (lo, ro) :: residual ->
              let hash = Int_hashtbl.create (2 * List.length new_rows) in
              List.iter (fun b -> Int_hashtbl.add hash b.(ro) b) new_rows;
              List.concat_map
                (fun a ->
                  List.filter_map
                    (fun b ->
                      if
                        List.for_all
                          (fun (lo', ro') -> a.(lo') = b.(ro'))
                          residual
                      then Some (Array.append a b)
                      else None)
                    (Int_hashtbl.find_all hash a.(lo)))
                rows
        in
        (Reldesc.concat desc rdesc, combined)
      in
      let _, rows = List.fold_left step init rest in
      rows

(* Elements the configuration compresses are stored page-compressed with
   the cost model's page ratio, so measured page counts line up with the
   modeled I/O savings. *)
let compress_ratio_of config e =
  if Config.has_compress config e then Some Vis_costmodel.Cost.compress_page_ratio
  else None

let build ?(checksums = false) schema config dataset =
  let stats = Vis_storage.Iostats.create () in
  let pool =
    Vis_storage.Buffer_pool.create ~capacity:schema.Schema.mem_pages ~stats
  in
  let n = Schema.n_relations schema in
  let bases =
    Array.init n (fun i ->
        let table =
          Table.create
            ?compress_ratio:(compress_ratio_of config (Element.Base i))
            ~protect:checksums pool
            ~desc:(Reldesc.of_relation schema i)
            ~page_bytes:schema.Schema.page_bytes ~attr_bytes
        in
        List.iter
          (fun tuple -> ignore (Table.insert table tuple))
          dataset.Datagen.ds_tuples.(i);
        table)
  in
  let view_sets =
    (Config.views config @ [ Schema.all_relations schema ])
    |> List.sort_uniq (fun a b ->
           match Int.compare (Bitset.cardinal a) (Bitset.cardinal b) with
           | 0 -> Bitset.compare a b
           | c -> c)
  in
  let views =
    List.map
      (fun set ->
        let table =
          Table.create
            ?compress_ratio:(compress_ratio_of config (Element.View set))
            ~protect:checksums pool
            ~desc:(view_desc schema set)
            ~page_bytes:schema.Schema.page_bytes ~attr_bytes
        in
        List.iter
          (fun tuple -> ignore (Table.insert table tuple))
          (compute_view_in_memory schema ~tuples:dataset.Datagen.ds_tuples set);
        (set, table))
      view_sets
  in
  let element_table = function
    | Element.Base i -> bases.(i)
    | Element.View set -> List.assoc set views
  in
  List.iter
    (fun (ix : Element.index) ->
      let table = element_table ix.Element.ix_elem in
      let offset =
        Reldesc.offset (Table.desc table) ~rel:ix.Element.ix_attr.Element.a_rel
          ~attr:ix.Element.ix_attr.Element.a_name
      in
      ignore (Table.add_index table ~offset))
    (Config.indexes config);
  Vis_storage.Buffer_pool.flush pool;
  Vis_storage.Iostats.reset stats;
  {
    w_schema = schema;
    w_derived = Derived.create schema;
    w_config = config;
    w_pool = pool;
    w_stats = stats;
    w_bases = bases;
    w_views = views;
    w_wal = Wal.create pool ~page_bytes:schema.Schema.page_bytes;
  }

let element_table w = function
  | Element.Base i ->
      if i >= 0 && i < Array.length w.w_bases then Some w.w_bases.(i) else None
  | Element.View set ->
      Option.map snd (List.find_opt (fun (s, _) -> Bitset.equal s set) w.w_views)

let reset_stats w =
  Vis_storage.Buffer_pool.flush w.w_pool;
  Vis_storage.Iostats.reset w.w_stats

(* ------------------------------------------------------------------ *)
(* Durable-table registry: WAL records name tables by index — bases first,
   then the views in [w_views] order (both fixed at build time). *)

let durable_tables w =
  Array.append w.w_bases (Array.of_list (List.map snd w.w_views))

(* Heap pages across every durable table — the stored footprint the
   compression bench compares against an uncompressed build. *)
let total_data_pages w =
  Array.fold_left (fun acc t -> acc + Table.n_pages t) 0 (durable_tables w)

(* [durable_tables] order, walked in place: this runs for every logged
   row, so it allocates nothing. *)
let table_id w table =
  let n_bases = Array.length w.w_bases in
  let rec in_views i = function
    | [] -> invalid_arg "Warehouse.table_id: not a durable table"
    | (_, t) :: rest -> if t == table then i else in_views (i + 1) rest
  in
  let rec in_bases i =
    if i >= n_bases then in_views n_bases w.w_views
    else if w.w_bases.(i) == table then i
    else in_bases (i + 1)
  in
  in_bases 0

(* ------------------------------------------------------------------ *)
(* Logged modifications: log before apply.  The before images come from a
   [get] the refresh just performed anyway (the page is hot), so logging
   adds WAL appends but no extra base-page reads. *)

let logged_insert w table tuple =
  let id = table_id w table in
  let rid = Heap_file.next_rid (Table.heap table) in
  Wal.append w.w_wal (Wal.Ins { table = id; rid; tuple = Array.copy tuple });
  let actual = Table.insert table tuple in
  assert (actual = rid);
  actual

let logged_delete w table rid =
  match Heap_file.get (Table.heap table) rid with
  | None -> false
  | Some before ->
      let id = table_id w table in
      Wal.append w.w_wal (Wal.Del { table = id; rid; before = Array.copy before });
      Table.delete table rid

let logged_update w table rid after =
  match Heap_file.get (Table.heap table) rid with
  | None -> false
  | Some before ->
      let id = table_id w table in
      Wal.append w.w_wal
        (Wal.Upd { table = id; rid; before = Array.copy before; after = Array.copy after });
      Table.update table rid after

let begin_batch w = Wal.append w.w_wal Wal.Begin

let commit_batch w =
  Wal.append w.w_wal Wal.Commit;
  Wal.sync w.w_wal;
  Wal.checkpoint w.w_wal

(* Group commit: append the Commit record but defer the force.  The batch
   is NOT durable until a later {!sync_batches} covers it — until then a
   crash rolls it back together with everything after the last durable
   commit. *)
let commit_batch_deferred w = Wal.append w.w_wal Wal.Commit

(* One force makes every deferred commit durable; the log is then fully
   covered, so it can truncate. *)
let sync_batches w =
  Wal.sync w.w_wal;
  Wal.checkpoint w.w_wal

(* Roll back the unfinished batch (if any) by undoing its log records in
   strict LIFO order.  Runs with faults disarmed — recovery models a clean
   restart — and charges one read per log page so the recovery cost shows
   up in the counters.  Returns the number of records undone.

   Recovery trusts the log only after {!Wal.verify_scan} re-derived every
   record CRC: a torn tail (half-persisted, never-acknowledged suffix) is
   truncated once undo has consumed the records, and recovery proceeds;
   mid-log corruption means the durable history itself is rotten, so
   recovery stops immediately with {!Wal.Corrupt_record} naming the first
   bad record — there is no sound state to roll back to. *)
let recover w =
  (match Wal.verify_scan w.w_wal with
  | Wal.Clean | Wal.Torn _ -> ()
  | Wal.Corrupt { seq } -> raise (Wal.Corrupt_record seq));
  let plan = Buffer_pool.faults w.w_pool in
  let was_armed = Faults.armed plan in
  Faults.disarm plan;
  let undo = Wal.unfinished w.w_wal in
  List.iter
    (fun gid -> Buffer_pool.touch w.w_pool gid ~dirty:false)
    (Wal.page_gids w.w_wal);
  let tables = durable_tables w in
  List.iter
    (fun r ->
      match r with
      | Wal.Ins { table; rid; tuple } ->
          ignore (Table.unapply_insert tables.(table) rid tuple)
      | Wal.Del { table; rid; before } ->
          ignore (Table.restore tables.(table) rid before)
      | Wal.Upd { table; rid; before; _ } ->
          ignore (Table.unapply_update tables.(table) rid before)
      | Wal.Begin | Wal.Commit -> ())
    undo;
  ignore (Wal.truncate_torn w.w_wal);
  Wal.checkpoint w.w_wal;
  if was_armed then Faults.arm plan;
  List.length undo

(* ------------------------------------------------------------------ *)
(* Scrub, quarantine and self-healing rebuild. *)

exception Unrecoverable of { u_gid : int; u_table : int }

type scrub_report = {
  sc_scanned : int;
  sc_corrupt : int;
  sc_views_rebuilt : int;
  sc_indexes_rebuilt : int;
  sc_unrecoverable : (int * int) list;  (* (gid, durable table id) *)
}

let heap_gids table =
  let h = Table.heap table in
  List.init (Heap_file.n_pages h) (Heap_file.page_gid h)

let find_view w set =
  match List.find_opt (fun (s, _) -> Bitset.equal s set) w.w_views with
  | Some (_, table) -> table
  | None -> invalid_arg "Warehouse: no such view"

(* Canonical rebuild of one view from the current base replicas: scan the
   bases (trusted — base damage is unrecoverable), join in memory, and
   load a fresh table with the same compression, protection and index set
   as the old one.  The old table's pages are discarded and unregistered;
   the rebuilt table takes the old one's position in [w_views], so WAL
   table ids never move.  All scans and loads run through the pool —
   repair I/O is charged like any other.  Returns the rebuilt row
   count. *)
let rebuild_view w set =
  let schema = w.w_schema in
  let old = find_view w set in
  let tuples =
    Array.init (Schema.n_relations schema) (fun r ->
        let acc = ref [] in
        Heap_file.scan (Table.heap w.w_bases.(r)) ~f:(fun _ t ->
            acc := Array.copy t :: !acc);
        List.rev !acc)
  in
  let rows = compute_view_in_memory schema ~tuples set in
  let offsets = List.map fst (Table.indexes old) in
  List.iter
    (fun gid ->
      Buffer_pool.discard w.w_pool gid;
      Buffer_pool.unprotect w.w_pool gid)
    (heap_gids old
    @ List.concat_map (fun (_, ix) -> Btree.page_gids ix) (Table.indexes old));
  let fresh =
    Table.create
      ?compress_ratio:(compress_ratio_of w.w_config (Element.View set))
      ~protect:(Table.protected old) w.w_pool ~desc:(view_desc schema set)
      ~page_bytes:schema.Schema.page_bytes ~attr_bytes
  in
  List.iter (fun row -> ignore (Table.insert fresh row)) rows;
  List.iter (fun offset -> ignore (Table.add_index fresh ~offset)) offsets;
  w.w_views <-
    List.map
      (fun (s, t) -> if Bitset.equal s set then (s, fresh) else (s, t))
      w.w_views;
  List.length rows

(* One scrub pass: sweep every protected page, quarantine convictions, then
   repair what can be rebuilt from base relations — a corrupt view page
   costs the whole view (its heap layout cannot be reconstructed
   piecemeal), a corrupt index node costs one index rebuild from its heap.
   Base-relation heap damage has no redundant source to rebuild from: it is
   collected in [sc_unrecoverable] and, with [fail_unrecoverable] (the
   default), raised as the typed error {!Unrecoverable}. *)
let scrub ?(fail_unrecoverable = true) w =
  let rep = Vis_storage.Scrub.sweep w.w_pool in
  let corrupt = rep.Vis_storage.Scrub.sr_corrupt in
  let n_bases = Array.length w.w_bases in
  (* Decide every repair before mutating anything: rebuilds change the
     page-ownership map the classification reads. *)
  let views_to_rebuild = ref [] in
  let index_rebuilds = ref [] in  (* (durable table id, attribute offset) *)
  let unrecoverable = ref [] in
  let classify gid =
    let tables = durable_tables w in
    let owner = ref None in
    Array.iteri
      (fun ti table ->
        if !owner = None then
          if List.mem gid (heap_gids table) then owner := Some (ti, None)
          else
            List.iter
              (fun (offset, ix) ->
                if !owner = None && List.mem gid (Btree.page_gids ix) then
                  owner := Some (ti, Some offset))
              (Table.indexes table))
      tables;
    match !owner with
    | None ->
        (* A page no structure owns (stale quarantine survivor): nothing to
           rebuild, nothing lost. *)
        ()
    | Some (ti, Some offset) ->
        if not (List.mem (ti, offset) !index_rebuilds) then
          index_rebuilds := (ti, offset) :: !index_rebuilds
    | Some (ti, None) ->
        if ti < n_bases then unrecoverable := (gid, ti) :: !unrecoverable
        else
          let set, _ = List.nth w.w_views (ti - n_bases) in
          if not (List.exists (Bitset.equal set) !views_to_rebuild) then
            views_to_rebuild := set :: !views_to_rebuild
  in
  List.iter classify corrupt;
  (* A rebuilt view recreates its indexes too — drop subsumed index
     rebuilds. *)
  let subsumed ti =
    ti >= n_bases
    && List.exists
         (Bitset.equal (fst (List.nth w.w_views (ti - n_bases))))
         !views_to_rebuild
  in
  let index_rebuilds = List.filter (fun (ti, _) -> not (subsumed ti)) !index_rebuilds in
  List.iter
    (fun (ti, offset) ->
      let tables = durable_tables w in
      ignore (Table.rebuild_index tables.(ti) ~offset))
    (List.rev index_rebuilds);
  List.iter (fun set -> ignore (rebuild_view w set)) (List.rev !views_to_rebuild);
  let report =
    {
      sc_scanned = rep.Vis_storage.Scrub.sr_scanned;
      sc_corrupt = List.length corrupt;
      sc_views_rebuilt = List.length !views_to_rebuild;
      sc_indexes_rebuilt = List.length index_rebuilds;
      sc_unrecoverable = List.rev !unrecoverable;
    }
  in
  (match (fail_unrecoverable, report.sc_unrecoverable) with
  | true, (gid, ti) :: _ -> raise (Unrecoverable { u_gid = gid; u_table = ti })
  | _ -> ());
  report

(* ------------------------------------------------------------------ *)
(* State digests and integrity checks used by tests and the crash-recovery
   oracle.  Computing them scans every table, which moves the buffer pool
   and counters — callers compare states, they don't measure I/O here. *)

let add_int buf i =
  Buffer.add_string buf (string_of_int i);
  Buffer.add_char buf ';'

let sorted_indexes table =
  List.sort (fun (a, _) (b, _) -> Int.compare a b) (Table.indexes table)

(* Physical signature: exact slot layout of every heap plus exact entry
   sequence of every index.  Two warehouses agree iff they are the same
   bit-for-bit stored state. *)
let signature w =
  let buf = Buffer.create 8192 in
  Array.iter
    (fun table ->
      let h = Table.heap table in
      Buffer.add_string buf "#heap:";
      add_int buf (Heap_file.n_pages h);
      add_int buf (Heap_file.n_tuples h);
      Heap_file.scan h ~f:(fun rid tuple ->
          add_int buf rid.Heap_file.rid_page;
          add_int buf rid.Heap_file.rid_slot;
          Array.iter (add_int buf) tuple);
      List.iter
        (fun (offset, ix) ->
          Buffer.add_string buf "#ix:";
          add_int buf offset;
          Btree.iter ix ~f:(fun key rid ->
              add_int buf key;
              add_int buf rid.Heap_file.rid_page;
              add_int buf rid.Heap_file.rid_slot))
        (sorted_indexes table))
    (durable_tables w);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Logical signature: per-table sorted tuple multisets, ignoring placement.
   A degraded refresh (views recomputed rather than incrementally patched)
   matches the fault-free run logically but not physically. *)
let logical_signature w =
  let buf = Buffer.create 8192 in
  Array.iter
    (fun table ->
      let rows = ref [] in
      Heap_file.scan (Table.heap table) ~f:(fun _ tuple ->
          rows := Array.to_list tuple :: !rows);
      Buffer.add_string buf "#table:";
      List.iter
        (fun row -> List.iter (add_int buf) row)
        (List.sort compare !rows))
    (durable_tables w);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Every index is structurally sound and holds exactly the (key, rid)
   multiset of its heap. *)
let integrity_check w =
  let tables = durable_tables w in
  let result = ref (Ok ()) in
  Array.iteri
    (fun ti table ->
      if !result = Ok () then
        let h = Table.heap table in
        List.iter
          (fun (offset, ix) ->
            if !result = Ok () then begin
              (match Btree.check ix with
              | Ok () -> ()
              | Error msg ->
                  result := Error (Printf.sprintf "table %d index %d: %s" ti offset msg));
              if !result = Ok () then begin
                let heap_entries = ref [] in
                Heap_file.scan h ~f:(fun rid tuple ->
                    heap_entries := (tuple.(offset), rid) :: !heap_entries);
                let ix_entries = ref [] in
                Btree.iter ix ~f:(fun key rid -> ix_entries := (key, rid) :: !ix_entries);
                if
                  List.sort compare !heap_entries <> List.sort compare !ix_entries
                then
                  result :=
                    Error
                      (Printf.sprintf
                         "table %d index %d: entries disagree with heap (%d vs %d)"
                         ti offset (List.length !ix_entries)
                         (List.length !heap_entries))
              end
            end)
          (sorted_indexes table))
    tables;
  !result
