module Bitset = Vis_util.Bitset
module Schema = Vis_catalog.Schema
module Element = Vis_costmodel.Element
module Table = Vis_relalg.Table
module Exec = Vis_relalg.Exec
module Datagen = Vis_workload.Datagen
module Faults = Vis_storage.Faults
module Buffer_pool = Vis_storage.Buffer_pool
module Heap_file = Vis_storage.Heap_file
module Btree = Vis_storage.Btree
module Iostats = Vis_storage.Iostats

type view_check = {
  vc_view : string;
  vc_expected : int;
  vc_actual : int;
  vc_ok : bool;
}

let multiset_of rows =
  let t = Hashtbl.create 256 in
  List.iter
    (fun row ->
      let key = Array.to_list row in
      Hashtbl.replace t key (1 + Option.value ~default:0 (Hashtbl.find_opt t key)))
    rows;
  t

let multiset_equal a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold
       (fun k v acc -> acc && Hashtbl.find_opt b k = Some v)
       a true

let check_views w =
  let schema = w.Warehouse.w_schema in
  let n = Schema.n_relations schema in
  (* Current base contents, straight from the replicas. *)
  let tuples = Array.init n (fun r -> Exec.scan w.Warehouse.w_bases.(r) ()) in
  List.map
    (fun (set, table) ->
      let expected = Warehouse.compute_view_in_memory schema ~tuples set in
      let actual = Exec.scan table () in
      let ok = multiset_equal (multiset_of expected) (multiset_of actual) in
      {
        vc_view = Element.name schema (Element.View set);
        vc_expected = List.length expected;
        vc_actual = List.length actual;
        vc_ok = ok;
      })
    w.Warehouse.w_views

let all_ok checks = List.for_all (fun c -> c.vc_ok) checks

let world ?(checksums = false) ~seed schema config =
  let rng = Random.State.make [| seed |] in
  let dataset = Datagen.generate ~rng schema in
  let w = Warehouse.build ~checksums schema config dataset in
  (w, Datagen.deltas ~rng schema dataset)

let split_batch k (b : Datagen.batch) =
  let deal j l = List.filteri (fun i _ -> i mod k = j) l in
  List.init k (fun j ->
      {
        Datagen.b_ins = Array.map (deal j) b.Datagen.b_ins;
        b_del = Array.map (deal j) b.Datagen.b_del;
        b_upd = Array.map (deal j) b.Datagen.b_upd;
      })

let run_cycle ?(seed = 42) schema config =
  let w, batch = world ~seed schema config in
  let report = Refresh.run w batch in
  (report, check_views w)

type reference = { rf_physical : string; rf_logical : string }

let reference w =
  {
    rf_physical = Warehouse.signature w;
    rf_logical = Warehouse.logical_signature w;
  }

type verdict =
  | Bit_identical
  | Logically_exact
  | Rolled_back
  | Failed_intact
  | State_mismatch
  | Degraded_mismatch
  | Rollback_mismatch
  | Integrity_broken of string

let verdict_ok = function
  | Bit_identical | Logically_exact | Rolled_back | Failed_intact -> true
  | _ -> false

let verdict_name = function
  | Bit_identical -> "bit-identical"
  | Logically_exact -> "degraded, logically exact"
  | Rolled_back -> "rolled back to pre-batch"
  | Failed_intact -> "failed, storage intact"
  | State_mismatch -> "STATE MISMATCH"
  | Degraded_mismatch -> "DEGRADED MISMATCH"
  | Rollback_mismatch -> "ROLLBACK MISMATCH"
  | Integrity_broken m -> "INTEGRITY BROKEN: " ^ m

type 'a trial = {
  tr_result : ('a, Refresh.error) result;
  tr_stats : Refresh.fault_stats;
  tr_io : int;
  tr_verdict : verdict;
}

(* The shared tail of both trials: count the refresh's I/O before any
   signature scan adds to it, judge a completed refresh against the
   reference and a failed one with [on_error], then require integrity of
   every state whose signatures agreed. *)
let judge reference w result ~stats ~on_error =
  let io = Iostats.total_io w.Warehouse.w_stats in
  let tr_stats, verdict =
    match result with
    | Ok ok ->
        let fs = stats ok in
        ( fs,
          if fs.Refresh.fs_degraded then
            if Warehouse.logical_signature w = reference.rf_logical then
              Logically_exact
            else Degraded_mismatch
          else if Warehouse.signature w = reference.rf_physical then
            Bit_identical
          else State_mismatch )
    | Error e -> (e.Refresh.err_stats, on_error ())
  in
  let verdict =
    if not (verdict_ok verdict) then verdict
    else
      match Warehouse.integrity_check w with
      | Ok () -> verdict
      | Error m -> Integrity_broken m
  in
  { tr_result = result; tr_stats; tr_io = io; tr_verdict = verdict }

let refresh_trial reference ~faults w batch =
  let pre = Warehouse.signature w in
  judge reference w
    (Refresh.run_protected ~faults w batch)
    ~stats:snd
    ~on_error:(fun () ->
      if Warehouse.signature w = pre then Rolled_back else Rollback_mismatch)

let stream_trial reference ~faults w batches =
  judge reference w
    (Refresh.run_protected_many ~faults w batches)
    ~stats:(fun (_, fs, _) -> fs)
    ~on_error:(fun () -> Failed_intact)

(* Every page rebuildable from base relations: view heap pages plus every
   index node (indexes on bases rebuild from their heaps).  Base heap
   pages are excluded — damaging those is unrecoverable by design. *)
let rebuildable_gids w =
  let heap_gids tbl =
    let h = Table.heap tbl in
    List.init (Heap_file.n_pages h) (Heap_file.page_gid h)
  in
  let index_gids tbl =
    List.concat_map (fun (_, ix) -> Btree.page_gids ix) (Table.indexes tbl)
  in
  let base_ix =
    List.concat_map index_gids (Array.to_list w.Warehouse.w_bases)
  in
  let views =
    List.concat_map
      (fun (_, tbl) -> heap_gids tbl @ index_gids tbl)
      w.Warehouse.w_views
  in
  List.sort_uniq compare (base_ix @ views)

let damage_pages w ~rng ~n targets =
  let hits =
    Faults.random_damage ~n ~rng ~targets:(Array.length targets) ()
  in
  List.iter
    (fun (way, pick, sel) ->
      Buffer_pool.corrupt_page w.Warehouse.w_pool targets.(pick) way sel)
    hits;
  List.sort compare (List.map (fun (_, pick, _) -> targets.(pick)) hits)

type scrub_check = {
  sk_injected : int;  (* distinct pages damaged *)
  sk_report : Warehouse.scrub_report;
  sk_views_ok : bool;  (* post-repair view contents re-verified *)
  sk_integrity_ok : bool;
}

let scrub_cycle ?(seed = 42) ?(damage = 3) schema config =
  let w, batch = world ~checksums:true ~seed schema config in
  ignore (Refresh.run w batch);
  let damaged =
    damage_pages w
      ~rng:(Random.State.make [| seed; 0x5c2b |])
      ~n:damage
      (Array.of_list (rebuildable_gids w))
  in
  let report = Warehouse.scrub ~fail_unrecoverable:false w in
  let checks = check_views w in
  {
    sk_injected = List.length damaged;
    sk_report = report;
    sk_views_ok = all_ok checks;
    sk_integrity_ok = Result.is_ok (Warehouse.integrity_check w);
  }
