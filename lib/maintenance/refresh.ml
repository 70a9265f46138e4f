module Bitset = Vis_util.Bitset
module Int_hashtbl = Vis_util.Int_hashtbl
module Schema = Vis_catalog.Schema
module Element = Vis_costmodel.Element
module Cost = Vis_costmodel.Cost
module Table = Vis_relalg.Table
module Reldesc = Vis_relalg.Reldesc
module Exec = Vis_relalg.Exec
module Datagen = Vis_workload.Datagen
module Heap_file = Vis_storage.Heap_file
module Buffer_pool = Vis_storage.Buffer_pool
module Faults = Vis_storage.Faults
module Wal = Vis_storage.Wal

type report = {
  rp_reads : int;
  rp_writes : int;
  rp_accesses : int;
  rp_wal_writes : int;
  rp_wal_syncs : int;
  rp_pool_hits : int;
  rp_pool_misses : int;
  rp_pool_evictions : int;
  rp_pool_overflows : int;
  rp_predicted : float;
}

let total_io r = r.rp_reads + r.rp_writes

let report_json r =
  let module Json = Vis_util.Json in
  Json.Obj
    [
      ("predicted_io", Json.Float r.rp_predicted);
      ("measured_io", Json.Int (total_io r));
      ("reads", Json.Int r.rp_reads);
      ("writes", Json.Int r.rp_writes);
      ("accesses", Json.Int r.rp_accesses);
      ("wal_writes", Json.Int r.rp_wal_writes);
      ("wal_syncs", Json.Int r.rp_wal_syncs);
      ( "pool",
        Json.Obj
          [
            ("hits", Json.Int r.rp_pool_hits);
            ("misses", Json.Int r.rp_pool_misses);
            ("evictions", Json.Int r.rp_pool_evictions);
            ("overflows", Json.Int r.rp_pool_overflows);
          ] );
    ]

let rels_of_desc desc =
  List.fold_left
    (fun acc (r, _) -> Bitset.add r acc)
    Bitset.empty (Reldesc.attrs desc)

(* Equality conditions linking the rows described by [desc] with a join
   unit, as (outer offset, inner offset) pairs. *)
let equalities schema desc unit_desc =
  let left = rels_of_desc desc in
  let right = rels_of_desc unit_desc in
  List.filter_map
    (fun (j : Schema.join) ->
      if Bitset.mem j.Schema.left_rel left && Bitset.mem j.Schema.right_rel right
      then
        Some
          ( Reldesc.offset desc ~rel:j.Schema.left_rel ~attr:j.Schema.left_attr,
            Reldesc.offset unit_desc ~rel:j.Schema.right_rel
              ~attr:j.Schema.right_attr )
      else if
        Bitset.mem j.Schema.right_rel left && Bitset.mem j.Schema.left_rel right
      then
        Some
          ( Reldesc.offset desc ~rel:j.Schema.right_rel ~attr:j.Schema.right_attr,
            Reldesc.offset unit_desc ~rel:j.Schema.left_rel ~attr:j.Schema.left_attr
          )
      else None)
    schema.Schema.joins

(* Residual predicate on combined tuples: remaining equalities plus the
   pushed-down selections of a base-relation unit. *)
let residual_filter schema ~outer_arity ~eqs ~elem ~unit_desc =
  let sel_checks =
    match elem with
    | Element.View _ -> []
    | Element.Base i ->
        List.filter_map
          (fun (s : Schema.selection) ->
            if s.Schema.sel_rel <> i then None
            else
              let off =
                outer_arity
                + Reldesc.offset unit_desc ~rel:i ~attr:s.Schema.sel_attr
              in
              let bound =
                int_of_float
                  (s.Schema.selectivity *. float_of_int Datagen.sel_resolution)
              in
              Some (fun (t : int array) -> t.(off) < bound))
          schema.Schema.selections
  in
  let eq_checks =
    List.map
      (fun (oo, io) -> fun (t : int array) -> t.(oo) = t.(outer_arity + io))
      eqs
  in
  match sel_checks @ eq_checks with
  | [] -> None
  | checks -> Some (fun t -> List.for_all (fun c -> c t) checks)

let block_tuples_for schema desc =
  let bytes = max 1 (Reldesc.arity desc) * Warehouse.attr_bytes in
  let tpp = max 1 (schema.Schema.page_bytes / bytes) in
  max 1 (schema.Schema.mem_pages * tpp)

(* Reorder a tuple produced with layout [from_desc] into [to_desc]. *)
let permutation ~from_desc ~to_desc =
  Array.of_list
    (List.map
       (fun (rel, attr) -> Reldesc.offset from_desc ~rel ~attr)
       (Reldesc.attrs to_desc))

let temp_table pool schema desc =
  Table.create pool ~desc ~page_bytes:schema.Schema.page_bytes
    ~attr_bytes:Warehouse.attr_bytes

(* The key of a saved view delta in [apply]'s [saved] table: the pair
   (relation, view set) packed into one int.  [rel < n_relations] and a set
   of [n] relations is below [2^n], so the packing is injective. *)
let saved_key schema ~rel set = (Bitset.to_int set * Schema.n_relations schema) + rel

(* Execute the optimizer's insertion update path for one (view, relation)
   pair, returning rows in the view's canonical layout. *)
let exec_ins_plan w ~saved ~ins_temp ~rel ~target_set (plan : Cost.ins_plan) =
  let schema = w.Warehouse.w_schema in
  let start_desc, start_rows =
    match plan.Cost.ip_start with
    | Cost.From_delta ->
        let raw = Exec.scan ins_temp () in
        ( Reldesc.of_relation schema rel,
          List.filter (Datagen.passes_selections schema ~rel) raw )
    | Cost.From_saved wset ->
        let temp : Table.t = Int_hashtbl.find saved (saved_key schema ~rel wset) in
        (Warehouse.view_desc schema wset, Exec.scan temp ())
  in
  let step (desc, rows) (elem, how) =
    let table =
      match Warehouse.element_table w elem with
      | Some t -> t
      | None -> invalid_arg "Refresh: plan references an unmaterialized element"
    in
    let unit_desc = Table.desc table in
    let eqs = equalities schema desc unit_desc in
    let outer_arity = Reldesc.arity desc in
    let joined =
      match how with
      | Cost.Nbj -> (
          let block_tuples = block_tuples_for schema desc in
          match eqs with
          | [] ->
              let filter =
                residual_filter schema ~outer_arity ~eqs:[] ~elem ~unit_desc
              in
              Exec.block_cross_join ~outer:rows ~block_tuples ~inner:table
                ?filter ()
          | (oo, io) :: residual ->
              let filter =
                residual_filter schema ~outer_arity ~eqs:residual ~elem
                  ~unit_desc
              in
              Exec.nested_block_join ~outer:rows ~outer_offset:oo ~block_tuples
                ~inner:table ~inner_offset:io ?filter ())
      | Cost.Index_join ix -> (
          let inner_offset =
            Reldesc.offset unit_desc ~rel:ix.Element.ix_attr.Element.a_rel
              ~attr:ix.Element.ix_attr.Element.a_name
          in
          match List.partition (fun (_, io) -> io = inner_offset) eqs with
          | (oo, io) :: extra_same, residual ->
              let filter =
                residual_filter schema ~outer_arity ~eqs:(extra_same @ residual)
                  ~elem ~unit_desc
              in
              Exec.index_join ~outer:rows ~outer_offset:oo ~inner:table
                ~inner_offset:io ?filter ()
          | [], _ ->
              invalid_arg "Refresh: index join without a matching equality")
    in
    (Reldesc.concat desc unit_desc, joined)
  in
  let desc, rows = List.fold_left step (start_desc, start_rows) plan.Cost.ip_steps in
  let canonical = Warehouse.view_desc schema target_set in
  if Reldesc.equal desc canonical then rows
  else begin
    let perm = permutation ~from_desc:desc ~to_desc:canonical in
    List.map (fun row -> Array.map (fun o -> row.(o)) perm) rows
  end

(* Locate the target tuples carrying one of [keys] in relation [rel]'s key
   attribute, by the optimizer's chosen method. *)
let locate w table ~rel ~keys how =
  let schema = w.Warehouse.w_schema in
  let key_attr = (Schema.relation schema rel).Schema.key_attr in
  let offset = Reldesc.offset (Table.desc table) ~rel ~attr:key_attr in
  match how with
  | Cost.Loc_scan -> Exec.locate_by_scan table ~offset ~keys
  | Cost.Loc_key_index _ -> Exec.locate_by_index table ~offset ~keys

(* How durable-table mutations are performed: straight through [Table] for
   the classic unprotected refresh, or through the warehouse's logged
   operations when the batch runs under WAL protection.  Temporary tables
   (staged deltas, saved view deltas) always bypass the sink — they are
   scratch and need no recovery. *)
type sink = {
  s_insert : Table.t -> int array -> unit;
  s_delete : Table.t -> Heap_file.rid -> unit;
  s_update : Table.t -> Heap_file.rid -> int array -> unit;
}

let unlogged_sink =
  {
    s_insert = (fun t row -> ignore (Table.insert t row));
    s_delete = (fun t rid -> ignore (Table.delete t rid));
    s_update = (fun t rid row -> ignore (Table.update t rid row));
  }

let logged_sink w =
  {
    s_insert = (fun t row -> ignore (Warehouse.logged_insert w t row));
    s_delete = (fun t rid -> ignore (Warehouse.logged_delete w t rid));
    s_update = (fun t rid row -> ignore (Warehouse.logged_update w t rid row));
  }

type staged = {
  st_ins : Table.t array;
  st_del : Table.t array;
  st_upd : Table.t array;
}

let key_offset schema r =
  let key_attr = (Schema.relation schema r).Schema.key_attr in
  Schema.attr_pos schema r key_attr

(* Stage the shipped deltas in temporary tables: maintenance proper starts
   with the deltas on disk, so staging happens before the counters reset
   and before any fault plan arms. *)
let stage w (batch : Datagen.batch) =
  let schema = w.Warehouse.w_schema in
  let pool = w.Warehouse.w_pool in
  let n = Schema.n_relations schema in
  let st_ins =
    Array.init n (fun r ->
        let t = temp_table pool schema (Reldesc.of_relation schema r) in
        List.iter (fun row -> ignore (Table.insert t row)) batch.Datagen.b_ins.(r);
        t)
  in
  (* Deletions ship as key-only tuples; we stage them at full relation width
     (zero-padded), matching the cost model's page estimate for ∇R. *)
  let st_del =
    Array.init n (fun r ->
        let desc = Reldesc.of_relation schema r in
        let t = temp_table pool schema desc in
        let arity = Reldesc.arity desc in
        let ko = key_offset schema r in
        List.iter
          (fun key ->
            let row = Array.make arity 0 in
            row.(ko) <- key;
            ignore (Table.insert t row))
          batch.Datagen.b_del.(r);
        t)
  in
  let st_upd =
    Array.init n (fun r ->
        let t = temp_table pool schema (Reldesc.of_relation schema r) in
        List.iter
          (fun (_, row) -> ignore (Table.insert t row))
          batch.Datagen.b_upd.(r);
        t)
  in
  { st_ins; st_del; st_upd }

(* The per-relation propagation loop.  [with_views:false] applies the
   deltas to the base replicas only (the degraded path recomputes views
   afterwards). *)
let apply w eval ~sink ~with_views ~staged (batch : Datagen.batch) =
  let schema = w.Warehouse.w_schema in
  let pool = w.Warehouse.w_pool in
  let n = Schema.n_relations schema in
  let saved : Table.t Int_hashtbl.t = Int_hashtbl.create 16 in
  for r = 0 to n - 1 do
    (* Insertions: views smallest-first, then the base replica. *)
    if batch.Datagen.b_ins.(r) <> [] then begin
      if with_views then
        List.iter
          (fun (set, vtable) ->
            if Bitset.mem r set then begin
              let _, plan = Cost.prop_ins eval ~target:(Element.View set) ~rel:r in
              let rows =
                exec_ins_plan w ~saved ~ins_temp:staged.st_ins.(r) ~rel:r
                  ~target_set:set plan
              in
              List.iter (fun row -> sink.s_insert vtable row) rows;
              if not (Bitset.equal set (Schema.all_relations schema)) then begin
                let save = temp_table pool schema (Warehouse.view_desc schema set) in
                List.iter (fun row -> ignore (Table.insert save row)) rows;
                Int_hashtbl.replace saved (saved_key schema ~rel:r set) save
              end
            end)
          w.Warehouse.w_views;
      let raw = Exec.scan staged.st_ins.(r) () in
      List.iter (fun row -> sink.s_insert w.Warehouse.w_bases.(r) row) raw
    end;
    (* Deletions: read the shipped keys, then locate and remove. *)
    if batch.Datagen.b_del.(r) <> [] then begin
      let ko = key_offset schema r in
      let read_keys () =
        List.map (fun row -> row.(ko)) (Exec.scan staged.st_del.(r) ())
      in
      if with_views then
        List.iter
          (fun (set, vtable) ->
            if Bitset.mem r set then begin
              let _, how = Cost.prop_del eval ~target:(Element.View set) ~rel:r in
              let located = locate w vtable ~rel:r ~keys:(read_keys ()) how in
              List.iter (fun (rid, _) -> sink.s_delete vtable rid) located
            end)
          w.Warehouse.w_views;
      let _, how = Cost.prop_del eval ~target:(Element.Base r) ~rel:r in
      let located =
        locate w w.Warehouse.w_bases.(r) ~rel:r ~keys:(read_keys ()) how
      in
      List.iter
        (fun (rid, _) -> sink.s_delete w.Warehouse.w_bases.(r) rid)
        located
    end;
    (* Protected updates: read the shipped replacement rows, then locate
       and overwrite in place. *)
    if batch.Datagen.b_upd.(r) <> [] then begin
      let ko = key_offset schema r in
      let shipped = Exec.scan staged.st_upd.(r) () in
      let keys = List.map (fun row -> row.(ko)) shipped in
      let replacement = Int_hashtbl.create (2 * List.length shipped) in
      List.iter (fun row -> Int_hashtbl.replace replacement row.(ko) row) shipped;
      if with_views then
        List.iter
          (fun (set, vtable) ->
            if Bitset.mem r set then begin
              let _, how = Cost.prop_upd eval ~target:(Element.View set) ~rel:r in
              let located = locate w vtable ~rel:r ~keys how in
              let desc = Table.desc vtable in
              let key_attr = (Schema.relation schema r).Schema.key_attr in
              let key_off = Reldesc.offset desc ~rel:r ~attr:key_attr in
              List.iter
                (fun (rid, old_row) ->
                  match Int_hashtbl.find_opt replacement old_row.(key_off) with
                  | None -> ()
                  | Some fresh ->
                      let updated = Array.copy old_row in
                      List.iteri
                        (fun pos (drel, dattr) ->
                          if drel = r then
                            updated.(pos) <-
                              fresh.(Schema.attr_pos schema r dattr))
                        (Reldesc.attrs desc);
                      sink.s_update vtable rid updated)
                located
            end)
          w.Warehouse.w_views;
      let _, how = Cost.prop_upd eval ~target:(Element.Base r) ~rel:r in
      let located = locate w w.Warehouse.w_bases.(r) ~rel:r ~keys how in
      List.iter
        (fun (rid, old_row) ->
          match Int_hashtbl.find_opt replacement old_row.(ko) with
          | None -> ()
          | Some fresh -> sink.s_update w.Warehouse.w_bases.(r) rid fresh)
        located
    end
  done

let report_of w ~predicted =
  let stats = w.Warehouse.w_stats in
  {
    rp_reads = Vis_storage.Iostats.reads stats;
    rp_writes = Vis_storage.Iostats.writes stats;
    rp_accesses = Vis_storage.Iostats.accesses stats;
    rp_wal_writes = Vis_storage.Iostats.wal_writes stats;
    rp_wal_syncs = Vis_storage.Iostats.wal_syncs stats;
    rp_pool_hits = Vis_storage.Iostats.pool_hits stats;
    rp_pool_misses = Vis_storage.Iostats.pool_misses stats;
    rp_pool_evictions = Vis_storage.Iostats.pool_evictions stats;
    rp_pool_overflows = Vis_storage.Iostats.pool_overflows stats;
    rp_predicted = predicted;
  }

let run w (batch : Datagen.batch) =
  let eval = Cost.create w.Warehouse.w_derived w.Warehouse.w_config in
  let predicted = Cost.total eval in
  let staged = stage w batch in
  Warehouse.reset_stats w;
  apply w eval ~sink:unlogged_sink ~with_views:true ~staged batch;
  Vis_storage.Buffer_pool.flush w.Warehouse.w_pool;
  report_of w ~predicted

(* ------------------------------------------------------------------ *)
(* Fault-protected refresh. *)

type fault_stats = {
  fs_attempts : int;
  fs_injected : int;
  fs_retries : int;
  fs_backoff_ms : float;
  fs_rollbacks : int;
  fs_undone : int;
  fs_degraded : bool;
  fs_wal_records : int;
  fs_wal_pages : int;
  fs_recomputed_rows : int;
}

type error = { err_fault : Faults.fault; err_stats : fault_stats }

(* Graceful degradation: with the base replicas already refreshed (bases
   only), rebuild every view from scratch — scan the bases, join in memory,
   then replace each view's contents through the logged operations so even
   a crash mid-recomputation rolls back cleanly.  The scans and rewrites
   are charged to [Iostats] like any other I/O: degradation has a visible
   price. *)
let recompute_views w recomputed =
  let schema = w.Warehouse.w_schema in
  let n = Schema.n_relations schema in
  let tuples =
    Array.init n (fun r ->
        let acc = ref [] in
        Heap_file.scan
          (Table.heap w.Warehouse.w_bases.(r))
          ~f:(fun _ t -> acc := Array.copy t :: !acc);
        List.rev !acc)
  in
  List.iter
    (fun (set, vtable) ->
      let fresh = Warehouse.compute_view_in_memory schema ~tuples set in
      let rids = ref [] in
      Heap_file.scan (Table.heap vtable) ~f:(fun rid _ -> rids := rid :: !rids);
      List.iter
        (fun rid -> ignore (Warehouse.logged_delete w vtable rid))
        (List.rev !rids);
      List.iter (fun row -> ignore (Warehouse.logged_insert w vtable row)) fresh;
      recomputed := !recomputed + List.length fresh)
    w.Warehouse.w_views

(* Mutable tallies shared by the single-batch runner and the group runner:
   both funnel their attempts through [protected_one], so the fault
   statistics aggregate naturally across a whole group run. *)
type tallies = {
  mutable tl_attempts : int;
  mutable tl_rollbacks : int;
  mutable tl_undone : int;
  mutable tl_recomputed : int;
  mutable tl_degraded : bool;
}

let fresh_tallies () =
  {
    tl_attempts = 0;
    tl_rollbacks = 0;
    tl_undone = 0;
    tl_recomputed = 0;
    tl_degraded = false;
  }

let stats_of w plan tl =
  {
    fs_attempts = tl.tl_attempts;
    fs_injected = Faults.injected plan;
    fs_retries = Faults.retries plan;
    fs_backoff_ms = Faults.elapsed_ms plan;
    fs_rollbacks = tl.tl_rollbacks;
    fs_undone = tl.tl_undone;
    fs_degraded = tl.tl_degraded;
    fs_wal_records = Wal.total_records w.Warehouse.w_wal;
    fs_wal_pages = Wal.total_pages w.Warehouse.w_wal;
    fs_recomputed_rows = tl.tl_recomputed;
  }

(* One WAL-protected batch under the immediate-sync protocol: retry the
   whole batch on one-shot (crash) or escalated transient faults, degrade
   to view recomputation on permanent ones.  Shared by [run_protected] and
   the group runner's per-batch replay after a group rollback. *)
let protected_one w eval plan ~max_attempts ~sink ~staged ~batch tl =
  (* One bracketed attempt.  Only the typed fault exception is caught —
     anything else is a genuine bug and must surface. *)
  let attempt ~with_views =
    tl.tl_attempts <- tl.tl_attempts + 1;
    Faults.arm plan;
    match
      (* The Begin append can itself fault (log-page alloc or seal), so it
         sits inside the bracket too; recovery of a batch that died in
         [begin_batch] finds nothing to undo. *)
      Warehouse.begin_batch w;
      apply w eval ~sink ~with_views ~staged batch;
      if not with_views then begin
        let rc = ref tl.tl_recomputed in
        recompute_views w rc;
        tl.tl_recomputed <- !rc
      end;
      Warehouse.commit_batch w
    with
    | () ->
        Faults.disarm plan;
        None
    | exception Faults.Injected f ->
        Faults.disarm plan;
        tl.tl_rollbacks <- tl.tl_rollbacks + 1;
        tl.tl_undone <- tl.tl_undone + Warehouse.recover w;
        Some f
  in
  (* Normal path: a permanent fault would fail identically on retry, so
     skip straight to degradation. *)
  let rec normal k =
    match attempt ~with_views:true with
    | None -> Ok ()
    | Some f when f.Faults.f_kind = Faults.Permanent -> Error f
    | Some f when k >= max_attempts -> Error f
    | Some _ -> normal (k + 1)
  in
  let rec degrade k =
    match attempt ~with_views:false with
    | None -> Ok ()
    | Some f when k >= max_attempts -> Error f
    | Some _ -> degrade (k + 1)
  in
  match normal 1 with
  | Ok () -> Ok ()
  | Error _ ->
      tl.tl_degraded <- true;
      degrade 1

let run_protected ?faults ?(max_attempts = 2) w (batch : Datagen.batch) =
  let max_attempts = max 1 max_attempts in
  let plan = match faults with Some p -> p | None -> Faults.none () in
  let pool = w.Warehouse.w_pool in
  Buffer_pool.set_faults pool plan;
  let eval = Cost.create w.Warehouse.w_derived w.Warehouse.w_config in
  let predicted = Cost.total eval in
  let staged = stage w batch in
  Warehouse.reset_stats w;
  let sink = logged_sink w in
  let tl = fresh_tallies () in
  let outcome = protected_one w eval plan ~max_attempts ~sink ~staged ~batch tl in
  Faults.disarm plan;
  Vis_storage.Buffer_pool.flush pool;
  let stats = stats_of w plan tl in
  match outcome with
  | Ok () -> Ok (report_of w ~predicted, stats)
  | Error f -> Error { err_fault = f; err_stats = stats }

(* ------------------------------------------------------------------ *)
(* Group commit. *)

type group_policy = { gp_max_group : int; gp_window_ms : float }

let default_group_policy = { gp_max_group = 4; gp_window_ms = 40. }

(* Simulated inter-arrival time of one batch on the group clock.  The
   scheduler below is a pure function of this clock and the pending set,
   so a run (including any fault plan's injection points) replays
   bit-identically regardless of host timing. *)
let batch_ms = 10.

type group_stats = {
  gr_batches : int;
  gr_group_syncs : int;
  gr_max_group : int;
  gr_replayed : int;
  gr_clock_ms : float;
  gr_latency_ms_total : float;
  gr_latencies_ms : float list;
}

let run_protected_many ?faults ?(max_attempts = 2)
    ?(policy = default_group_policy) w (batches : Datagen.batch list) =
  let max_attempts = max 1 max_attempts in
  if policy.gp_max_group < 1 then
    invalid_arg "Refresh.run_protected_many: gp_max_group < 1";
  let plan = match faults with Some p -> p | None -> Faults.none () in
  let pool = w.Warehouse.w_pool in
  Buffer_pool.set_faults pool plan;
  let eval = Cost.create w.Warehouse.w_derived w.Warehouse.w_config in
  let batch_arr = Array.of_list batches in
  let n = Array.length batch_arr in
  let predicted = Cost.total eval *. float_of_int n in
  let staged_arr = Array.map (stage w) batch_arr in
  Warehouse.reset_stats w;
  let sink = logged_sink w in
  let tl = fresh_tallies () in
  let clock = ref 0. in
  (* Per-batch commit latency (arrival order), settled at whichever
     durability point confirmed the batch: the group sync or its individual
     replay.  [nan] marks a batch the failure path never made durable. *)
  let latencies = Array.make n Float.nan in
  let group_syncs = ref 0 in
  let max_group = ref 0 in
  let replayed = ref 0 in
  (* Batch indexes committed-deferred but not yet covered by a sync, newest
     first.  Their staged deltas are kept until durability confirms. *)
  let pending = ref [] in
  let failure = ref None in
  let arrival i = float_of_int i *. batch_ms in
  let settle i = latencies.(i) <- !clock -. arrival i in
  (* After a rollback every non-durable batch was undone (cross-batch
     LIFO); replay them oldest-first, each under the immediate-sync
     protocol with its own retry/degrade budget.  The group resumes with
     the remaining batches afterwards. *)
  let replay idxs =
    List.iter
      (fun i ->
        if !failure = None then begin
          incr replayed;
          match
            protected_one w eval plan ~max_attempts ~sink
              ~staged:staged_arr.(i) ~batch:batch_arr.(i) tl
          with
          | Ok () -> settle i
          | Error f -> failure := Some f
        end)
      idxs
  in
  (* Force the log once for every pending deferred commit.  The sync's
     write-back is itself a fault point: a crash there rolls back the whole
     pending group, which then replays batch by batch. *)
  let flush_group () =
    if !pending <> [] then begin
      let size = List.length !pending in
      Faults.arm plan;
      match Warehouse.sync_batches w with
      | () ->
          Faults.disarm plan;
          incr group_syncs;
          if size > !max_group then max_group := size;
          List.iter settle !pending;
          pending := []
      | exception Faults.Injected _ ->
          Faults.disarm plan;
          tl.tl_rollbacks <- tl.tl_rollbacks + 1;
          tl.tl_undone <- tl.tl_undone + Warehouse.recover w;
          let idxs = List.rev !pending in
          pending := [];
          replay idxs
    end
  in
  let i = ref 0 in
  while !failure = None && !i < n do
    let idx = !i in
    clock := !clock +. batch_ms;
    tl.tl_attempts <- tl.tl_attempts + 1;
    Faults.arm plan;
    (match
       Warehouse.begin_batch w;
       apply w eval ~sink ~with_views:true ~staged:staged_arr.(idx)
         batch_arr.(idx);
       Warehouse.commit_batch_deferred w
     with
    | () ->
        Faults.disarm plan;
        pending := idx :: !pending;
        (* Deterministic scheduler: sync when the group is full, the oldest
           pending commit has waited out the window, or the stream ends. *)
        let window_elapsed =
          match List.rev !pending with
          | oldest :: _ -> !clock -. arrival oldest >= policy.gp_window_ms
          | [] -> false
        in
        if
          List.length !pending >= policy.gp_max_group
          || window_elapsed
          || idx = n - 1
        then flush_group ()
    | exception Faults.Injected _ ->
        (* The crash takes down the current batch and every deferred one:
           none of their commits were forced, so [recover] undoes them all
           newest-first before the individual replay. *)
        Faults.disarm plan;
        tl.tl_rollbacks <- tl.tl_rollbacks + 1;
        tl.tl_undone <- tl.tl_undone + Warehouse.recover w;
        let idxs = List.rev (idx :: !pending) in
        pending := [];
        replay idxs);
    incr i
  done;
  (* Normally empty here (the last batch forces a flush); only a trailing
     fault path can leave stragglers. *)
  flush_group ();
  Faults.disarm plan;
  Vis_storage.Buffer_pool.flush pool;
  let stats = stats_of w plan tl in
  let gstats =
    {
      gr_batches = n;
      gr_group_syncs = !group_syncs;
      gr_max_group = !max_group;
      gr_replayed = !replayed;
      gr_clock_ms = !clock;
      gr_latency_ms_total =
        Array.fold_left
          (fun acc l -> if Float.is_nan l then acc else acc +. l)
          0. latencies;
      gr_latencies_ms =
        List.filter (fun l -> not (Float.is_nan l)) (Array.to_list latencies);
    }
  in
  match !failure with
  | None -> Ok (report_of w ~predicted, stats, gstats)
  | Some f -> Error { err_fault = f; err_stats = stats }
