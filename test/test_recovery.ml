(* Tests for the fault-injection + crash-recovery subsystem: the WAL's
   append/undo discipline, WAL-protected refresh with no faults (overhead,
   bit-identity with the unprotected path), rollback to the exact pre-batch
   state, crash-retry, transient in-place retry, graceful degradation to
   view recomputation, and determinism of seeded fault plans. *)

module Bitset = Vis_util.Bitset
module Schema = Vis_catalog.Schema
module Config = Vis_costmodel.Config
module Element = Vis_costmodel.Element
module Warehouse = Vis_maintenance.Warehouse
module Refresh = Vis_maintenance.Refresh
module Validate = Vis_maintenance.Validate
module Iostats = Vis_storage.Iostats
module Buffer_pool = Vis_storage.Buffer_pool
module Heap_file = Vis_storage.Heap_file
module Faults = Vis_storage.Faults
module Wal = Vis_storage.Wal

let checkb = Alcotest.(check bool)

let checki = Alcotest.(check int)

let checks = Alcotest.(check string)

let schema = Vis_workload.Schemas.validation ()

(* A design with a supporting view and an index, so the protected refresh
   exercises index maintenance and saved-delta plans too. *)
let config () =
  let st = Bitset.of_list [ 1; 2 ] in
  let ix =
    {
      Element.ix_elem = Element.View (Schema.all_relations schema);
      ix_attr = { Element.a_rel = 2; a_name = "T0" };
    }
  in
  Config.make ~views:[ st ] ~indexes:[ ix ]

(* Two structurally identical worlds from one seed: a warehouse and the
   batch to apply to it. *)
let world ?(seed = 21) () = Validate.world ~seed schema (config ())

(* ------------------------------------------------------------------ *)
(* WAL mechanics. *)

let test_wal_roundtrip () =
  let stats = Iostats.create () in
  let pool = Buffer_pool.create ~capacity:8 ~stats in
  let wal = Wal.create pool ~page_bytes:64 in
  checkb "empty log: nothing unfinished" true (Wal.unfinished wal = []);
  Wal.append wal Wal.Begin;
  let rid = { Heap_file.rid_page = 0; rid_slot = 1 } in
  Wal.append wal (Wal.Ins { table = 0; rid; tuple = [| 1; 2 |] });
  Wal.append wal (Wal.Del { table = 1; rid; before = [| 3 |] });
  checki "three records" 3 (Wal.n_records wal);
  (match Wal.unfinished wal with
  | [ Wal.Del _; Wal.Ins _ ] -> ()
  | l -> Alcotest.failf "unexpected unfinished shape (%d records)" (List.length l));
  checkb "in flight" true (Wal.in_flight wal);
  Wal.append wal Wal.Commit;
  (* An unforced Commit is not durable: the batch still counts as in flight
     and its records still roll back until [sync] covers the Commit. *)
  checkb "unforced commit still rolls back" true (Wal.unfinished wal <> []);
  checkb "unforced commit still in flight" true (Wal.in_flight wal);
  Wal.sync wal;
  checkb "sync forced the tail" true (Iostats.wal_writes stats >= 1);
  checkb "forced commit: nothing unfinished" true (Wal.unfinished wal = []);
  checkb "forced commit: not in flight" false (Wal.in_flight wal);
  Wal.checkpoint wal;
  checki "checkpoint truncates" 0 (Wal.n_records wal);
  checkb "no longer in flight" false (Wal.in_flight wal);
  checki "lifetime records survive checkpoint" 4 (Wal.total_records wal)

let test_wal_page_spill () =
  let stats = Iostats.create () in
  let pool = Buffer_pool.create ~capacity:4 ~stats in
  (* 64-byte pages hold two 4-word records: appending five Begin-sized
     records and one wide record must spill across pages, sealing each full
     page with a forced write. *)
  let wal = Wal.create pool ~page_bytes:64 in
  let rid = { Heap_file.rid_page = 0; rid_slot = 0 } in
  for _ = 1 to 5 do
    Wal.append wal (Wal.Ins { table = 0; rid; tuple = [||] })
  done;
  checkb "spilled to pages" true (Wal.total_pages wal >= 3);
  Wal.append wal (Wal.Ins { table = 0; rid; tuple = Array.make 20 7 });
  checkb "wide record takes multiple pages" true (Wal.total_pages wal >= 5);
  checkb "tail pinned" true
    (match Wal.page_gids wal with
    | gid :: _ -> Buffer_pool.pinned pool gid
    | [] -> false)

(* ------------------------------------------------------------------ *)
(* Protected refresh, judged by [Validate]'s outcome rule against the
   unprotected fault-free refresh of the same world. *)

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Validate.verdict_name v))
    ( = )

let reference_of seed =
  let w, batch = world ~seed () in
  let io = Refresh.total_io (Refresh.run w batch) in
  (io, Validate.reference w)

let base_io, reference = reference_of 21

(* A fresh world refreshed once under [plan]. *)
let trial ?(reference = reference) plan =
  let w, batch = world () in
  (w, Validate.refresh_trial reference ~faults:plan w batch)

let crash () =
  Faults.make [ Faults.Fail_nth { op = Some Faults.Write; n = 25; kind = Faults.Crash } ]

(* A permanent mid-batch fault: the normal path cannot complete, so the
   refresh falls back to bases-only application plus view recomputation.
   (Fail_nth is consumed by op count, so the degraded pass — whose armed-op
   counter has moved past n — completes.) *)
let degrade () =
  Faults.make [ Faults.Fail_nth { op = None; n = 120; kind = Faults.Permanent } ]

(* Every write fails permanently: the normal path dies, degradation dies
   too, and the warehouse must come back exactly as it started. *)
let media () =
  Faults.make
    [ Faults.Fail_prob { op = Some Faults.Write; p = 1.0; kind = Faults.Permanent } ]

let test_protected_matches_unprotected () =
  let _, t = trial (Faults.none ()) in
  let fs = t.Validate.tr_stats in
  Alcotest.check verdict "bit-identical stored state, integrity intact"
    Validate.Bit_identical t.Validate.tr_verdict;
  (match t.Validate.tr_result with
  | Ok (r, _) -> checki "trial io is the refresh's" (Refresh.total_io r) t.Validate.tr_io
  | Error _ -> Alcotest.fail "fault-free protected refresh failed");
  checkb "no attempts wasted" true (fs.Refresh.fs_attempts = 1);
  checkb "nothing injected" true (fs.Refresh.fs_injected = 0);
  checkb "not degraded" true (not fs.Refresh.fs_degraded);
  checkb "WAL records were written" true (fs.Refresh.fs_wal_records > 0);
  (* The protected run costs extra I/O only for the log itself. *)
  let prot = t.Validate.tr_io in
  checkb
    (Printf.sprintf "WAL overhead <= 10%% (unprotected %d, protected %d)" base_io
       prot)
    true
    (float_of_int prot <= 1.10 *. float_of_int base_io)

(* ------------------------------------------------------------------ *)
(* Rollback and retry. *)

let test_crash_retry_bit_identical () =
  (* One-shot crash on the 25th armed write: first attempt dies mid-batch,
     recovery rolls back, the retry sails through (the fault is spent). *)
  let _, t = trial (crash ()) in
  let fs = t.Validate.tr_stats in
  checki "two attempts" 2 fs.Refresh.fs_attempts;
  checki "one rollback" 1 fs.Refresh.fs_rollbacks;
  checkb "records were undone" true (fs.Refresh.fs_undone > 0);
  checkb "not degraded" true (not fs.Refresh.fs_degraded);
  Alcotest.check verdict "recovered state bit-identical to fault-free refresh"
    Validate.Bit_identical t.Validate.tr_verdict

(* One-shot crashes on four consecutive writes: the first attempt dies
   late in the batch, with logged updates to undo, and the retry and both
   degraded attempts die on their first write. *)
let crashes () =
  Faults.make
    (List.init 4 (fun i ->
         Faults.Fail_nth { op = Some Faults.Write; n = 80 + i; kind = Faults.Crash }))

let test_rollback_restores_prebatch () =
  List.iter
    (fun (plan, kind) ->
      let _, t = trial plan in
      (match t.Validate.tr_result with
      | Ok _ -> Alcotest.fail "expected the batch to fail"
      | Error e ->
          checkb "fault reported with its kind" true
            (e.Refresh.err_fault.Faults.f_kind = kind);
          checkb "rolled back every attempt" true
            (e.Refresh.err_stats.Refresh.fs_rollbacks >= 2));
      Alcotest.check verdict "pre-batch state restored bit-for-bit"
        Validate.Rolled_back t.Validate.tr_verdict)
    [ (media (), Faults.Permanent); (crashes (), Faults.Crash) ]

let test_transient_retries_in_place () =
  let _, t =
    trial
      (Faults.make
         [ Faults.Fail_nth { op = Some Faults.Write; n = 10; kind = Faults.Transient } ])
  in
  let fs = t.Validate.tr_stats in
  checki "transient never aborts the batch" 1 fs.Refresh.fs_attempts;
  checkb "the page operation retried" true (fs.Refresh.fs_retries >= 1);
  checkb "backoff time charged" true (fs.Refresh.fs_backoff_ms > 0.0);
  checki "nothing surfaced" 0 fs.Refresh.fs_injected;
  Alcotest.check verdict "state bit-identical to fault-free refresh"
    Validate.Bit_identical t.Validate.tr_verdict

(* ------------------------------------------------------------------ *)
(* Graceful degradation. *)

let test_degradation_recomputes_views () =
  let w, t = trial (degrade ()) in
  let fs = t.Validate.tr_stats in
  checkb "degraded" true fs.Refresh.fs_degraded;
  checkb "views were recomputed" true (fs.Refresh.fs_recomputed_rows > 0);
  Alcotest.check verdict "logically identical to the fault-free refresh"
    Validate.Logically_exact t.Validate.tr_verdict;
  (* Physically the recomputed views differ — that is the point. *)
  checkb "physically a different layout" true
    (Warehouse.signature w <> reference.Validate.rf_physical)

(* A reference the refresh did not produce is convicted as the matching
   mismatch; a rolled-back batch is judged against its own pre-batch
   state, never the reference; a failed stream needs integrity only. *)
let test_trial_mismatches () =
  let _, wrong = reference_of 22 in
  let judged plan = (snd (trial ~reference:wrong plan)).Validate.tr_verdict in
  Alcotest.check verdict "completed" Validate.State_mismatch (judged (crash ()));
  Alcotest.check verdict "degraded" Validate.Degraded_mismatch
    (judged (degrade ()));
  Alcotest.check verdict "rolled back" Validate.Rolled_back (judged (media ()));
  let w, batch = world () in
  Alcotest.check verdict "failed stream" Validate.Failed_intact
    (Validate.stream_trial wrong ~faults:(media ()) w
       (Validate.split_batch 4 batch))
      .Validate.tr_verdict

(* ------------------------------------------------------------------ *)
(* Group commit. *)

let ok3_exn = function
  | Ok v -> v
  | Error (e : Refresh.error) ->
      Alcotest.failf "group refresh failed: %a" Faults.pp_fault
        e.Refresh.err_fault

(* Grouping four deferred commits under one sync quarters the durability
   barriers and leaves the stored state bit-identical to per-batch forcing;
   the price is commit latency, which the stats must surface. *)
let test_group_commit_fewer_syncs () =
  let w1, b1 = world () in
  let w2, b2 = world () in
  let batches1 = Validate.split_batch 8 b1 and batches2 = Validate.split_batch 8 b2 in
  let per_batch = { Refresh.gp_max_group = 1; gp_window_ms = 1e9 } in
  let grouped = { Refresh.gp_max_group = 4; gp_window_ms = 1e9 } in
  let r1, _, g1 = ok3_exn (Refresh.run_protected_many ~policy:per_batch w1 batches1) in
  let r2, _, g2 = ok3_exn (Refresh.run_protected_many ~policy:grouped w2 batches2) in
  checki "per-batch forcing: one sync per batch" 8 r1.Refresh.rp_wal_syncs;
  checki "group commit: one sync per group" 2 r2.Refresh.rp_wal_syncs;
  checki "group syncs counted" 2 g2.Refresh.gr_group_syncs;
  checki "largest group is the cap" 4 g2.Refresh.gr_max_group;
  checki "degenerate groups are singletons" 1 g1.Refresh.gr_max_group;
  checki "no replays without faults" 0 g2.Refresh.gr_replayed;
  checks "bit-identical stored state" (Warehouse.signature w1)
    (Warehouse.signature w2);
  (* Deferred commits wait for their group's sync: total latency must be
     strictly positive, while per-batch forcing commits at arrival. *)
  checkb "grouping trades latency for syncs" true
    (g2.Refresh.gr_latency_ms_total > g1.Refresh.gr_latency_ms_total);
  checkb "clock advanced one slot per batch" true
    (g2.Refresh.gr_clock_ms = 80.);
  match Warehouse.integrity_check w2 with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* The window bound fires a sync when the oldest pending commit has waited
   long enough, even with the size cap far away: arrivals every 10ms and a
   25ms window close groups of three. *)
let test_group_window_forces_sync () =
  let w, batch = world () in
  let batches = Validate.split_batch 8 batch in
  let policy = { Refresh.gp_max_group = 100; gp_window_ms = 25. } in
  let _, _, g = ok3_exn (Refresh.run_protected_many ~policy w batches) in
  checki "window closes groups of three (plus stream tail)" 3
    g.Refresh.gr_group_syncs;
  checki "window-bounded group size" 3 g.Refresh.gr_max_group

(* A crash while a group is open rolls back every non-durable batch and
   replays them individually; the end state is bit-identical to a
   fault-free run of the same stream. *)
let test_group_crash_replays_bit_identical () =
  let w_ref, batch_ref = world () in
  ignore (ok3_exn (Refresh.run_protected_many w_ref (Validate.split_batch 8 batch_ref)));
  let w, batch = world () in
  let t =
    Validate.stream_trial (Validate.reference w_ref) ~faults:(crash ()) w
      (Validate.split_batch 8 batch)
  in
  let _, fs, g = ok3_exn t.Validate.tr_result in
  checkb "the crash surfaced once" true (fs.Refresh.fs_injected = 1);
  checkb "cross-batch rollback ran" true (fs.Refresh.fs_rollbacks >= 1);
  checkb "rolled-back batches replayed individually" true
    (g.Refresh.gr_replayed >= 1);
  Alcotest.check verdict "recovered state bit-identical to the fault-free stream"
    Validate.Bit_identical t.Validate.tr_verdict

(* The group scheduler runs on a simulated clock, so a seeded fault plan
   replays the whole stream bit-identically. *)
let test_group_commit_deterministic () =
  (* Judged against the single-batch reference: only repeatability counts. *)
  let outcome () =
    let w, batch = world () in
    let plan = Faults.random ~rng:(Random.State.make [| 42; 7 |]) () in
    let t = Validate.stream_trial reference ~faults:plan w (Validate.split_batch 6 batch) in
    (Warehouse.signature w, t)
  in
  checkb "same plan, same stream, same outcome" true (outcome () = outcome ())

(* ------------------------------------------------------------------ *)
(* Determinism. *)

(* The whole trial — result, fault statistics, I/O, verdict — and the
   stored state replay exactly under the same seeded plan. *)
let test_fault_plans_deterministic () =
  let outcome () =
    let w, t = trial (Faults.random ~rng:(Random.State.make [| 42; 7 |]) ()) in
    (Warehouse.signature w, t)
  in
  checkb "same plan, same outcome, same state" true (outcome () = outcome ())

let () =
  Alcotest.run "vis_recovery"
    [
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "page spill" `Quick test_wal_page_spill;
        ] );
      ( "protected refresh",
        [
          Alcotest.test_case "fault-free bit-identity + overhead" `Quick
            test_protected_matches_unprotected;
          Alcotest.test_case "crash retry" `Quick test_crash_retry_bit_identical;
          Alcotest.test_case "permanent failure rolls back" `Quick
            test_rollback_restores_prebatch;
          Alcotest.test_case "transient retries in place" `Quick
            test_transient_retries_in_place;
          Alcotest.test_case "degradation recomputes views" `Quick
            test_degradation_recomputes_views;
          Alcotest.test_case "deterministic plans" `Quick
            test_fault_plans_deterministic;
          Alcotest.test_case "mismatches convicted" `Quick
            test_trial_mismatches;
        ] );
      ( "group commit",
        [
          Alcotest.test_case "fewer syncs, same state" `Quick
            test_group_commit_fewer_syncs;
          Alcotest.test_case "window forces sync" `Quick
            test_group_window_forces_sync;
          Alcotest.test_case "crash replays bit-identical" `Quick
            test_group_crash_replays_bit_identical;
          Alcotest.test_case "deterministic stream" `Quick
            test_group_commit_deterministic;
        ] );
    ]
