(* Tests for the corruption-detection and self-healing subsystem: fault-plan
   schedule edge cases (non-positive [n], probability bounds, overlapping
   schedules, corruption determinism), buffer-pool checksum sealing and
   verification (detect on miss, reseal on flush/eviction/write-back, pin
   exhaustion), WAL record CRCs (torn-tail truncation vs mid-log corruption),
   the warehouse scrub/quarantine/rebuild pipeline, and the binaries'
   argument validation. *)

module Bitset = Vis_util.Bitset
module Schema = Vis_catalog.Schema
module Config = Vis_costmodel.Config
module Element = Vis_costmodel.Element
module Reldesc = Vis_relalg.Reldesc
module Table = Vis_relalg.Table
module Datagen = Vis_workload.Datagen
module Warehouse = Vis_maintenance.Warehouse
module Validate = Vis_maintenance.Validate
module Iostats = Vis_storage.Iostats
module Buffer_pool = Vis_storage.Buffer_pool
module Heap_file = Vis_storage.Heap_file
module Btree = Vis_storage.Btree
module Checksum = Vis_storage.Checksum
module Faults = Vis_storage.Faults
module Scrub = Vis_storage.Scrub
module Wal = Vis_storage.Wal

let checkb = Alcotest.(check bool)

let checki = Alcotest.(check int)

let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Fault-plan schedule edge cases.  These pin the behavior documented in
   faults.mli's "Schedule edge cases and precedence" section. *)

let armed schedules =
  let plan = Faults.make schedules in
  Faults.arm plan;
  plan

let test_nth_nonpositive () =
  (* Hit counters are 1-based, so n <= 0 can never match. *)
  let plan =
    armed
      [
        Faults.Fail_nth { op = None; n = 0; kind = Faults.Crash };
        Faults.Fail_nth { op = Some Faults.Write; n = -3; kind = Faults.Permanent };
      ]
  in
  for i = 1 to 50 do
    Faults.check plan Faults.Read ~page:i;
    Faults.check plan Faults.Write ~page:i
  done;
  checki "nothing injected" 0 (Faults.injected plan);
  (* Same for corruption counters. *)
  let plan =
    armed [ Faults.Corrupt_nth { op = None; n = 0; way = Faults.Bit_flip } ]
  in
  for i = 1 to 50 do
    checkb "no damage" true (Faults.damage plan Faults.Write ~page:i = None)
  done

let test_prob_zero_never_fires () =
  let plan =
    armed [ Faults.Fail_prob { op = None; p = 0.0; kind = Faults.Crash } ]
  in
  for i = 1 to 200 do
    Faults.check plan Faults.Read ~page:i
  done;
  checki "p = 0.0 never injects" 0 (Faults.injected plan)

let test_prob_one_always_fires () =
  (* p = 1.0 under Crash: fires on the very first operation, then the crash
     slot is spent and subsequent operations pass. *)
  let plan =
    armed [ Faults.Fail_prob { op = None; p = 1.0; kind = Faults.Crash } ]
  in
  (match Faults.check plan Faults.Write ~page:9 with
  | () -> Alcotest.fail "p = 1.0 crash did not fire"
  | exception Faults.Injected f ->
      checks "crash kind" "crash" (Faults.kind_name f.Faults.f_kind);
      checki "at the faulted page" 9 f.Faults.f_page);
  Faults.check plan Faults.Write ~page:9;
  checki "crash spent after firing" 1 (Faults.injected plan);
  (* p = 1.0 under Transient: every in-place retry fails too, so the fault
     escalates after exactly the policy's retry budget. *)
  let plan =
    armed [ Faults.Fail_prob { op = None; p = 1.0; kind = Faults.Transient } ]
  in
  (match Faults.check plan Faults.Read ~page:3 with
  | () -> Alcotest.fail "p = 1.0 transient did not escalate"
  | exception Faults.Injected f ->
      checks "transient kind" "transient" (Faults.kind_name f.Faults.f_kind);
      checki "retry budget exhausted" Faults.default_policy.Faults.max_retries
        f.Faults.f_retries);
  checki "retries tallied" Faults.default_policy.Faults.max_retries
    (Faults.retries plan);
  checkb "backoff delays charged" true (Faults.elapsed_ms plan > 0.)

let test_overlap_most_severe_wins () =
  (* A Transient and a Crash both firing on the same operation: the more
     severe Crash surfaces (no transient retry loop runs first). *)
  let plan =
    armed
      [
        Faults.Fail_nth { op = None; n = 1; kind = Faults.Transient };
        Faults.Fail_page { op = None; page = 7; kind = Faults.Crash };
      ]
  in
  (match Faults.check plan Faults.Write ~page:7 with
  | () -> Alcotest.fail "overlapping schedules did not fire"
  | exception Faults.Injected f ->
      checks "crash shadows transient" "crash" (Faults.kind_name f.Faults.f_kind);
      checki "no retries spent on the shadowed transient" 0 f.Faults.f_retries);
  (* Both slots are consumed: the nth no longer matches, the crash is
     spent. *)
  Faults.check plan Faults.Write ~page:7;
  checki "one injection total" 1 (Faults.injected plan)

let test_overlap_spends_shadowed_crash () =
  (* A Permanent shadowing a firing Crash still spends the crash, so the
     crash does not resurface once the permanent slot stops matching. *)
  let plan =
    armed
      [
        Faults.Fail_nth { op = None; n = 1; kind = Faults.Permanent };
        Faults.Fail_page { op = None; page = 3; kind = Faults.Crash };
      ]
  in
  (match Faults.check plan Faults.Write ~page:3 with
  | () -> Alcotest.fail "overlap did not fire"
  | exception Faults.Injected f ->
      checks "permanent wins" "permanent" (Faults.kind_name f.Faults.f_kind));
  (* Operation 2 on page 3: the nth slot no longer matches and the page
     slot's crash was spent while shadowed. *)
  Faults.check plan Faults.Write ~page:3;
  checki "shadowed crash never resurfaces" 1 (Faults.injected plan);
  (* Tied severity goes to the earliest slot, and the later slot that also
     fired is spent all the same. *)
  let plan =
    armed
      [
        Faults.Fail_nth { op = None; n = 1; kind = Faults.Crash };
        Faults.Fail_page { op = None; page = 3; kind = Faults.Crash };
      ]
  in
  (match Faults.check plan Faults.Write ~page:3 with
  | () -> Alcotest.fail "tied overlap did not fire"
  | exception Faults.Injected _ -> ());
  Faults.check plan Faults.Write ~page:3;
  checki "both tied crash slots spent" 1 (Faults.injected plan)

let test_torn_subsumes_flip () =
  (* Both corruption kinds firing on one write: the torn write wins and
     every firing corruption slot is spent. *)
  let plan =
    armed
      [
        Faults.Corrupt_nth { op = None; n = 1; way = Faults.Bit_flip };
        Faults.Corrupt_nth { op = None; n = 1; way = Faults.Torn_write };
      ]
  in
  (match Faults.damage plan Faults.Write ~page:5 with
  | Some (Faults.Torn_write, _) -> ()
  | Some (Faults.Bit_flip, _) -> Alcotest.fail "bit flip should be subsumed"
  | None -> Alcotest.fail "corruption did not fire");
  checkb "both slots spent" true (Faults.damage plan Faults.Write ~page:5 = None)

let test_corruption_determinism () =
  (* Identical plans polled by identical operation sequences damage the same
     operations with the same selectors. *)
  let mk () =
    armed [ Faults.Corrupt_prob { op = None; p = 0.4; way = Faults.Bit_flip } ]
  in
  let run plan =
    List.init 40 (fun i -> Faults.damage plan Faults.Write ~page:(i mod 7))
  in
  checkb "corrupt_prob replays" true (run (mk ()) = run (mk ()));
  (* random_damage: pure in the rng, distinct picks inside the target
     range, at most n of them. *)
  let draw () =
    Faults.random_damage ~n:3 ~rng:(Random.State.make [| 11; 17 |]) ~targets:9 ()
  in
  let hits = draw () in
  checkb "random_damage replays" true (hits = draw ());
  checkb "at most n hits" true (List.length hits <= 3);
  let picks = List.map (fun (_, pick, _) -> pick) hits in
  checkb "picks in range" true (List.for_all (fun p -> p >= 0 && p < 9) picks);
  checki "picks distinct" (List.length picks)
    (List.length (List.sort_uniq compare picks))

(* ------------------------------------------------------------------ *)
(* Buffer-pool checksum sealing and verification. *)

let fresh_pool ?(capacity = 8) () =
  let stats = Iostats.create () in
  (Buffer_pool.create ~capacity ~stats, stats)

(* A checksum-protected page whose payload the test owns: an int array the
   hooks hash and damage in place, standing in for a structure's page. *)
let protected_payload ?(len = 8) pool =
  let payload = Array.init len (fun i -> (i * 7) + 3) in
  let gid = Buffer_pool.fresh_page pool in
  Buffer_pool.touch pool gid ~dirty:true;
  Buffer_pool.protect pool gid
    {
      Buffer_pool.hk_checksum =
        Some
          (fun () ->
            Checksum.finish (Array.fold_left Checksum.add Checksum.empty payload));
      hk_corrupt =
        (fun _way sel ->
          let i = sel mod len in
          payload.(i) <- payload.(i) lxor 1);
    };
  (gid, payload)

let test_pool_detects_on_miss () =
  let pool, stats = fresh_pool () in
  let gid, _ = protected_payload pool in
  Buffer_pool.flush pool;
  (* At-rest damage leaves the stored seal stale; the next miss-read
     verification convicts the page. *)
  Buffer_pool.corrupt_page pool gid Faults.Bit_flip 2;
  Alcotest.check_raises "read-path verification convicts"
    (Buffer_pool.Corruption gid) (fun () ->
      Buffer_pool.touch pool gid ~dirty:false);
  checki "failure counted" 1 (Iostats.checksum_failures stats);
  checkb "page quarantined" true (Buffer_pool.quarantined pool gid);
  checkb "verify probe agrees without raising" false (Buffer_pool.verify pool gid)

let test_pool_reseal_on_flush () =
  let pool, stats = fresh_pool () in
  let gid, payload = protected_payload pool in
  Buffer_pool.flush pool;
  (* A legitimate write mutates the payload and dirties the page; the flush
     write-out reseals, so the changed payload verifies clean. *)
  Buffer_pool.touch pool gid ~dirty:true;
  payload.(0) <- 999;
  Buffer_pool.flush pool;
  Buffer_pool.touch pool gid ~dirty:false;
  checkb "resealed payload verifies" true (Buffer_pool.verify pool gid);
  checkb "verifications counted" true (Iostats.checksum_verifications stats >= 1);
  checki "no failures" 0 (Iostats.checksum_failures stats)

let test_pool_reseal_on_dirty_eviction () =
  let pool, stats = fresh_pool ~capacity:4 () in
  let gid, payload = protected_payload pool in
  payload.(1) <- 4242;
  (* Capacity pressure evicts the dirty protected page: the write-back must
     reseal it, or the next read would convict a legitimate write. *)
  for _ = 1 to 5 do
    Buffer_pool.touch pool (Buffer_pool.fresh_page pool) ~dirty:false
  done;
  checkb "dirty page evicted under pressure" false (Buffer_pool.resident pool gid);
  checkb "eviction wrote it back" true (Iostats.writes stats >= 1);
  Buffer_pool.touch pool gid ~dirty:false;
  checkb "eviction resealed the modified payload" true (Buffer_pool.verify pool gid);
  checki "no failures" 0 (Iostats.checksum_failures stats)

(* A B+-tree node's seal changes on every single injection: a bit flip or
   a torn write, on a leaf's entries or an inner node's separators, at each
   size from empty to 16 entries.  [sel] runs over lcm(62, 3n) * 62 values,
   which covers every (sel mod 62, entry field, entry bit) combination a
   selector picks — the pairing under which a damage mask folded into the
   hash chain once cancelled an entry flip at the same bit. *)
let test_btree_node_seal_catches_every_injection () =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let node ~inner n =
    Array.init n (fun i ->
        if inner then
          ((i * 1_000_003) - 5_000, { Heap_file.rid_page = 40 + i; rid_slot = i mod 3 })
        else (i / 3, { Heap_file.rid_page = i / 4; rid_slot = i mod 4 }))
  in
  List.iter
    (fun inner ->
      for n = 0 to 16 do
        let orig = node ~inner n in
        let span = if n = 0 then 62 else 62 * 3 * n / gcd 62 (3 * n) * 62 in
        List.iter
          (fun way ->
            let missed = ref 0 in
            for sel = 0 to span - 1 do
              let cur = ref orig in
              let hk = Btree.node_hooks ~get:(fun () -> !cur) ~set:(fun e -> cur := e) in
              let seal = Option.get hk.Buffer_pool.hk_checksum in
              let before = seal () in
              hk.Buffer_pool.hk_corrupt way sel;
              if seal () = before then incr missed
            done;
            checki
              (Printf.sprintf "%s node, %d entries, %s: injections the seal missed"
                 (if inner then "inner" else "leaf")
                 n
                 (if way = Faults.Bit_flip then "bit flip" else "torn write"))
              0 !missed)
          [ Faults.Bit_flip; Faults.Torn_write ]
      done)
    [ false; true ]

let test_pool_pin_exhaustion_keeps_seals () =
  let pool, stats = fresh_pool ~capacity:2 () in
  let gid, payload = protected_payload pool in
  Buffer_pool.pin pool gid;
  let b = Buffer_pool.fresh_page pool and c = Buffer_pool.fresh_page pool in
  Buffer_pool.pin pool b;
  (* Every frame pinned: the third pin must overflow-admit, not evict a
     pinned frame and not loop. *)
  Buffer_pool.pin pool c;
  checkb "overflow admission counted" true (Iostats.pool_overflows stats >= 1);
  checki "no evictions of pinned frames" 0 (Iostats.pool_evictions stats);
  checkb "all three resident" true
    (Buffer_pool.resident pool gid && Buffer_pool.resident pool b
    && Buffer_pool.resident pool c);
  (* The protected page rode through the overflow path dirty; orderly
     shutdown reseals it (pins notwithstanding) and it verifies clean. *)
  payload.(2) <- 77;
  Buffer_pool.touch pool gid ~dirty:true;
  Buffer_pool.unpin pool gid;
  Buffer_pool.unpin pool b;
  Buffer_pool.unpin pool c;
  Buffer_pool.flush pool;
  Buffer_pool.touch pool gid ~dirty:false;
  checkb "seal survived pin exhaustion" true (Buffer_pool.verify pool gid);
  checki "no failures" 0 (Iostats.checksum_failures stats)

(* ------------------------------------------------------------------ *)
(* WAL record CRCs: torn tails truncate, mid-log corruption is typed. *)

let small_wal () =
  let pool, _ = fresh_pool () in
  let wal = Wal.create pool ~page_bytes:128 in
  Wal.append wal Wal.Begin;
  for i = 1 to 3 do
    Wal.append wal
      (Wal.Ins
         {
           table = 0;
           rid = { Heap_file.rid_page = 0; rid_slot = i };
           tuple = [| i; i * 10 |];
         })
  done;
  wal

let test_wal_torn_tail_truncates () =
  let wal = small_wal () in
  checkb "starts clean" true (Wal.verify_scan wal = Wal.Clean);
  let torn = Wal.tear_tail wal ~keep:2 in
  checki "two records torn" 2 torn;
  (match Wal.verify_scan wal with
  | Wal.Torn { first_seq; torn = t } ->
      checki "tear starts after the kept prefix" 3 first_seq;
      checki "scan counts the torn suffix" 2 t
  | Wal.Clean -> Alcotest.fail "tear not detected"
  | Wal.Corrupt _ -> Alcotest.fail "tear misclassified as mid-log corruption");
  checki "truncation drops exactly the torn suffix" 2 (Wal.truncate_torn wal);
  checki "kept prefix survives" 2 (Wal.n_records wal);
  checkb "clean after truncation" true (Wal.verify_scan wal = Wal.Clean)

let test_wal_tear_into_durable_is_corrupt () =
  (* A tear reaching records at or before the last durable commit is not a
     recoverable tail — those records were acknowledged. *)
  let pool, _ = fresh_pool () in
  let wal = Wal.create pool ~page_bytes:128 in
  Wal.append wal Wal.Begin;
  Wal.append wal
    (Wal.Ins
       { table = 0; rid = { Heap_file.rid_page = 0; rid_slot = 1 }; tuple = [| 1 |] });
  Wal.append wal Wal.Commit;
  Wal.sync wal;
  Wal.append wal Wal.Begin;
  Wal.append wal
    (Wal.Ins
       { table = 0; rid = { Heap_file.rid_page = 0; rid_slot = 2 }; tuple = [| 2 |] });
  (match Wal.tear_tail wal ~keep:1 with
  | 4 -> ()
  | n -> Alcotest.failf "expected 4 torn records, got %d" n);
  match Wal.verify_scan wal with
  | Wal.Corrupt { seq } -> checki "first damaged durable record named" 2 seq
  | Wal.Clean | Wal.Torn _ ->
      Alcotest.fail "tear into durable history must classify as corrupt"

let test_wal_crc_corruption_is_typed () =
  let wal = small_wal () in
  checkb "target record exists" true (Wal.corrupt_record wal ~seq:3);
  (match Wal.verify_scan wal with
  | Wal.Corrupt { seq } -> checki "offending record named" 3 seq
  | Wal.Clean -> Alcotest.fail "CRC mismatch not detected"
  | Wal.Torn _ -> Alcotest.fail "CRC mismatch misclassified as torn tail");
  checkb "absent seq reports false" false (Wal.corrupt_record wal ~seq:99)

(* ------------------------------------------------------------------ *)
(* Warehouse-level recovery and scrub.  Same design as test_recovery: a
   supporting view plus an index on the primary view. *)

let schema = Vis_workload.Schemas.validation ()

let config () =
  let st = Bitset.of_list [ 1; 2 ] in
  let ix =
    {
      Element.ix_elem = Element.View (Schema.all_relations schema);
      ix_attr = { Element.a_rel = 2; a_name = "T0" };
    }
  in
  Config.make ~views:[ st ] ~indexes:[ ix ]

let world ?(seed = 33) ?(checksums = false) () =
  fst (Validate.world ~checksums ~seed schema (config ()))

let insert_some w n =
  let tbl = (Warehouse.durable_tables w).(0) in
  let arity = Reldesc.arity (Table.desc tbl) in
  Warehouse.begin_batch w;
  for i = 1 to n do
    ignore (Warehouse.logged_insert w tbl (Array.make arity (9_000 + i)))
  done

let test_recover_truncates_torn_tail () =
  let w = world () in
  let pre = Warehouse.signature w in
  insert_some w 4;
  checki "batch torn mid-flight" 4 (Wal.tear_tail w.Warehouse.w_wal ~keep:1);
  (match Wal.verify_scan w.Warehouse.w_wal with
  | Wal.Torn _ -> ()
  | _ -> Alcotest.fail "expected a torn tail");
  checki "recovery undid the batch" 4 (Warehouse.recover w);
  checks "pre-batch state restored bit-for-bit" pre (Warehouse.signature w);
  checkb "log checkpointed clean" true
    (Wal.verify_scan w.Warehouse.w_wal = Wal.Clean && Wal.n_records w.Warehouse.w_wal = 0)

let test_recover_stops_on_midlog_corruption () =
  let w = world () in
  insert_some w 4;
  let wal = w.Warehouse.w_wal in
  (* Lifetime sequence of the current log's third record (Begin, Ins, Ins…). *)
  let seq = Wal.total_records wal - Wal.n_records wal + 3 in
  checkb "record corrupted" true (Wal.corrupt_record wal ~seq);
  Alcotest.check_raises "recovery refuses with the offending record"
    (Wal.Corrupt_record seq) (fun () -> ignore (Warehouse.recover w))

let first_view_heap_gid w =
  let _, vt = List.hd w.Warehouse.w_views in
  Heap_file.page_gid (Table.heap vt) 0

let primary_index_gid w =
  let _, vt = List.nth w.Warehouse.w_views (List.length w.Warehouse.w_views - 1) in
  match Table.indexes vt with
  | (_, bt) :: _ -> List.hd (Btree.page_gids bt)
  | [] -> Alcotest.fail "primary view should carry the configured index"

let test_scrub_clean_world () =
  let w = world ~checksums:true () in
  let r = Warehouse.scrub w in
  checkb "pages probed" true (r.Warehouse.sc_scanned > 0);
  checki "nothing convicted" 0 r.Warehouse.sc_corrupt;
  checki "no view rebuilds" 0 r.Warehouse.sc_views_rebuilt;
  checki "no index rebuilds" 0 r.Warehouse.sc_indexes_rebuilt;
  checkb "nothing unrecoverable" true (r.Warehouse.sc_unrecoverable = [])

let test_scrub_rebuilds_view () =
  let w = world ~checksums:true () in
  let logical = Warehouse.logical_signature w in
  Buffer_pool.corrupt_page w.Warehouse.w_pool (first_view_heap_gid w)
    Faults.Bit_flip 5;
  let r = Warehouse.scrub w in
  checki "one page convicted" 1 r.Warehouse.sc_corrupt;
  checki "one view rebuilt" 1 r.Warehouse.sc_views_rebuilt;
  checkb "nothing unrecoverable" true (r.Warehouse.sc_unrecoverable = []);
  checks "logical contents restored" logical (Warehouse.logical_signature w);
  (match Warehouse.integrity_check w with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "integrity after repair: %s" msg);
  (* The canonical rebuild is reproducible: a pristine world performing the
     same rebuild reaches the identical physical state. *)
  let w_ref = world ~checksums:true () in
  let set, _ = List.hd w_ref.Warehouse.w_views in
  ignore (Warehouse.rebuild_view w_ref set);
  checks "rebuild is canonical bit-for-bit" (Warehouse.signature w_ref)
    (Warehouse.signature w)

let test_scrub_rebuilds_index () =
  let w = world ~checksums:true () in
  let logical = Warehouse.logical_signature w in
  Buffer_pool.corrupt_page w.Warehouse.w_pool (primary_index_gid w)
    Faults.Torn_write 9;
  let r = Warehouse.scrub w in
  checki "one page convicted" 1 r.Warehouse.sc_corrupt;
  checki "no view rebuild needed" 0 r.Warehouse.sc_views_rebuilt;
  checki "index rebuilt from its heap" 1 r.Warehouse.sc_indexes_rebuilt;
  checks "logical contents untouched" logical (Warehouse.logical_signature w);
  match Warehouse.integrity_check w with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "integrity after index rebuild: %s" msg

let test_scrub_base_damage_unrecoverable () =
  let w = world ~checksums:true () in
  let gid = Heap_file.page_gid (Table.heap w.Warehouse.w_bases.(0)) 0 in
  Buffer_pool.corrupt_page w.Warehouse.w_pool gid Faults.Bit_flip 1;
  Alcotest.check_raises "base damage raises by default"
    (Warehouse.Unrecoverable { u_gid = gid; u_table = 0 }) (fun () ->
      ignore (Warehouse.scrub w));
  (* The daemon path reports instead of raising. *)
  let w = world ~checksums:true () in
  let gid = Heap_file.page_gid (Table.heap w.Warehouse.w_bases.(0)) 0 in
  Buffer_pool.corrupt_page w.Warehouse.w_pool gid Faults.Bit_flip 1;
  let r = Warehouse.scrub ~fail_unrecoverable:false w in
  checkb "reported as unrecoverable" true
    (r.Warehouse.sc_unrecoverable = [ (gid, 0) ]);
  checkb "page stays quarantined" true (Buffer_pool.quarantined w.Warehouse.w_pool gid)

let test_validate_scrub_cycle () =
  let r = Validate.scrub_cycle ~seed:7 ~damage:2 schema (config ()) in
  checkb "something injected" true (r.Validate.sk_injected > 0);
  checki "every injection convicted" r.Validate.sk_injected
    r.Validate.sk_report.Warehouse.sc_corrupt;
  checkb "views exact after repair" true r.Validate.sk_views_ok;
  checkb "indexes sound after repair" true r.Validate.sk_integrity_ok

(* ------------------------------------------------------------------ *)
(* Binary argument validation: bad flag values exit 2 with a message, before
   any work runs.  The binaries sit next to the test executable's parent
   directory in the build tree (declared as deps in test/dune), so resolve
   them relative to [Sys.executable_name] rather than the cwd. *)

let bin name =
  Filename.concat
    (Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin")
    name

let exits_2 name cmd =
  checki name 2 (Sys.command (cmd ^ " >/dev/null 2>&1"))

let test_cli_validation () =
  let advisor = bin "visadvisor.exe" in
  let serve = bin "visserve.exe" in
  let fuzz = bin "visfuzz.exe" in
  exits_2 "visadvisor --jobs 0" (advisor ^ " optimize --jobs 0");
  exits_2 "visadvisor --minsup out of range" (advisor ^ " optimize --minsup 1.5");
  exits_2 "visadvisor --beam 0" (advisor ^ " optimize --beam 0");
  exits_2 "visadvisor --beam negative" (advisor ^ " optimize --beam=-1");
  exits_2 "visadvisor --cap-views 0" (advisor ^ " optimize --cap-views 0");
  exits_2 "visadvisor --cap-views negative" (advisor ^ " optimize --cap-views=-2");
  exits_2 "visadvisor --budget negative" (advisor ^ " optimize --budget=-5");
  exits_2 "visadvisor validate --damage 0" (advisor ^ " validate --scrub --damage 0");
  exits_2 "visserve --ticks 0" (serve ^ " --ticks 0");
  exits_2 "visserve --tenants 0" (serve ^ " --tenants 0");
  exits_2 "visserve --scrub-every negative" (serve ^ " --scrub-every=-1");
  exits_2 "visserve --rate negative" (serve ^ " --rate=-1");
  exits_2 "visserve --base-card 0" (serve ^ " --base-card 0");
  exits_2 "visserve --budget negative" (serve ^ " --budget=-3");
  exits_2 "visserve --warmup negative" (serve ^ " --warmup=-2");
  exits_2 "visserve --fault-nth 0" (serve ^ " --fault-tenant 0 --fault-nth 0");
  exits_2 "visserve --drift-factor negative"
    (serve ^ " --drift-tenant 0 --drift-factor=-2");
  exits_2 "visserve --drift-tenant out of range"
    (serve ^ " --tenants 2 --drift-tenant 7");
  exits_2 "visserve --fault-tenant out of range"
    (serve ^ " --tenants 2 --fault-tenant 7");
  exits_2 "visfuzz --trials 0" (fuzz ^ " --trials 0");
  exits_2 "visfuzz --jobs 0" (fuzz ^ " --jobs 0");
  exits_2 "visfuzz --time-budget negative" (fuzz ^ " --time-budget=-1");
  exits_2 "visfuzz --time-budget 0" (fuzz ^ " --time-budget 0")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "vis_corruption"
    [
      ( "faults-edges",
        [
          Alcotest.test_case "nth non-positive" `Quick test_nth_nonpositive;
          Alcotest.test_case "prob 0.0" `Quick test_prob_zero_never_fires;
          Alcotest.test_case "prob 1.0" `Quick test_prob_one_always_fires;
          Alcotest.test_case "overlap severity" `Quick test_overlap_most_severe_wins;
          Alcotest.test_case "overlap spends shadowed crash" `Quick
            test_overlap_spends_shadowed_crash;
          Alcotest.test_case "torn subsumes flip" `Quick test_torn_subsumes_flip;
          Alcotest.test_case "corruption determinism" `Quick
            test_corruption_determinism;
        ] );
      ( "pool-checksums",
        [
          Alcotest.test_case "detect on miss" `Quick test_pool_detects_on_miss;
          Alcotest.test_case "reseal on flush" `Quick test_pool_reseal_on_flush;
          Alcotest.test_case "reseal on dirty eviction" `Quick
            test_pool_reseal_on_dirty_eviction;
          Alcotest.test_case "pin exhaustion keeps seals" `Quick
            test_pool_pin_exhaustion_keeps_seals;
          Alcotest.test_case "B+-tree node seal catches every injection" `Quick
            test_btree_node_seal_catches_every_injection;
        ] );
      ( "wal-crc",
        [
          Alcotest.test_case "torn tail truncates" `Quick
            test_wal_torn_tail_truncates;
          Alcotest.test_case "tear into durable is corrupt" `Quick
            test_wal_tear_into_durable_is_corrupt;
          Alcotest.test_case "mid-log corruption typed" `Quick
            test_wal_crc_corruption_is_typed;
          Alcotest.test_case "recover truncates torn tail" `Quick
            test_recover_truncates_torn_tail;
          Alcotest.test_case "recover stops on mid-log corruption" `Quick
            test_recover_stops_on_midlog_corruption;
        ] );
      ( "scrub",
        [
          Alcotest.test_case "clean world" `Quick test_scrub_clean_world;
          Alcotest.test_case "rebuilds view" `Quick test_scrub_rebuilds_view;
          Alcotest.test_case "rebuilds index" `Quick test_scrub_rebuilds_index;
          Alcotest.test_case "base damage unrecoverable" `Quick
            test_scrub_base_damage_unrecoverable;
          Alcotest.test_case "validate scrub cycle" `Quick
            test_validate_scrub_cycle;
        ] );
      ( "cli",
        [ Alcotest.test_case "argument validation" `Quick test_cli_validation ] );
    ]
