(* Tests for vis_storage: the LRU buffer pool's I/O accounting, heap files,
   and the B+-tree (unit tests plus randomized comparison against a
   reference model). *)

module Iostats = Vis_storage.Iostats
module Buffer_pool = Vis_storage.Buffer_pool
module Heap_file = Vis_storage.Heap_file
module Btree = Vis_storage.Btree
module Faults = Vis_storage.Faults
module Arena = Vis_storage.Arena
module Checksum = Vis_storage.Checksum

let checkb = Alcotest.(check bool)

let checki = Alcotest.(check int)

let fresh_pool ?(capacity = 8) () =
  let stats = Iostats.create () in
  (Buffer_pool.create ~capacity ~stats, stats)

(* ------------------------------------------------------------------ *)
(* Buffer pool. *)

let test_pool_hits_and_misses () =
  let pool, stats = fresh_pool ~capacity:2 () in
  let a = Buffer_pool.fresh_page pool in
  let b = Buffer_pool.fresh_page pool in
  Buffer_pool.touch pool a ~dirty:false;
  Buffer_pool.touch pool a ~dirty:false;
  checki "one read for two touches" 1 (Iostats.reads stats);
  checki "two accesses" 2 (Iostats.accesses stats);
  Buffer_pool.touch pool b ~dirty:false;
  checki "second page misses" 2 (Iostats.reads stats)

let test_pool_lru_eviction () =
  let pool, stats = fresh_pool ~capacity:2 () in
  let pages = Array.init 3 (fun _ -> Buffer_pool.fresh_page pool) in
  Buffer_pool.touch pool pages.(0) ~dirty:false;
  Buffer_pool.touch pool pages.(1) ~dirty:false;
  (* Re-touch page 0 so page 1 is the LRU victim. *)
  Buffer_pool.touch pool pages.(0) ~dirty:false;
  Buffer_pool.touch pool pages.(2) ~dirty:false;
  checkb "page 1 evicted" false (Buffer_pool.resident pool pages.(1));
  checkb "page 0 kept" true (Buffer_pool.resident pool pages.(0));
  checki "clean evictions write nothing" 0 (Iostats.writes stats)

let test_pool_dirty_writeback () =
  let pool, stats = fresh_pool ~capacity:1 () in
  let a = Buffer_pool.fresh_page pool in
  let b = Buffer_pool.fresh_page pool in
  Buffer_pool.touch pool a ~dirty:true;
  Buffer_pool.touch pool b ~dirty:false;
  checki "dirty eviction writes" 1 (Iostats.writes stats);
  Buffer_pool.touch pool b ~dirty:true;
  Buffer_pool.flush pool;
  checki "flush writes dirty page" 2 (Iostats.writes stats);
  checkb "nothing resident" false (Buffer_pool.resident pool b)

let test_pool_touch_new () =
  let pool, stats = fresh_pool () in
  let a = Buffer_pool.fresh_page pool in
  Buffer_pool.touch_new pool a;
  checki "no read for a fresh page" 0 (Iostats.reads stats);
  Buffer_pool.flush pool;
  checki "but it is written back" 1 (Iostats.writes stats)

let test_pool_discard () =
  let pool, stats = fresh_pool () in
  let a = Buffer_pool.fresh_page pool in
  Buffer_pool.touch pool a ~dirty:true;
  Buffer_pool.discard pool a;
  Buffer_pool.flush pool;
  checki "discarded page not written" 0 (Iostats.writes stats)

(* Pinned pages sit out eviction entirely; when everything is pinned the
   pool grows past capacity rather than evicting. *)
let test_pool_pin_skips_eviction () =
  let pool, stats = fresh_pool ~capacity:2 () in
  let pages = Array.init 3 (fun _ -> Buffer_pool.fresh_page pool) in
  Buffer_pool.pin pool pages.(0);
  Buffer_pool.touch pool pages.(1) ~dirty:false;
  (* pages.(0) is LRU but pinned: the victim must be pages.(1). *)
  Buffer_pool.touch pool pages.(2) ~dirty:false;
  checkb "pinned LRU page survives" true (Buffer_pool.resident pool pages.(0));
  checkb "unpinned page evicted instead" false (Buffer_pool.resident pool pages.(1));
  Buffer_pool.unpin pool pages.(0);
  Buffer_pool.touch pool pages.(1) ~dirty:false;
  checkb "after unpin it can be evicted" false (Buffer_pool.resident pool pages.(0));
  checki "pin counted its miss" 4 (Iostats.reads stats)

let test_pool_all_pinned_overflows () =
  let pool, _ = fresh_pool ~capacity:1 () in
  let a = Buffer_pool.fresh_page pool in
  let b = Buffer_pool.fresh_page pool in
  Buffer_pool.pin pool a;
  Buffer_pool.touch pool b ~dirty:false;
  checkb "pinned page stays" true (Buffer_pool.resident pool a);
  checkb "new page admitted over capacity" true (Buffer_pool.resident pool b)

let test_pool_pin_refcount () =
  let pool, _ = fresh_pool () in
  let a = Buffer_pool.fresh_page pool in
  Buffer_pool.pin pool a;
  Buffer_pool.pin pool a;
  Buffer_pool.unpin pool a;
  checkb "still pinned after one unpin" true (Buffer_pool.pinned pool a);
  Buffer_pool.unpin pool a;
  checkb "fully unpinned" false (Buffer_pool.pinned pool a);
  Alcotest.check_raises "unpin unpinned"
    (Invalid_argument "Buffer_pool.unpin: page not pinned") (fun () ->
      Buffer_pool.unpin pool a);
  Alcotest.check_raises "unpin non-resident"
    (Invalid_argument "Buffer_pool.unpin: page not resident") (fun () ->
      Buffer_pool.unpin pool (Buffer_pool.fresh_page pool))

let test_pool_flush_ignores_pins () =
  let pool, stats = fresh_pool () in
  let a = Buffer_pool.fresh_page pool in
  Buffer_pool.touch_new pool a;
  Buffer_pool.pin pool a;
  Buffer_pool.flush pool;
  checkb "flush evicts even pinned pages" false (Buffer_pool.resident pool a);
  checki "dirty pinned page written" 1 (Iostats.writes stats)

let test_pool_write_back () =
  let pool, stats = fresh_pool () in
  let a = Buffer_pool.fresh_page pool in
  Buffer_pool.touch_new pool a;
  Buffer_pool.write_back pool a;
  checki "forced write counted" 1 (Iostats.writes stats);
  checki "tallied as a WAL write" 1 (Iostats.wal_writes stats);
  Buffer_pool.write_back pool a;
  checki "clean page not rewritten" 1 (Iostats.writes stats);
  Buffer_pool.flush pool;
  checki "flush finds it clean" 1 (Iostats.writes stats)

(* ------------------------------------------------------------------ *)
(* Buffer pool against a reference model. *)

(* The reference: the pool's documented behaviour written the naive way —
   the frames as a list, most recently used first, searched and rebuilt on
   every access.  The side tables (hooks, seals, quarantine, checksum
   bucket pages) are plain hash tables.  Any divergence from the real pool
   in residency order, dirty bits, pins, [Iostats] counters or raised
   exceptions is a bug in one of them. *)
module Ref_pool = struct
  type frame = { page : int; mutable dirty : bool; mutable pins : int }

  type t = {
    cap : int;
    io : Iostats.t;
    plan : Faults.t;
    mutable frames : frame list;
    mutable next_page : int;
    hooks : (int, Buffer_pool.page_hooks) Hashtbl.t;
    sealed : (int, int) Hashtbl.t;
    quarantine : (int, unit) Hashtbl.t;
    cs_pages : (int, int) Hashtbl.t;
  }

  let cs_span = 512

  let create ~capacity ~plan =
    {
      cap = capacity;
      io = Iostats.create ();
      plan;
      frames = [];
      next_page = 0;
      hooks = Hashtbl.create 8;
      sealed = Hashtbl.create 8;
      quarantine = Hashtbl.create 8;
      cs_pages = Hashtbl.create 8;
    }

  let find m page = List.find_opt (fun f -> f.page = page) m.frames

  let remove m f = m.frames <- List.filter (fun g -> g != f) m.frames

  let to_front m f = m.frames <- f :: List.filter (fun g -> g != f) m.frames

  let victim m = List.find_opt (fun f -> f.pins = 0) (List.rev m.frames)

  let fresh_page m =
    Faults.check m.plan Faults.Alloc ~page:m.next_page;
    m.next_page <- m.next_page + 1;
    m.next_page - 1

  let reseal m page =
    match Hashtbl.find_opt m.hooks page with
    | Some { Buffer_pool.hk_checksum = Some cs; _ } ->
        Hashtbl.replace m.sealed page (cs ())
    | _ -> ()

  let wrote m page =
    reseal m page;
    match Faults.damage m.plan Faults.Write ~page with
    | None -> ()
    | Some (way, sel) ->
        (match Hashtbl.find_opt m.hooks page with
        | Some h -> h.Buffer_pool.hk_corrupt way sel
        | None -> ());
        if way = Faults.Torn_write then
          raise
            (Faults.Injected
               {
                 Faults.f_op = Faults.Write;
                 f_kind = Faults.Crash;
                 f_page = page;
                 f_seq = Faults.seq m.plan;
                 f_retries = 0;
               })

  let admit m page ~dirty ~count_read =
    let at_capacity = List.length m.frames >= m.cap in
    let v = if at_capacity then victim m else None in
    (match v with
    | Some f when f.dirty -> Faults.check m.plan Faults.Write ~page:f.page
    | _ -> ());
    if count_read then begin
      Faults.check m.plan Faults.Read ~page;
      Iostats.record_read m.io
    end;
    Iostats.record_pool_miss m.io;
    if at_capacity && v = None then Iostats.record_pool_overflow m.io;
    (match v with
    | Some f ->
        remove m f;
        Iostats.record_pool_eviction m.io;
        if f.dirty then begin
          Iostats.record_write m.io;
          wrote m f.page
        end
    | None -> ());
    m.frames <- { page; dirty; pins = 0 } :: m.frames

  let rec verify_seal m page cs =
    Iostats.record_checksum_verification m.io;
    (match Hashtbl.find_opt m.cs_pages (page / cs_span) with
    | Some g -> if find m g <> None then touch m g ~dirty:false else pin m g
    | None -> ());
    let ok = Hashtbl.find_opt m.sealed page = Some (cs ()) in
    if not ok then begin
      Iostats.record_checksum_failure m.io;
      Hashtbl.replace m.quarantine page ()
    end;
    ok

  and verify_on_read m page =
    if not (Hashtbl.mem m.quarantine page) then
      match Hashtbl.find_opt m.hooks page with
      | Some { Buffer_pool.hk_checksum = Some cs; _ } ->
          if not (verify_seal m page cs) then raise (Buffer_pool.Corruption page)
      | _ -> ()

  and touch m page ~dirty =
    Iostats.record_access m.io;
    match find m page with
    | Some f ->
        Iostats.record_pool_hit m.io;
        to_front m f;
        if dirty then f.dirty <- true
    | None ->
        admit m page ~dirty ~count_read:true;
        verify_on_read m page

  and pin m page =
    let missed = find m page = None in
    if missed then admit m page ~dirty:false ~count_read:true
    else Iostats.record_pool_hit m.io;
    let f = Option.get (find m page) in
    f.pins <- f.pins + 1;
    if missed then verify_on_read m page

  let touch_new m page =
    Iostats.record_access m.io;
    match find m page with
    | Some f ->
        Iostats.record_pool_hit m.io;
        to_front m f;
        f.dirty <- true
    | None -> admit m page ~dirty:true ~count_read:false

  let unpin m page =
    match find m page with
    | Some f when f.pins > 0 -> f.pins <- f.pins - 1
    | Some _ -> invalid_arg "Buffer_pool.unpin: page not pinned"
    | None -> invalid_arg "Buffer_pool.unpin: page not resident"

  let write_back m page =
    match find m page with
    | Some f when f.dirty ->
        Faults.check m.plan Faults.Write ~page;
        Iostats.record_wal_write m.io;
        f.dirty <- false;
        wrote m page
    | _ -> ()

  let discard m page = Option.iter (remove m) (find m page)

  let flush m =
    List.iter
      (fun f ->
        remove m f;
        if f.dirty then begin
          Iostats.record_write m.io;
          reseal m f.page
        end)
      (List.rev m.frames)

  let protect m page hooks =
    Hashtbl.replace m.hooks page hooks;
    Hashtbl.remove m.quarantine page;
    match hooks.Buffer_pool.hk_checksum with
    | Some cs ->
        let bucket = page / cs_span in
        if not (Hashtbl.mem m.cs_pages bucket) then begin
          Hashtbl.add m.cs_pages bucket m.next_page;
          m.next_page <- m.next_page + 1
        end;
        Hashtbl.replace m.sealed page (cs ())
    | None -> ()

  let verify m page =
    if Hashtbl.mem m.quarantine page then false
    else
      match Hashtbl.find_opt m.hooks page with
      | Some { Buffer_pool.hk_checksum = Some cs; _ } -> verify_seal m page cs
      | _ -> true

  let residency m = List.map (fun f -> (f.page, f.dirty, f.pins)) m.frames
end

type pool_op =
  | Fresh
  | Touch of int * bool
  | Touch_new of int
  | Pin of int
  | Unpin of int
  | Discard of int
  | Write_back of int
  | Flush
  | Verify of int

let pp_pool_op = function
  | Fresh -> "fresh_page"
  | Touch (p, d) -> Printf.sprintf "touch %d ~dirty:%b" p d
  | Touch_new p -> Printf.sprintf "touch_new %d" p
  | Pin p -> Printf.sprintf "pin %d" p
  | Unpin p -> Printf.sprintf "unpin %d" p
  | Discard p -> Printf.sprintf "discard %d" p
  | Write_back p -> Printf.sprintf "write_back %d" p
  | Flush -> "flush"
  | Verify p -> Printf.sprintf "verify %d" p

let counters io =
  Iostats.
    [
      reads io; writes io; accesses io; wal_writes io; wal_syncs io;
      pool_hits io; pool_misses io; pool_evictions io; pool_overflows io;
      checksum_verifications io; checksum_failures io;
    ]

(* The plan of trial [seed], built twice so the pool and the model each
   consult an identical copy. *)
let trial_plan seed =
  let rng = Random.State.make [| seed |] in
  match seed mod 4 with
  | 0 -> Faults.none ()
  | 1 -> Faults.random ~rng ()
  | 2 ->
      Faults.make ~seed
        [
          Faults.Fail_prob { op = None; p = 0.04; kind = Faults.Crash };
          Faults.Fail_prob { op = Some Faults.Write; p = 0.05; kind = Faults.Transient };
          Faults.Corrupt_prob { op = Some Faults.Write; p = 0.08; way = Faults.Bit_flip };
        ]
  | _ ->
      Faults.make ~seed
        [
          Faults.Fail_page { op = Some Faults.Read; page = 3; kind = Faults.Permanent };
          Faults.Fail_nth { op = Some Faults.Write; n = 5; kind = Faults.Crash };
          Faults.Corrupt_prob { op = Some Faults.Write; p = 0.05; way = Faults.Torn_write };
          Faults.Corrupt_prob { op = Some Faults.Write; p = 0.05; way = Faults.Bit_flip };
        ]

let n_trial_pages = 12

let random_pool_op rng =
  let page () = Random.State.int rng n_trial_pages in
  match Random.State.int rng 20 with
  | 0 -> Fresh
  | 1 | 2 | 3 | 4 | 5 | 6 -> Touch (page (), Random.State.bool rng)
  | 7 | 8 -> Touch_new (page ())
  | 9 | 10 -> Pin (page ())
  | 11 -> Unpin (page ())
  | 12 | 13 -> Discard (page ())
  | 14 | 15 -> Write_back (page ())
  | 16 -> Flush
  | _ -> Verify (page ())

(* One seeded trial: the same random operation sequence on the pool and the
   model, compared after every step.  Each side owns a payload word per
   page: a dirty touch changes it, the checksum hook reads it and the
   damage hook corrupts it. *)
let pool_differential_trial seed =
  let rng = Random.State.make [| 7919 * seed |] in
  let capacity = 1 + Random.State.int rng 5 in
  let pool_plan = trial_plan seed and model_plan = trial_plan seed in
  let stats = Iostats.create () in
  let pool = Buffer_pool.create ~capacity ~stats in
  Buffer_pool.set_faults pool pool_plan;
  let model = Ref_pool.create ~capacity ~plan:model_plan in
  let hooks payload page =
    {
      Buffer_pool.hk_checksum = Some (fun () -> payload.(page));
      hk_corrupt =
        (fun way sel ->
          payload.(page) <-
            (match way with
            | Faults.Bit_flip -> payload.(page) lxor (1 lsl (sel mod 30))
            | Faults.Torn_write -> -1 - sel));
    }
  in
  let pool_payload = Array.make 64 0 and model_payload = Array.make 64 0 in
  for _ = 1 to n_trial_pages do
    ignore (Buffer_pool.fresh_page pool);
    ignore (Ref_pool.fresh_page model)
  done;
  for p = 0 to n_trial_pages - 1 do
    if p mod 3 <> 2 then begin
      Buffer_pool.protect pool p (hooks pool_payload p);
      Ref_pool.protect model p (hooks model_payload p)
    end
  done;
  Faults.arm pool_plan;
  Faults.arm model_plan;
  let outcome f = match f () with v -> Ok v | exception e -> Error e in
  for step = 1 to 400 do
    let op = random_pool_op rng in
    let run_pool () =
      match op with
      | Fresh -> Buffer_pool.fresh_page pool
      | Touch (p, dirty) -> Buffer_pool.touch pool p ~dirty; 0
      | Touch_new p -> Buffer_pool.touch_new pool p; 0
      | Pin p -> Buffer_pool.pin pool p; 0
      | Unpin p -> Buffer_pool.unpin pool p; 0
      | Discard p -> Buffer_pool.discard pool p; 0
      | Write_back p -> Buffer_pool.write_back pool p; 0
      | Flush -> Buffer_pool.flush pool; 0
      | Verify p -> Bool.to_int (Buffer_pool.verify pool p)
    and run_model () =
      match op with
      | Fresh -> Ref_pool.fresh_page model
      | Touch (p, dirty) -> Ref_pool.touch model p ~dirty; 0
      | Touch_new p -> Ref_pool.touch_new model p; 0
      | Pin p -> Ref_pool.pin model p; 0
      | Unpin p -> Ref_pool.unpin model p; 0
      | Discard p -> Ref_pool.discard model p; 0
      | Write_back p -> Ref_pool.write_back model p; 0
      | Flush -> Ref_pool.flush model; 0
      | Verify p -> Bool.to_int (Ref_pool.verify model p)
    in
    let got = outcome run_pool and want = outcome run_model in
    let where = Printf.sprintf "seed %d step %d (%s)" seed step (pp_pool_op op) in
    if got <> want then
      Alcotest.failf "%s: outcome %s, model %s" where
        (match got with Ok v -> string_of_int v | Error e -> Printexc.to_string e)
        (match want with Ok v -> string_of_int v | Error e -> Printexc.to_string e);
    (match (op, got) with
    | Touch (p, true), Ok _ ->
        pool_payload.(p) <- pool_payload.(p) + 1;
        model_payload.(p) <- model_payload.(p) + 1
    | _ -> ());
    if Buffer_pool.residency pool <> Ref_pool.residency model then
      Alcotest.failf "%s: residency diverged" where;
    if counters stats <> counters model.Ref_pool.io then
      Alcotest.failf "%s: Iostats diverged" where;
    for p = 0 to n_trial_pages - 1 do
      if Buffer_pool.quarantined pool p <> Hashtbl.mem model.Ref_pool.quarantine p
      then Alcotest.failf "%s: quarantine of page %d diverged" where p
    done
  done;
  counters stats

let test_pool_reference_differential () =
  let total = Array.make 11 0 in
  for seed = 1 to 200 do
    List.iteri
      (fun i c -> total.(i) <- total.(i) + c)
      (pool_differential_trial seed)
  done;
  (* The trials must reach every path the model is there to check. *)
  let reached name i = checkb name true (total.(i) > 0) in
  reached "evictions" 7;
  reached "pinned overflows" 8;
  reached "dirty writes" 1;
  reached "write-backs" 3;
  reached "checksum failures" 10

(* Gids are never reused, so a frame table indexed by gid would grow with
   every page ever allocated; the pool's memory must depend on its capacity
   only. *)
let test_pool_bounded_memory () =
  let pool, stats = fresh_pool ~capacity:64 () in
  let words () = Obj.reachable_words (Obj.repr pool) in
  for i = 0 to 99_999 do
    let g = Buffer_pool.fresh_page pool in
    Buffer_pool.touch_new pool g;
    (* Even pages are discarded a while later; odd ones leave by
       eviction. *)
    if i >= 40 && i mod 2 = 0 then Buffer_pool.discard pool (g - 40)
  done;
  checkb "pressure evicted pages" true (Iostats.pool_evictions stats > 10_000);
  let w = words () in
  if w > 4096 then Alcotest.failf "pool holds %d words after 100k pages" w

(* Re-protecting a quarantined page lifts the fence and seals the payload
   as it is now.  Protection state is one record per page, dropped by
   [unprotect], so a long stream of protected pages through a small pool
   leaves no per-page state behind, and no frame past capacity: a
   bucket's checksum page is pinned only while the bucket holds a sealed
   page. *)
let test_pool_protect_lifecycle () =
  let pool, stats = fresh_pool ~capacity:8 () in
  let slots = 32 and words = 4 in
  let a = Arena.create () in
  ignore (Arena.alloc a (slots * words));
  let hooks slot =
    let off = slot * words in
    {
      Buffer_pool.hk_checksum = Some (fun () -> Checksum.arena a ~off ~len:words);
      hk_corrupt = (fun _ sel -> Arena.set a (off + (sel mod words)) sel);
    }
  in
  let g = Buffer_pool.fresh_page pool in
  Buffer_pool.touch_new pool g;
  Buffer_pool.protect pool g (hooks 0);
  Buffer_pool.corrupt_page pool g Faults.Bit_flip 0x51;
  checkb "damage convicts" false (Buffer_pool.verify pool g);
  checkb "convicted page is quarantined" true (Buffer_pool.quarantined pool g);
  Buffer_pool.protect pool g (hooks 0);
  checkb "protect clears the quarantine" false (Buffer_pool.quarantined pool g);
  checkb "protect seals the current payload" true (Buffer_pool.verify pool g);
  Buffer_pool.unprotect pool g;
  let lag = slots / 2 in
  let gids = Array.make slots 0 in
  for i = 0 to 9_999 do
    let g = Buffer_pool.fresh_page pool in
    Buffer_pool.touch_new pool g;
    Buffer_pool.protect pool g (hooks (i mod slots));
    gids.(i mod slots) <- g;
    if i >= lag then begin
      (* Long evicted: a miss-read verifies it, then the probe does. *)
      let old = gids.((i - lag) mod slots) in
      Buffer_pool.touch pool old ~dirty:false;
      if not (Buffer_pool.verify pool old) then
        Alcotest.failf "page %d failed verification" old;
      Buffer_pool.unprotect pool old
    end
  done;
  checkb "pages were verified" true
    (Iostats.checksum_verifications stats > 19_000);
  checki "no page failed" 1 (Iostats.checksum_failures stats);
  checkb "frames within capacity" true
    (List.length (Buffer_pool.residency pool) <= Buffer_pool.capacity pool);
  let w = Obj.reachable_words (Obj.repr pool) in
  if w > 4096 then Alcotest.failf "pool holds %d words after 10k protected pages" w

(* A bucket's checksum page is pinned by its first verification; once the
   bucket's last sealed page is unprotected the bucket is forgotten and the
   pin cleared.  Without that, every bucket ever verified kept a pinned
   frame: 11k rounds on a capacity-8 pool left 23 frames, 22 pinned, and
   once the pins filled the pool every admission evicted its one unpinned
   frame. *)
let test_pool_bucket_release () =
  let pool, stats = fresh_pool ~capacity:8 () in
  let a = Arena.create () in
  ignore (Arena.alloc a 4);
  let hooks =
    {
      Buffer_pool.hk_checksum = Some (fun () -> Checksum.arena a ~off:0 ~len:4);
      hk_corrupt = (fun _ sel -> Arena.set a (sel mod 4) sel);
    }
  in
  let frames () = Buffer_pool.residency pool in
  for i = 1 to 11_000 do
    let g = Buffer_pool.fresh_page pool in
    Buffer_pool.touch_new pool g;
    Buffer_pool.protect pool g hooks;
    if not (Buffer_pool.verify pool g) then Alcotest.failf "page %d failed" g;
    (* Re-protecting without a checksum drops the seal too. *)
    if i mod 2 = 0 then Buffer_pool.protect pool g { hooks with hk_checksum = None };
    Buffer_pool.unprotect pool g;
    if List.length (frames ()) > Buffer_pool.capacity pool then
      Alcotest.failf "round %d: %d frames" i (List.length (frames ()))
  done;
  checki "every round verified" 11_000 (Iostats.checksum_verifications stats);
  checki "no pinned frame left" 0
    (List.length (List.filter (fun (_, _, pins) -> pins > 0) (frames ())));
  let w = Obj.reachable_words (Obj.repr pool) in
  if w > 2048 then Alcotest.failf "pool holds %d words after 11k buckets" w;
  (* A bucket re-created after being forgotten still convicts damage. *)
  let g = Buffer_pool.fresh_page pool in
  Buffer_pool.touch_new pool g;
  Buffer_pool.protect pool g hooks;
  Buffer_pool.corrupt_page pool g Faults.Bit_flip 5;
  checkb "damage convicted" false (Buffer_pool.verify pool g);
  checki "one failure" 1 (Iostats.checksum_failures stats)

(* ------------------------------------------------------------------ *)
(* Fault plans. *)

let test_faults_nth_crash_once () =
  let pool, stats = fresh_pool ~capacity:1 () in
  let plan =
    Faults.make [ Faults.Fail_nth { op = Some Faults.Read; n = 2; kind = Faults.Crash } ]
  in
  Buffer_pool.set_faults pool plan;
  Faults.arm plan;
  let a = Buffer_pool.fresh_page pool in
  let b = Buffer_pool.fresh_page pool in
  Buffer_pool.touch pool a ~dirty:false;
  (match Buffer_pool.touch pool b ~dirty:false with
  | exception Faults.Injected f ->
      checkb "read fault" true (f.Faults.f_op = Faults.Read);
      checkb "crash kind" true (f.Faults.f_kind = Faults.Crash)
  | () -> Alcotest.fail "second read should crash");
  (* The failed read never happened: no state change, no read counted. *)
  checkb "faulted page not admitted" false (Buffer_pool.resident pool b);
  checki "only the first read counted" 1 (Iostats.reads stats);
  (* One-shot: the retried operation succeeds. *)
  Buffer_pool.touch pool b ~dirty:false;
  checkb "retry succeeds" true (Buffer_pool.resident pool b);
  checki "faults surfaced" 1 (Faults.injected plan)

let test_faults_transient_retries () =
  let pool, _ = fresh_pool ~capacity:1 () in
  let plan =
    Faults.make
      [ Faults.Fail_nth { op = Some Faults.Alloc; n = 1; kind = Faults.Transient } ]
  in
  Buffer_pool.set_faults pool plan;
  Faults.arm plan;
  (* The first alloc hits the transient fault, retries in place (the Nth
     counter has moved on), and succeeds without surfacing anything. *)
  let a = Buffer_pool.fresh_page pool in
  checki "allocation completed" 0 a;
  checki "nothing surfaced" 0 (Faults.injected plan);
  checkb "but a retry happened" true (Faults.retries plan >= 1);
  checkb "and backoff time accrued" true (Faults.elapsed_ms plan > 0.0)

let test_faults_transient_escalates () =
  let pool, _ = fresh_pool ~capacity:1 () in
  let policy = { Faults.default_policy with Faults.max_retries = 3 } in
  let plan =
    Faults.make ~policy
      [ Faults.Fail_prob { op = Some Faults.Alloc; p = 1.0; kind = Faults.Transient } ]
  in
  Buffer_pool.set_faults pool plan;
  Faults.arm plan;
  (match Buffer_pool.fresh_page pool with
  | exception Faults.Injected f ->
      checkb "escalated as transient" true (f.Faults.f_kind = Faults.Transient);
      checki "burned the whole retry budget" 3 f.Faults.f_retries
  | _ -> Alcotest.fail "p=1.0 transient must escalate");
  checki "surfaced once" 1 (Faults.injected plan);
  (* Disarmed plans never inject. *)
  Faults.disarm plan;
  checki "disarmed alloc fine" 0 (Buffer_pool.fresh_page pool)

let test_faults_prob_deterministic () =
  let run () =
    let pool, _ = fresh_pool ~capacity:2 () in
    let plan =
      Faults.make ~seed:7
        [ Faults.Fail_prob { op = None; p = 0.3; kind = Faults.Crash } ]
    in
    Buffer_pool.set_faults pool plan;
    Faults.arm plan;
    let trace = ref [] in
    for i = 0 to 49 do
      match Buffer_pool.touch pool (i mod 5) ~dirty:false with
      | () -> trace := `Ok :: !trace
      | exception Faults.Injected f -> trace := `Fault f.Faults.f_seq :: !trace
    done;
    !trace
  in
  checkb "same seed, same fault trace" true (run () = run ())

(* LRU property: a working set that fits in the pool faults exactly once per
   page, however often it is re-touched. *)
let prop_pool_no_capacity_misses =
  QCheck2.Test.make ~name:"pool: working set <= capacity never re-faults"
    ~count:100
    QCheck2.Gen.(pair (int_range 1 16) (int_range 1 8))
    (fun (capacity, distinct) ->
      QCheck2.assume (distinct <= capacity);
      let pool, stats = fresh_pool ~capacity () in
      let pages = Array.init distinct (fun _ -> Buffer_pool.fresh_page pool) in
      for _round = 1 to 5 do
        Array.iter (fun p -> Buffer_pool.touch pool p ~dirty:false) pages
      done;
      Iostats.reads stats = distinct)

(* ------------------------------------------------------------------ *)
(* Heap files. *)

let test_heap_roundtrip () =
  let pool, _ = fresh_pool ~capacity:64 () in
  let h = Heap_file.create pool ~tuples_per_page:4 in
  let rids = List.init 10 (fun i -> Heap_file.append h [| i; 10 * i |]) in
  checki "10 tuples" 10 (Heap_file.n_tuples h);
  checki "3 pages of 4" 3 (Heap_file.n_pages h);
  List.iteri
    (fun i rid ->
      match Heap_file.get h rid with
      | Some t -> checki "value" (10 * i) t.(1)
      | None -> Alcotest.fail "missing tuple")
    rids;
  (* Appends copy the tuple, so later mutation of the source is invisible. *)
  let src = [| 99; 99 |] in
  let rid = Heap_file.append h src in
  src.(0) <- 0;
  checki "copied on append" 99 (Option.get (Heap_file.get h rid)).(0)

let test_heap_delete_update () =
  let pool, _ = fresh_pool ~capacity:64 () in
  let h = Heap_file.create pool ~tuples_per_page:4 in
  let rids = Array.init 8 (fun i -> Heap_file.append h [| i |]) in
  checkb "delete" true (Heap_file.delete h rids.(3));
  checkb "double delete" false (Heap_file.delete h rids.(3));
  checki "count after delete" 7 (Heap_file.n_tuples h);
  checkb "update live" true (Heap_file.update h rids.(4) [| 444 |]);
  checkb "update dead" false (Heap_file.update h rids.(3) [| 0 |]);
  checki "updated" 444 (Option.get (Heap_file.get h rids.(4))).(0);
  let seen = ref [] in
  Heap_file.scan h ~f:(fun _ t -> seen := t.(0) :: !seen);
  Alcotest.(check (list int)) "scan skips holes" [ 0; 1; 2; 444; 5; 6; 7 ]
    (List.rev !seen)

let test_heap_scan_io () =
  let stats = Iostats.create () in
  let pool = Buffer_pool.create ~capacity:2 ~stats in
  let h = Heap_file.create pool ~tuples_per_page:10 in
  for i = 0 to 99 do
    ignore (Heap_file.append h [| i |])
  done;
  Buffer_pool.flush pool;
  Iostats.reset stats;
  Heap_file.scan h ~f:(fun _ _ -> ());
  checki "scan reads every page once" 10 (Iostats.reads stats)

(* Undo primitives used by crash recovery. *)
let test_heap_undo_roundtrip () =
  let pool, _ = fresh_pool ~capacity:64 () in
  let h = Heap_file.create pool ~tuples_per_page:2 in
  checkb "next_rid on empty file" true
    (Heap_file.next_rid h = { Heap_file.rid_page = 0; rid_slot = 0 });
  let r0 = Heap_file.append h [| 0 |] in
  let predicted = Heap_file.next_rid h in
  let r1 = Heap_file.append h [| 1 |] in
  checkb "next_rid predicted the append" true (predicted = r1);
  (* Third append grows a page; truncating it drops the page again. *)
  let r2 = Heap_file.append h [| 2 |] in
  checki "two pages" 2 (Heap_file.n_pages h);
  checkb "truncate tail" true (Heap_file.truncate_last h r2);
  checki "fresh page dropped" 1 (Heap_file.n_pages h);
  checki "two tuples left" 2 (Heap_file.n_tuples h);
  (* A predicted-but-never-executed append is a tolerated no-op. *)
  checkb "phantom append ignored" false (Heap_file.truncate_last h (Heap_file.next_rid h));
  (* Delete then restore puts the exact tuple back in its slot. *)
  checkb "delete" true (Heap_file.delete h r0);
  checkb "restore" true (Heap_file.restore h r0 [| 0 |]);
  checkb "restore occupied slot refused" false (Heap_file.restore h r0 [| 9 |]);
  checki "value back" 0 (Option.get (Heap_file.get h r0)).(0);
  checkb "truncate then re-append round-trips" true
    (Heap_file.truncate_last h r1 && Heap_file.append h [| 1 |] = r1)

let test_heap_bad_rid () =
  let pool, _ = fresh_pool () in
  let h = Heap_file.create pool ~tuples_per_page:4 in
  ignore (Heap_file.append h [| 1 |]);
  Alcotest.check_raises "bad rid" (Invalid_argument "Heap_file.get: bad rid")
    (fun () ->
      ignore (Heap_file.get h { Heap_file.rid_page = 5; rid_slot = 0 }))

(* A dirty page evicted from a one-frame pool must be written back at the
   moment of eviction, and its contents must survive the round trip through
   the arena when the page is faulted back in. *)
let test_heap_dirty_eviction_write_ordering () =
  let pool, stats = fresh_pool ~capacity:1 () in
  let h = Heap_file.create pool ~tuples_per_page:2 in
  let rids = Array.init 8 (fun i -> Heap_file.append h [| i; 100 + i |]) in
  (* Four pages were dirtied in sequence through one frame: opening each new
     page evicts the previous dirty one, which must be flushed right then. *)
  checki "dirty evictions wrote back" 3 (Iostats.writes stats);
  checki "evictions counted" 3 (Iostats.pool_evictions stats);
  checki "appends never read" 0 (Iostats.reads stats);
  (* Every tuple re-read faults its page back in; the values must be the
     ones written before eviction, not a stale or zeroed frame. *)
  Array.iteri
    (fun i r ->
      match Heap_file.get h r with
      | Some t -> checki "value survived eviction" (100 + i) t.(1)
      | None -> Alcotest.fail "tuple lost across eviction")
    rids;
  checkb "re-reads were misses" true (Iostats.pool_misses stats >= 4);
  (* The tail page is clean after its own eviction/re-read cycle, so a
     final flush forces only pages dirtied since. *)
  let w = Iostats.writes stats in
  Buffer_pool.flush pool;
  checkb "flush wrote nothing new for clean frames" true
    (Iostats.writes stats = w)

(* Appends that cross a page boundary: rid arithmetic, page growth, arena
   growth, and which holes an append backfills. *)
let test_heap_append_across_page_boundary () =
  let pool, _ = fresh_pool ~capacity:16 () in
  let h = Heap_file.create pool ~tuples_per_page:3 in
  let rids = Array.init 7 (fun i -> Heap_file.append h [| i |]) in
  checki "seven tuples span three pages" 3 (Heap_file.n_pages h);
  Array.iteri
    (fun i r ->
      checki "rid page" (i / 3) r.Heap_file.rid_page;
      checki "rid slot" (i mod 3) r.Heap_file.rid_slot)
    rids;
  checkb "next rid continues on the tail page" true
    (Heap_file.next_rid h = { Heap_file.rid_page = 2; rid_slot = 1 });
  (* A hole in a full page below the tail is backfilled, and next_rid
     predicts it. *)
  checkb "delete mid-file" true (Heap_file.delete h rids.(1));
  checkb "next rid predicts the backfill" true
    (Heap_file.next_rid h = { Heap_file.rid_page = 0; rid_slot = 1 });
  let r7 = Heap_file.append h [| 7 |] in
  checkb "append backfills a hole below the tail" true
    (r7 = { Heap_file.rid_page = 0; rid_slot = 1 });
  checki "no page added for a backfill" 3 (Heap_file.n_pages h);
  (* A hole on the tail page is not: the append lands at the tail. *)
  checkb "delete on the tail page" true (Heap_file.delete h rids.(6));
  let r8 = Heap_file.append h [| 8 |] in
  checkb "a tail-page hole waits" true
    (r8 = { Heap_file.rid_page = 2; rid_slot = 1 });
  checki "no page added for tail append" 3 (Heap_file.n_pages h);
  (* Filling the tail page does not grow the arena; opening the next page
     does. *)
  let words_before = Heap_file.arena_words h in
  ignore (Heap_file.append h [| 9 |]);
  checki "tail fill reuses the page block" words_before
    (Heap_file.arena_words h);
  ignore (Heap_file.append h [| 10 |]);
  checki "boundary append opens page four" 4 (Heap_file.n_pages h);
  checkb "arena grew across the boundary" true
    (Heap_file.arena_words h > words_before);
  (* Page three stopped being the tail, so its hole is now reusable. *)
  checkb "the old tail page's hole is next" true
    (Heap_file.next_rid h = { Heap_file.rid_page = 2; rid_slot = 0 });
  (* Truncating the only tuple on the new page drops the page again. *)
  checkb "truncate boundary tuple" true
    (Heap_file.truncate_last h { Heap_file.rid_page = 3; rid_slot = 0 });
  checki "fresh page dropped" 3 (Heap_file.n_pages h);
  checkb "the hole waits again on the tail page" true
    (Heap_file.next_rid h = { Heap_file.rid_page = 3; rid_slot = 0 });
  (* Arity was fixed by the first append and boundary crossings keep it. *)
  Alcotest.check_raises "arity mismatch across boundary"
    (Invalid_argument "Heap_file: arity mismatch") (fun () ->
      ignore (Heap_file.append h [| 1; 2 |]))

(* Seeded heap churn against a reference model.  Each round is one
   transaction of random appends, deletes and updates, each logged before
   it runs the way the write-ahead log does it (an append logs
   [next_rid]); a transaction either commits or is undone in LIFO order
   ([truncate_last], [restore], [update] with the before image) with the
   fault plan disarmed, as recovery does.  Checks, at every step:
   - [next_rid] is the rid the append returns;
   - a faulted operation leaves the file unchanged (fault before mutation),
     and undo of an append that never ran is a [false] no-op;
   - the live tuples are the model's;
   - [n_pages <= ceil (peak n_tuples / tpp) + 1]: the file follows its
     live high-water mark;
   and after every rollback, the file is exactly the pre-transaction one:
   live tuples, [n_tuples], [n_pages] and [next_rid]. *)
type heap_undo =
  | U_append of Heap_file.rid * bool  (* predicted rid, whether it ran *)
  | U_delete of Heap_file.rid * int array
  | U_update of Heap_file.rid * int array

(* The file as the model sees it, read with the pool's fault plan
   disarmed. *)
let heap_state pool h =
  let plan = Buffer_pool.faults pool in
  let armed = Faults.armed plan in
  Faults.disarm plan;
  let live = ref [] in
  Heap_file.scan h ~f:(fun rid t -> live := (rid, t) :: !live);
  if armed then Faults.arm plan;
  (List.sort compare !live, Heap_file.n_tuples h, Heap_file.n_pages h, Heap_file.next_rid h)

let test_heap_churn_against_model () =
  List.iter
    (fun (tpp, seed) ->
      let rng = Random.State.make [| 41; tpp; seed |] in
      let pool, _ = fresh_pool ~capacity:3 () in
      let plan =
        Faults.make ~seed
          [ Faults.Fail_prob { op = None; p = 0.03; kind = Faults.Permanent } ]
      in
      Buffer_pool.set_faults pool plan;
      let h = Heap_file.create pool ~tuples_per_page:tpp in
      let model : (Heap_file.rid, int array) Hashtbl.t = Hashtbl.create 64 in
      let peak = ref 0 in
      let fresh = ref 0 in
      let where fmt = Printf.ksprintf (fun m -> Printf.sprintf "tpp %d seed %d: %s" tpp seed m) fmt in
      let check_model step =
        let want = List.sort compare (Hashtbl.fold (fun r t acc -> (r, t) :: acc) model []) in
        let live, n, pages, _ = heap_state pool h in
        if live <> want then Alcotest.fail (where "%s: live tuples differ from the model" step);
        checki (where "%s: n_tuples" step) (Hashtbl.length model) n;
        peak := max !peak n;
        let bound = ((!peak + tpp - 1) / tpp) + 1 in
        if pages > bound then
          Alcotest.failf "%s" (where "%s: %d pages, peak %d tuples allow %d" step pages !peak bound)
      in
      let random_live () =
        let rids = Hashtbl.fold (fun r _ acc -> r :: acc) model [] in
        List.nth (List.sort compare rids) (Random.State.int rng (List.length rids))
      in
      (* One forward operation, logged before it runs: returns its undo
         record and whether it ran (a faulted one must change nothing). *)
      let forward () =
        let before = heap_state pool h in
        let unchanged what =
          if heap_state pool h <> before then
            Alcotest.fail (where "a faulted %s changed the file" what)
        in
        incr fresh;
        let tuple = [| !fresh; Random.State.int rng 100 |] in
        match Random.State.int rng 10 with
        | n when n < 5 || Hashtbl.length model = 0 -> (
            let rid = Heap_file.next_rid h in
            match Heap_file.append h tuple with
            | actual ->
                if actual <> rid then Alcotest.fail (where "next_rid mispredicted the append");
                Hashtbl.replace model rid tuple;
                (U_append (rid, true), true)
            | exception Faults.Injected _ ->
                unchanged "append";
                (U_append (rid, false), false))
        | n when n < 8 -> (
            let rid = random_live () in
            let u = U_delete (rid, Hashtbl.find model rid) in
            match Heap_file.delete h rid with
            | ok ->
                checkb (where "delete of a live slot") true ok;
                Hashtbl.remove model rid;
                (u, true)
            | exception Faults.Injected _ ->
                unchanged "delete";
                (u, false))
        | _ -> (
            let rid = random_live () in
            let u = U_update (rid, Hashtbl.find model rid) in
            match Heap_file.update h rid tuple with
            | ok ->
                checkb (where "update of a live slot") true ok;
                Hashtbl.replace model rid tuple;
                (u, true)
            | exception Faults.Injected _ ->
                unchanged "update";
                (u, false))
      in
      let undo = function
        | U_append (rid, ran) ->
            checkb (where "truncate_last reports whether the append ran") ran
              (Heap_file.truncate_last h rid);
            Hashtbl.remove model rid
        | U_delete (rid, old) ->
            ignore (Heap_file.restore h rid old);
            Hashtbl.replace model rid old
        | U_update (rid, old) ->
            ignore (Heap_file.update h rid old);
            Hashtbl.replace model rid old
      in
      for round = 1 to 150 do
        let snapshot = heap_state pool h in
        let saved = Hashtbl.copy model in
        Faults.arm plan;
        let log = ref [] and faulted = ref false in
        let steps = 1 + Random.State.int rng 12 in
        let i = ref 0 in
        while !i < steps && not !faulted do
          let u, ran = forward () in
          log := u :: !log;
          faulted := not ran;
          check_model (Printf.sprintf "round %d step %d" round !i);
          incr i
        done;
        Faults.disarm plan;
        if !faulted || Random.State.int rng 3 = 0 then begin
          List.iter undo !log;
          if heap_state pool h <> snapshot then
            Alcotest.fail (where "round %d: rollback did not restore the file" round);
          Hashtbl.reset model;
          Hashtbl.iter (Hashtbl.replace model) saved
        end;
        check_model (Printf.sprintf "round %d end" round)
      done)
    [ (1, 1); (2, 2); (3, 3); (4, 4); (5, 5) ]

(* Keys whose multiplicative hash ([Vis_util.Int_hashtbl.hash], which the
   heap's key filter also uses) has its 16 low bits set: in any filter
   table of up to 2^16 cells they all start probing at the last cell, so
   inserting them builds one probe run that wraps around the table's end,
   and a non-member with the same home walks the whole run. *)
let same_home_keys n =
  let rec go k acc n =
    if n = 0 then List.rev acc
    else if Vis_util.Int_hashtbl.hash k land 0xFFFF = 0xFFFF then go (k + 1) (k :: acc) (n - 1)
    else go (k + 1) acc n
  in
  go (-1_000_000) [] n

(* Twelve keys in the wrapping run, then two non-members that share its
   home. *)
let wrap_keys, wrap_misses =
  let run = same_home_keys 14 in
  (List.filteri (fun i _ -> i < 12) run, List.filteri (fun i _ -> i >= 12) run)

(* The key lists each case is scanned with. *)
let key_lists =
  [
    ("keys 1 and 3", [ 1; 3 ]);
    ("no keys", []);
    ("duplicate keys", [ 3; 1; 3; 3; 1; 1 ]);
    ("extreme keys", [ 0; -1; -4; min_int; max_int ]);
    ("wrapping probe run", wrap_keys);
  ]

(* [scan_where] is [scan] filtered on one attribute: the same (rid, tuple)
   sequence, the same pages touched in the same order, so the same
   [Iostats] counters and pool state — also when a fault cuts the scan
   short.  Each case is built twice, deterministically, so the two scans
   start from identical pools. *)
let scan_where_cases =
  let heap ?arity ?(protect = false) fill () =
    let pool, stats = fresh_pool ~capacity:3 () in
    let h = Heap_file.create ?arity pool ~tuples_per_page:4 in
    if protect then Heap_file.protect h;
    fill h;
    Buffer_pool.flush pool;
    (pool, stats, h)
  in
  let append_n h n = List.init n (fun i -> Heap_file.append h [| i mod 5; i; 3 * i |]) in
  (* Every listed key and some near misses, each stored twice. *)
  let extremes =
    [ 0; -1; -4; min_int; max_int; 1; 3; 7; min_int + 1; max_int - 1; -2 ]
    @ wrap_keys @ wrap_misses
  in
  [
    ( "deleted slots",
      heap (fun h ->
          List.iteri
            (fun i r -> if i mod 3 = 1 then ignore (Heap_file.delete h r))
            (append_n h 23)) );
    ( "truncated tail",
      heap (fun h ->
          let rids = append_n h 13 in
          List.iter
            (fun r -> ignore (Heap_file.truncate_last h r))
            (List.rev (List.filteri (fun i _ -> i >= 9) rids))) );
    ("empty, arity fixed", heap ~arity:3 (fun _ -> ()));
    ("empty, arity unfixed", heap (fun _ -> ()));
    ( "checksummed pages",
      heap ~protect:true (fun h ->
          List.iteri
            (fun i r -> if i mod 4 = 0 then ignore (Heap_file.delete h r))
            (append_n h 30)) );
    ( "extreme values",
      heap (fun h ->
          List.iteri
            (fun i k ->
              let r = Heap_file.append h [| k; i; -k |] in
              if i mod 7 = 3 then ignore (Heap_file.delete h r))
            (extremes @ List.rev extremes)) );
  ]

(* Run both scans on twin heaps; [arm] installs a fault before scanning. *)
let scan_twins ?(arm = fun _ _ -> ()) ~keys build =
  let run scan =
    let pool, stats, h = build () in
    arm pool h;
    let seen = ref [] in
    let outcome =
      match scan h (fun rid t -> seen := (rid, t) :: !seen) with
      | () -> None
      | exception e -> Some e
    in
    (List.rev !seen, outcome, counters stats, Buffer_pool.residency pool)
  in
  let full =
    run (fun h f -> Heap_file.scan h ~f:(fun rid t -> if List.mem t.(0) keys then f rid t))
  in
  let where = run (fun h f -> Heap_file.scan_where h ~attr:0 ~keys ~f) in
  (full, where)

let test_heap_scan_where () =
  List.iter
    (fun (case, build) ->
      List.iter
        (fun (kname, keys) ->
          let name = case ^ ", " ^ kname in
          let (seq, out, io, res), (seq', out', io', res') = scan_twins ~keys build in
          checkb (name ^ ": same tuples") true (seq = seq');
          checkb (name ^ ": no fault") true (out = None && out' = None);
          Alcotest.(check (list int)) (name ^ ": same counters") io io';
          checkb (name ^ ": same residency") true (res = res');
          (* The extreme-value heap stores every listed key. *)
          if case = "extreme values" && keys <> [] then
            checkb (name ^ ": keys found") true (seq' <> []))
        key_lists)
    scan_where_cases;
  let _, build = List.hd scan_where_cases in
  let _, _, h = build () in
  checkb "filter visits a strict subset" true
    (let n = ref 0 in
     Heap_file.scan_where h ~attr:0 ~keys:[ 1; 3 ] ~f:(fun _ _ -> incr n);
     !n > 0 && !n < Heap_file.n_tuples h);
  (* Every key of the wrapping run is found, and its same-home misses are
     not. *)
  let _, build = List.nth scan_where_cases 5 in
  let _, _, h = build () in
  let keys = min_int :: max_int :: wrap_keys in
  let found = ref [] in
  Heap_file.scan_where h ~attr:0 ~keys ~f:(fun _ t -> found := t.(0) :: !found);
  checkb "extremes and the whole wrapping run found" true
    (List.for_all (fun k -> List.mem k !found) keys);
  checkb "same-home misses skipped" false
    (List.exists (fun k -> List.mem k !found) wrap_misses)

let test_heap_scan_where_faults () =
  let _, build = List.nth scan_where_cases 4 in
  let read_fault pool _ =
    let plan =
      Faults.make [ Faults.Fail_nth { op = Some Faults.Read; n = 4; kind = Faults.Crash } ]
    in
    Buffer_pool.set_faults pool plan;
    Faults.arm plan
  in
  let rot pool h =
    Buffer_pool.corrupt_page pool (Heap_file.page_gid h 3) Faults.Bit_flip 17
  in
  List.iter
    (fun (fname, arm) ->
      List.iter
        (fun (kname, keys) ->
          let name = fname ^ ", " ^ kname in
          let (seq, out, io, res), (seq', out', io', res') =
            scan_twins ~arm ~keys build
          in
          (* The heap's first pages hold keys 0..4. *)
          let matches = List.exists (fun k -> k >= 0 && k < 5) keys in
          checkb (name ^ ": scan stopped") true (out <> None);
          checkb (name ^ ": same exception") true (out = out');
          checkb (name ^ ": same prefix") true (seq = seq' && (seq <> [] || not matches));
          Alcotest.(check (list int)) (name ^ ": same counters") io io';
          checkb (name ^ ": same residency") true (res = res'))
        key_lists)
    [ ("read fault", read_fault); ("corrupt page", rot) ]

let test_window_errors () =
  let pool, _ = fresh_pool () in
  let h = Heap_file.create pool ~tuples_per_page:4 in
  ignore (Heap_file.append h [| 1; 2 |]);
  let scan_where attr () =
    Heap_file.scan_where h ~attr ~keys:[ 1 ] ~f:(fun _ _ -> ())
  in
  let bad = Invalid_argument "Heap_file.scan_where" in
  Alcotest.check_raises "attr = arity" bad (scan_where 2);
  Alcotest.check_raises "negative attr" bad (scan_where (-1));
  Alcotest.check_raises "negative attr, arity unfixed" bad (fun () ->
      Heap_file.scan_where
        (Heap_file.create pool ~tuples_per_page:4)
        ~attr:(-1) ~keys:[ 1 ] ~f:(fun _ _ -> ()));
  let a = Arena.create ~initial_words:4 () in
  let off = Arena.alloc a 6 in
  Arena.set a (off + 5) 42;
  Alcotest.(check (array int)) "window at the end" [| 42 |]
    (Arena.to_array a ~off:(off + 5) ~len:1);
  checki "checksum of the empty window" (Checksum.finish Checksum.empty)
    (Checksum.arena a ~off:6 ~len:0);
  List.iter
    (fun (what, off, len) ->
      Alcotest.check_raises ("to_array " ^ what) (Invalid_argument "Arena.to_array")
        (fun () -> ignore (Arena.to_array a ~off ~len));
      Alcotest.check_raises ("checksum " ^ what) (Invalid_argument "Checksum.arena")
        (fun () -> ignore (Checksum.arena a ~off ~len)))
    [
      ("past the words in use", 4, 3);
      ("past the capacity", 6, 10);
      ("negative offset", -1, 2);
      ("negative length", 2, -1);
    ]

(* ------------------------------------------------------------------ *)
(* Page-seal kernel. *)

(* The page seal exactly as [Checksum]'s interface defines it, folded in
   OCaml's own ints: the kernel must agree with it bit for bit. *)
let reference_seal ?(init = Checksum.empty) w ~off ~len =
  if len = 0 then Checksum.finish init
  else begin
    let lane = Array.init 4 (fun k -> init + k) in
    let body = len - (len mod 4) in
    for i = 0 to len - 1 do
      let k = if i < body then i mod 4 else 0 in
      lane.(k) <- Checksum.add lane.(k) w.(off + i)
    done;
    let h = Checksum.add (Checksum.add lane.(0) lane.(1)) lane.(2) in
    Checksum.finish (Checksum.add (Checksum.add h lane.(3)) len)
  end

(* Seeded words that reach every bit: full-range randoms (so half are
   negative, with bit 62 set) with the extremes sprinkled in. *)
let seal_words n =
  let st = Random.State.make [| 0x5ea1 |] in
  let special = [| max_int; min_int; -1; 0; 1 lsl 62; (1 lsl 62) lor 5 |] in
  Array.init n (fun i ->
      if i mod 7 = 3 then special.(i / 7 mod Array.length special)
      else Int64.to_int (Random.State.bits64 st))

let arena_of w =
  let a = Arena.create ~initial_words:4 () in
  let off = Arena.alloc a (Array.length w) in
  Arena.blit_from_array a ~off w;
  a

let test_seal_matches_reference () =
  let w = seal_words 1104 in
  let a = arena_of w in
  for off = 0 to 3 do
    for len = 0 to 1100 do
      let want = reference_seal w ~off ~len and got = Checksum.arena a ~off ~len in
      if got <> want then
        Alcotest.failf "off %d len %d: kernel %#x, reference %#x" off len got want
    done
  done;
  checki "a running state seeds the lanes"
    (reference_seal ~init:12345 w ~off:1 ~len:607)
    (Checksum.arena ~init:12345 a ~off:1 ~len:607)

let test_seal_detects_damage () =
  let n = 608 in
  let w = seal_words n in
  let a = arena_of w in
  let seal () = Checksum.arena a ~off:0 ~len:n in
  let clean = seal () in
  for i = 0 to n - 1 do
    for b = 0 to 61 do
      Arena.set a i (w.(i) lxor (1 lsl b));
      if seal () = clean then Alcotest.failf "flip of bit %d in word %d undetected" b i;
      Arena.set a i w.(i)
    done
  done;
  (* A torn write the way heap pages take one: a kept prefix, then stale
     garbage marked with bit 60. *)
  for s = 0 to n - 1 do
    for i = s to n - 1 do
      Arena.set a i ((0x7ea5 + i) lor (1 lsl 60))
    done;
    if seal () = clean then Alcotest.failf "tear from word %d undetected" s;
    Arena.blit_from_array a ~off:0 w
  done;
  checki "restored payload seals as before" clean (seal ())

(* ------------------------------------------------------------------ *)
(* B+-tree. *)

let rid i = { Heap_file.rid_page = i; rid_slot = i mod 7 }

let check_ok t =
  match Btree.check t with Ok () -> () | Error msg -> Alcotest.fail msg

let test_btree_empty () =
  let pool, _ = fresh_pool ~capacity:16 () in
  let t = Btree.create pool ~fanout:4 in
  check_ok t;
  checki "empty length" 0 (Btree.length t);
  checki "empty height" 1 (Btree.height t);
  Alcotest.(check (list int)) "lookup on empty" []
    (List.map (fun r -> r.Heap_file.rid_page) (Btree.lookup t ~key:3));
  Alcotest.(check (list int)) "range on empty" []
    (List.map fst (Btree.range t ~lo:min_int ~hi:max_int));
  checkb "remove on empty" false (Btree.remove t ~key:3 (rid 0));
  checkb "mem on empty" false (Btree.mem t ~key:3 (rid 0));
  let visited = ref 0 in
  Btree.iter t ~f:(fun _ _ -> incr visited);
  checki "iter on empty visits nothing" 0 !visited

let test_btree_duplicate_entry_rejected () =
  let pool, _ = fresh_pool ~capacity:16 () in
  let t = Btree.create pool ~fanout:4 in
  Btree.insert t ~key:7 (rid 1);
  checkb "mem finds it" true (Btree.mem t ~key:7 (rid 1));
  checkb "same key, other rid is fine" true
    (match Btree.insert t ~key:7 (rid 2) with () -> true);
  (match Btree.insert t ~key:7 (rid 1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "exact duplicate entry must be rejected");
  check_ok t;
  checki "rejected insert left no trace" 2 (Btree.length t)

let test_btree_basics () =
  let pool, _ = fresh_pool ~capacity:256 () in
  let t = Btree.create pool ~fanout:4 in
  for i = 0 to 99 do
    Btree.insert t ~key:(i * 3 mod 101) (rid i)
  done;
  check_ok t;
  checki "100 entries" 100 (Btree.length t);
  checkb "height grew" true (Btree.height t > 1);
  for i = 0 to 99 do
    let key = i * 3 mod 101 in
    checkb "lookup finds rid" true (List.mem (rid i) (Btree.lookup t ~key))
  done;
  checki "missing key" 0 (List.length (Btree.lookup t ~key:777))

let test_btree_duplicates () =
  let pool, _ = fresh_pool ~capacity:256 () in
  let t = Btree.create pool ~fanout:4 in
  for i = 0 to 30 do
    Btree.insert t ~key:5 (rid i)
  done;
  check_ok t;
  checki "all duplicates found" 31 (List.length (Btree.lookup t ~key:5));
  checkb "remove one" true (Btree.remove t ~key:5 (rid 17));
  checkb "remove again fails" false (Btree.remove t ~key:5 (rid 17));
  checki "30 left" 30 (List.length (Btree.lookup t ~key:5));
  check_ok t

let test_btree_range () =
  let pool, _ = fresh_pool ~capacity:256 () in
  let t = Btree.create pool ~fanout:4 in
  List.iter (fun k -> Btree.insert t ~key:k (rid k)) [ 5; 1; 9; 3; 7; 2; 8 ];
  let keys = List.map fst (Btree.range t ~lo:3 ~hi:8) in
  Alcotest.(check (list int)) "range sorted" [ 3; 5; 7; 8 ] keys;
  Alcotest.(check (list int)) "empty range" []
    (List.map fst (Btree.range t ~lo:10 ~hi:20));
  Alcotest.(check (list int)) "inverted range" []
    (List.map fst (Btree.range t ~lo:8 ~hi:3))

let test_btree_iter_sorted () =
  let pool, _ = fresh_pool ~capacity:256 () in
  let t = Btree.create pool ~fanout:4 in
  for i = 99 downto 0 do
    Btree.insert t ~key:i (rid i)
  done;
  let keys = ref [] in
  Btree.iter t ~f:(fun k _ -> keys := k :: !keys);
  Alcotest.(check (list int)) "iter in key order" (List.init 100 Fun.id)
    (List.rev !keys)

let test_btree_io_counted () =
  let stats = Iostats.create () in
  let pool = Buffer_pool.create ~capacity:4 ~stats in
  let t = Btree.create pool ~fanout:8 in
  for i = 0 to 999 do
    Btree.insert t ~key:i (rid i)
  done;
  Buffer_pool.flush pool;
  Iostats.reset stats;
  ignore (Btree.lookup t ~key:500);
  (* One root-to-leaf path, plus possibly peeking at the next leaf when the
     probe lands at a leaf boundary. *)
  checkb "lookup reads at most height+1 pages" true
    (Iostats.reads stats <= Btree.height t + 1);
  checkb "lookup reads at least one page" true (Iostats.reads stats >= 1)

(* Randomized comparison against a reference association model under mixed
   inserts, removes, and lookups; structural invariants re-checked at the
   end. *)
let prop_btree_model =
  let op_gen =
    QCheck2.Gen.(pair (int_bound 2) (pair (int_bound 50) (int_bound 1000)))
  in
  QCheck2.Test.make ~name:"btree: agrees with a reference model" ~count:60
    QCheck2.Gen.(pair (int_range 4 12) (list_size (int_bound 400) op_gen))
    (fun (fanout, ops) ->
      let pool, _ = fresh_pool ~capacity:512 () in
      let t = Btree.create pool ~fanout in
      let model : (int, Heap_file.rid list) Hashtbl.t = Hashtbl.create 64 in
      let model_get k = Option.value ~default:[] (Hashtbl.find_opt model k) in
      let ok = ref true in
      List.iter
        (fun (op, (key, salt)) ->
          match op with
          | 0 ->
              let r = rid salt in
              if List.mem r (model_get key) then begin
                (* Exact duplicates are rejected. *)
                match Btree.insert t ~key r with
                | exception Invalid_argument _ -> ()
                | () -> ok := false
              end
              else begin
                Btree.insert t ~key r;
                Hashtbl.replace model key (r :: model_get key)
              end
          | 1 -> (
              match model_get key with
              | [] -> if Btree.remove t ~key (rid salt) then ok := false
              | r :: rest ->
                  if Btree.remove t ~key r then Hashtbl.replace model key rest
                  else ok := false)
          | _ ->
              let got = List.sort compare (Btree.lookup t ~key) in
              let want = List.sort compare (model_get key) in
              if got <> want then ok := false)
        ops;
      let total = Hashtbl.fold (fun _ l acc -> acc + List.length l) model 0 in
      Btree.check t = Ok () && !ok && Btree.length t = total)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "vis_storage"
    [
      ( "buffer pool",
        [
          Alcotest.test_case "hits and misses" `Quick test_pool_hits_and_misses;
          Alcotest.test_case "LRU eviction" `Quick test_pool_lru_eviction;
          Alcotest.test_case "dirty write-back" `Quick test_pool_dirty_writeback;
          Alcotest.test_case "touch_new" `Quick test_pool_touch_new;
          Alcotest.test_case "discard" `Quick test_pool_discard;
          Alcotest.test_case "pin skips eviction" `Quick test_pool_pin_skips_eviction;
          Alcotest.test_case "all pinned overflows" `Quick
            test_pool_all_pinned_overflows;
          Alcotest.test_case "pin refcount" `Quick test_pool_pin_refcount;
          Alcotest.test_case "flush ignores pins" `Quick test_pool_flush_ignores_pins;
          Alcotest.test_case "write_back" `Quick test_pool_write_back;
          Alcotest.test_case "matches the reference model" `Quick
            test_pool_reference_differential;
          Alcotest.test_case "memory bounded by capacity" `Quick
            test_pool_bounded_memory;
          Alcotest.test_case "protect, verify, unprotect" `Quick
            test_pool_protect_lifecycle;
          Alcotest.test_case "checksum buckets are released" `Quick
            test_pool_bucket_release;
        ]
        @ qt [ prop_pool_no_capacity_misses ] );
      ( "faults",
        [
          Alcotest.test_case "nth crash fires once" `Quick test_faults_nth_crash_once;
          Alcotest.test_case "transient retries in place" `Quick
            test_faults_transient_retries;
          Alcotest.test_case "transient escalates" `Quick
            test_faults_transient_escalates;
          Alcotest.test_case "probability is seeded" `Quick
            test_faults_prob_deterministic;
        ] );
      ( "heap file",
        [
          Alcotest.test_case "append and get" `Quick test_heap_roundtrip;
          Alcotest.test_case "delete and update" `Quick test_heap_delete_update;
          Alcotest.test_case "scan I/O" `Quick test_heap_scan_io;
          Alcotest.test_case "undo primitives" `Quick test_heap_undo_roundtrip;
          Alcotest.test_case "bad rid" `Quick test_heap_bad_rid;
          Alcotest.test_case "dirty eviction write ordering" `Quick
            test_heap_dirty_eviction_write_ordering;
          Alcotest.test_case "append across page boundary" `Quick
            test_heap_append_across_page_boundary;
          Alcotest.test_case "churn against a reference model" `Quick
            test_heap_churn_against_model;
          Alcotest.test_case "scan_where is a filtered scan" `Quick
            test_heap_scan_where;
          Alcotest.test_case "scan_where under faults" `Quick
            test_heap_scan_where_faults;
          Alcotest.test_case "window errors" `Quick test_window_errors;
        ] );
      ( "page seal",
        [
          Alcotest.test_case "kernel matches the reference" `Quick
            test_seal_matches_reference;
          Alcotest.test_case "every flip and tear detected" `Quick
            test_seal_detects_damage;
        ] );
      ( "btree",
        [
          Alcotest.test_case "empty tree" `Quick test_btree_empty;
          Alcotest.test_case "duplicate entry rejected" `Quick
            test_btree_duplicate_entry_rejected;
          Alcotest.test_case "basics" `Quick test_btree_basics;
          Alcotest.test_case "duplicates" `Quick test_btree_duplicates;
          Alcotest.test_case "range" `Quick test_btree_range;
          Alcotest.test_case "iter sorted" `Quick test_btree_iter_sorted;
          Alcotest.test_case "I/O counted" `Quick test_btree_io_counted;
        ]
        @ qt [ prop_btree_model ] );
    ]
