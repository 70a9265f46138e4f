let default_jobs () =
  match Sys.getenv_opt "VISMAT_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* One batch of chunks.  [epoch] distinguishes successive batches so a
   worker that wakes late never re-runs a batch it already drained. *)
type job = {
  j_run : int -> unit;  (* chunk index -> unit; never raises (wrapped) *)
  j_chunks : int;
  j_next : int Atomic.t;  (* next unclaimed chunk *)
  j_epoch : int;
}

type pool = {
  n_jobs : int;
  mutable domains : unit Domain.t array;  (* the [n_jobs - 1] workers *)
  m : Mutex.t;
  work : Condition.t;  (* a batch arrived, or shutdown *)
  drained : Condition.t;  (* the current batch fully completed *)
  mutable job : job option;  (* protected by [m] *)
  mutable epoch : int;  (* protected by [m] *)
  mutable active : int;  (* workers inside the current batch; by [m] *)
  mutable stop : bool;  (* protected by [m] *)
  tasks_run : int array;  (* chunks executed per slot; slot-private *)
}

let jobs pool = pool.n_jobs

(* Batches currently running on more than one domain, over all pools.  The
   only [Domain.spawn] is in [create] and workers run user code only inside
   such a batch, so while this is zero the caller's domain is the only one
   running library code. *)
let live_batches = Atomic.make 0

let concurrent () = Atomic.get live_batches > 0

let work_counts pool = Array.copy pool.tasks_run

let diff_counts ~before ~after =
  Array.init
    (min (Array.length before) (Array.length after))
    (fun i -> after.(i) - before.(i))

(* Claim and run chunks until the batch is exhausted.  Dynamic claiming via
   fetch-and-add balances uneven chunk costs across slots. *)
let run_chunks pool slot j =
  let rec go () =
    let c = Atomic.fetch_and_add j.j_next 1 in
    if c < j.j_chunks then begin
      pool.tasks_run.(slot) <- pool.tasks_run.(slot) + 1;
      j.j_run c;
      go ()
    end
  in
  go ()

let rec worker_loop pool slot last_epoch =
  Mutex.lock pool.m;
  let rec await () =
    if pool.stop then None
    else
      match pool.job with
      | Some j when j.j_epoch <> last_epoch -> Some j
      | Some _ | None ->
          Condition.wait pool.work pool.m;
          await ()
  in
  match await () with
  | None -> Mutex.unlock pool.m
  | Some j ->
      pool.active <- pool.active + 1;
      Mutex.unlock pool.m;
      run_chunks pool slot j;
      Mutex.lock pool.m;
      pool.active <- pool.active - 1;
      if pool.active = 0 && Atomic.get j.j_next >= j.j_chunks then
        Condition.signal pool.drained;
      Mutex.unlock pool.m;
      worker_loop pool slot j.j_epoch

let create ?jobs () =
  let n_jobs = max 1 (match jobs with Some n -> n | None -> default_jobs ()) in
  let pool =
    {
      n_jobs;
      domains = [||];
      m = Mutex.create ();
      work = Condition.create ();
      drained = Condition.create ();
      job = None;
      epoch = 0;
      active = 0;
      stop = false;
      tasks_run = Array.make n_jobs 0;
    }
  in
  if n_jobs > 1 then
    pool.domains <-
      Array.init (n_jobs - 1) (fun i ->
          Domain.spawn (fun () -> worker_loop pool (i + 1) 0));
  pool

let shutdown pool =
  Mutex.lock pool.m;
  let was_stopped = pool.stop in
  pool.stop <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.m;
  if not was_stopped then begin
    Array.iter Domain.join pool.domains;
    pool.domains <- [||]
  end

let with_pool ?jobs f =
  let pool = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let using ?jobs ?pool f =
  match pool with Some p -> f p | None -> with_pool ?jobs f

let run_inline pool ~chunks f =
  for c = 0 to chunks - 1 do
    pool.tasks_run.(0) <- pool.tasks_run.(0) + 1;
    f c
  done

let run pool ~chunks f =
  if chunks <= 0 then ()
  else if chunks = 1 || Array.length pool.domains = 0 then
    run_inline pool ~chunks f
  else begin
    (* First exception in chunk order wins, matching what a sequential run
       would have raised first; later chunks still execute so the pool's
       bookkeeping stays consistent. *)
    let failure : (int * exn * Printexc.raw_backtrace) option Atomic.t =
      Atomic.make None
    in
    let guarded c =
      try f c
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        let rec record () =
          match Atomic.get failure with
          | Some (c0, _, _) when c0 <= c -> ()
          | cur ->
              if not (Atomic.compare_and_set failure cur (Some (c, e, bt)))
              then record ()
        in
        record ()
    in
    Atomic.incr live_batches;
    Mutex.lock pool.m;
    pool.epoch <- pool.epoch + 1;
    let j =
      {
        j_run = guarded;
        j_chunks = chunks;
        j_next = Atomic.make 0;
        j_epoch = pool.epoch;
      }
    in
    pool.job <- Some j;
    (* Wake only as many workers as there are chunks to spare: per-batch
       overhead stays bounded when batches are tiny (A* fans out just two
       successors per expansion). *)
    let workers = Array.length pool.domains in
    if chunks - 1 >= workers then Condition.broadcast pool.work
    else
      for _ = 1 to chunks - 1 do
        Condition.signal pool.work
      done;
    Mutex.unlock pool.m;
    run_chunks pool 0 j;
    Mutex.lock pool.m;
    while not (pool.active = 0 && Atomic.get j.j_next >= j.j_chunks) do
      Condition.wait pool.drained pool.m
    done;
    pool.job <- None;
    Mutex.unlock pool.m;
    Atomic.decr live_batches;
    match Atomic.get failure with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let chunk_bounds ~chunk ~jobs n =
  let size =
    match chunk with
    | Some c -> max 1 c
    | None -> max 1 (n / (8 * jobs))
  in
  let chunks = (n + size - 1) / size in
  (size, chunks)

let map_into pool ~chunk ~init f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    let size, chunks = chunk_bounds ~chunk ~jobs:pool.n_jobs n in
    run pool ~chunks (fun c ->
        let ctx = init () in
        let lo = c * size and hi = min n ((c + 1) * size) in
        for i = lo to hi - 1 do
          out.(i) <- Some (f ctx arr.(i))
        done);
    Array.map (function Some v -> v | None -> assert false) out
  end

let map_array ?chunk pool f arr =
  map_into pool ~chunk ~init:(fun () -> ()) (fun () x -> f x) arr

let map_init ?chunk pool ~init f arr = map_into pool ~chunk ~init f arr

let map_list pool f l = Array.to_list (map_array pool f (Array.of_list l))

let run_tasks pool tasks = map_array ~chunk:1 pool (fun f -> f ()) tasks

(* Deterministic model of [run]'s claim-in-order schedule: task [i] goes to
   the worker that frees up first (ties to the lowest slot), exactly what
   dynamic chunk claiming converges to when every worker is equally fast.
   Working in abstract work units keeps the result machine-independent. *)
let simulate_schedule ~jobs weights =
  let jobs = max 1 jobs in
  let finish = Array.make jobs 0 in
  Array.iter
    (fun w ->
      let k = ref 0 in
      for i = 1 to jobs - 1 do
        if finish.(i) < finish.(!k) then k := i
      done;
      finish.(!k) <- finish.(!k) + max 0 w)
    weights;
  Array.fold_left max 0 finish
