(* Deterministic fault injection for the simulated storage device.  See
   faults.mli for the model.  The key property is replayability: a plan's
   behavior is a pure function of (schedules, seed, operation sequence), so
   any fault trace can be reproduced from the integers that built it. *)

module Int_hashtbl = Vis_util.Int_hashtbl

type op = Read | Write | Alloc

type kind = Transient | Crash | Permanent

type fault = {
  f_op : op;
  f_kind : kind;
  f_page : int;
  f_seq : int;
  f_retries : int;
}

exception Injected of fault

(* Silent-corruption fault kinds.  Unlike the fail-stop kinds above they do
   not raise at the injection site: a Bit_flip damages the payload the
   device just "wrote" and returns normally, a Torn_write persists only a
   prefix of it and then surfaces as a crash.  Both are polled on a
   separate [damage] pass so their counters and RNG draws never perturb a
   fail-stop plan's stream. *)
type corruption = Bit_flip | Torn_write

type schedule =
  | Fail_nth of { op : op option; n : int; kind : kind }
  | Fail_page of { op : op option; page : int; kind : kind }
  | Fail_prob of { op : op option; p : float; kind : kind }
  | Corrupt_nth of { op : op option; n : int; way : corruption }
  | Corrupt_page of { op : op option; page : int; way : corruption }
  | Corrupt_prob of { op : op option; p : float; way : corruption }

type policy = {
  max_retries : int;
  base_delay_ms : float;
  multiplier : float;
  max_delay_ms : float;
}

let default_policy =
  { max_retries = 4; base_delay_ms = 1.0; multiplier = 2.0; max_delay_ms = 50.0 }

(* A live schedule carries its own match counter ([s_hits]) so Fail_nth
   counts matching operations, and a [s_spent] flag so Crash faults fire
   exactly once. *)
type slot = { sched : schedule; mutable s_hits : int; mutable s_spent : bool }

type t = {
  policy : policy;
  slots : slot list;
  rng : Random.State.t;  (* private stream for Fail_prob draws *)
  mutable t_armed : bool;
  mutable t_seq : int;
  mutable t_injected : int;
  mutable t_retries : int;
  mutable t_elapsed_ms : float;
}

let make ?(policy = default_policy) ?(seed = 0) schedules =
  {
    policy;
    slots = List.map (fun sched -> { sched; s_hits = 0; s_spent = false }) schedules;
    rng = Random.State.make [| 0x4661756c; seed |];
    t_armed = false;
    t_seq = 0;
    t_injected = 0;
    t_retries = 0;
    t_elapsed_ms = 0.0;
  }

let none () = make []

let random ?(policy = default_policy) ?(schedules = 3) ~rng () =
  let random_op () =
    match Random.State.int rng 4 with
    | 0 -> None
    | 1 -> Some Read
    | 2 -> Some Write
    | _ -> Some Alloc
  in
  let random_kind () =
    (* Bias toward Crash: it exercises the recovery path, which is what the
       crash-recovery oracle is for.  Transient and Permanent still appear
       often enough to cover retry and degradation. *)
    match Random.State.int rng 8 with
    | 0 | 1 -> Transient
    | 2 -> Permanent
    | _ -> Crash
  in
  let random_schedule () =
    match Random.State.int rng 3 with
    | 0 ->
        Fail_nth
          { op = random_op (); n = 1 + Random.State.int rng 400; kind = random_kind () }
    | 1 ->
        Fail_page
          { op = random_op (); page = Random.State.int rng 64; kind = random_kind () }
    | _ ->
        Fail_prob
          {
            op = random_op ();
            p = 0.001 +. (Random.State.float rng 0.01);
            kind = random_kind ();
          }
  in
  let n = 1 + Random.State.int rng schedules in
  (* Seed the plan's private Fail_prob stream from the caller's RNG so the
     whole plan replays from the caller's (seed, trial) state. *)
  let seed = Random.State.bits rng in
  make ~policy ~seed (List.init n (fun _ -> random_schedule ()))

let arm t = t.t_armed <- true

let disarm t = t.t_armed <- false

let armed t = t.t_armed

let op_matches filter op =
  match filter with None -> true | Some o -> o = op

(* Decide whether [slot] fires for this operation.  Must be called for every
   matching operation even when a fault from an earlier slot already fired,
   so counters and the probability stream stay aligned with the fault-free
   replay of the same plan.  Corruption slots never fire here — they are
   polled by [damage] after the operation succeeded. *)
let slot_fires t slot op ~page =
  match slot.sched with
  | Fail_nth s ->
      if op_matches s.op op then begin
        slot.s_hits <- slot.s_hits + 1;
        (not slot.s_spent) && slot.s_hits = s.n
      end
      else false
  | Fail_page s ->
      op_matches s.op op && page = s.page && not slot.s_spent
  | Fail_prob s ->
      if op_matches s.op op then begin
        let draw = Random.State.float t.rng 1.0 in
        (not slot.s_spent) && draw < s.p
      end
      else false
  | Corrupt_nth _ | Corrupt_page _ | Corrupt_prob _ -> false

let kind_rank = function Transient -> 0 | Crash -> 1 | Permanent -> 2

(* One pass over the schedules: every slot sees the operation (keeping all
   counters/RNG draws in lockstep), and if several fire at once the most
   severe kind wins.  Firing Crash slots are spent even when a more severe
   fault shadows them. *)
let poll t op ~page =
  let fired = ref None in
  List.iter
    (fun slot ->
      if slot_fires t slot op ~page then begin
        (match slot.sched with
        | Fail_nth { kind = Crash; _ }
        | Fail_page { kind = Crash; _ }
        | Fail_prob { kind = Crash; _ } ->
            slot.s_spent <- true
        | _ -> ());
        let kind =
          match slot.sched with
          | Fail_nth s -> s.kind
          | Fail_page s -> s.kind
          | Fail_prob s -> s.kind
          | Corrupt_nth _ | Corrupt_page _ | Corrupt_prob _ ->
              assert false (* corruption slots never fire in slot_fires *)
        in
        match !fired with
        | Some k when kind_rank k >= kind_rank kind -> ()
        | _ -> fired := Some kind
      end)
    t.slots;
  !fired

(* Corruption counterpart of [slot_fires]: consulted once per *successful*
   write-class operation, with its own hit counters, so fail-stop and
   corruption schedules in one plan keep independent, replayable streams.
   Every firing corruption slot is spent — the device damages a given
   target once. *)
let damage_fires t slot op ~page =
  match slot.sched with
  | Fail_nth _ | Fail_page _ | Fail_prob _ -> false
  | Corrupt_nth s ->
      if op_matches s.op op then begin
        slot.s_hits <- slot.s_hits + 1;
        (not slot.s_spent) && slot.s_hits = s.n
      end
      else false
  | Corrupt_page s -> op_matches s.op op && page = s.page && not slot.s_spent
  | Corrupt_prob s ->
      if op_matches s.op op then begin
        let draw = Random.State.float t.rng 1.0 in
        (not slot.s_spent) && draw < s.p
      end
      else false

(* [damage t op ~page] — polled by the buffer pool after a write-class
   operation succeeded.  Returns the corruption to apply to the page's
   payload plus a seeded selector (which bit to flip / where to tear),
   drawn from the plan's private RNG so the damage site replays with the
   plan.  A Torn_write shadows a Bit_flip when both fire on one op. *)
let damage t op ~page =
  if not (t.t_armed && t.slots <> []) then None
  else begin
    let fired = ref None in
    List.iter
      (fun slot ->
        if damage_fires t slot op ~page then begin
          slot.s_spent <- true;
          let way =
            match slot.sched with
            | Corrupt_nth s -> s.way
            | Corrupt_page s -> s.way
            | Corrupt_prob s -> s.way
            | Fail_nth _ | Fail_page _ | Fail_prob _ -> assert false
          in
          match (!fired, way) with
          | None, _ | Some (Bit_flip, _), Torn_write ->
              fired := Some (way, Random.State.bits t.rng)
          | Some _, _ -> ()
        end)
      t.slots;
    if !fired <> None then t.t_injected <- t.t_injected + 1;
    !fired
  end

(* A pure at-rest damage plan: [n] (way, target pick, selector) triples
   drawn entirely from [rng], for callers that corrupt a quiesced store
   directly (the corruption-recovery oracle, [visadvisor validate
   --scrub]).  [pick] indexes the caller's deterministic target-page list;
   two draws never pick the same target. *)
let random_damage ?(n = 2) ~rng ~targets () =
  if targets <= 0 then []
  else begin
    let n = min n targets in
    let picked = Int_hashtbl.create 8 in
    let rec fresh_pick () =
      let p = Random.State.int rng targets in
      if Int_hashtbl.mem picked p then fresh_pick ()
      else begin
        Int_hashtbl.replace picked p ();
        p
      end
    in
    List.init n (fun _ ->
        let way =
          if Random.State.int rng 3 = 0 then Torn_write else Bit_flip
        in
        let pick = fresh_pick () in
        let sel = Random.State.bits rng in
        (way, pick, sel))
  end

let check t op ~page =
  t.t_seq <- t.t_seq + 1;
  if t.t_armed && t.slots <> [] then begin
    match poll t op ~page with
    | None -> ()
    | Some Transient ->
        (* Retry in place with bounded exponential backoff on a simulated
           clock.  Each retry re-polls the plan: a retried operation can hit
           a *different* schedule (e.g. the Nth-op counter advanced), which
           is exactly how a real device retry behaves. *)
        let p = t.policy in
        let rec retry attempt delay_ms =
          if attempt > p.max_retries then
            begin
              t.t_injected <- t.t_injected + 1;
              raise
                (Injected
                   {
                     f_op = op;
                     f_kind = Transient;
                     f_page = page;
                     f_seq = t.t_seq;
                     f_retries = attempt - 1;
                   })
            end
          else begin
            t.t_retries <- t.t_retries + 1;
            t.t_elapsed_ms <- t.t_elapsed_ms +. delay_ms;
            t.t_seq <- t.t_seq + 1;
            match poll t op ~page with
            | None -> ()
            | Some Transient ->
                retry (attempt + 1)
                  (Float.min (delay_ms *. p.multiplier) p.max_delay_ms)
            | Some kind ->
                t.t_injected <- t.t_injected + 1;
                raise
                  (Injected
                     {
                       f_op = op;
                       f_kind = kind;
                       f_page = page;
                       f_seq = t.t_seq;
                       f_retries = attempt;
                     })
          end
        in
        retry 1 p.base_delay_ms
    | Some kind ->
        t.t_injected <- t.t_injected + 1;
        raise
          (Injected
             { f_op = op; f_kind = kind; f_page = page; f_seq = t.t_seq; f_retries = 0 })
  end

let seq t = t.t_seq

let injected t = t.t_injected

let retries t = t.t_retries

let elapsed_ms t = t.t_elapsed_ms

let op_name = function Read -> "read" | Write -> "write" | Alloc -> "alloc"

let kind_name = function
  | Transient -> "transient"
  | Crash -> "crash"
  | Permanent -> "permanent"

let pp_fault ppf f =
  Format.fprintf ppf "%s %s on page %d at op #%d (%d retries)"
    (kind_name f.f_kind) (op_name f.f_op) f.f_page f.f_seq f.f_retries
