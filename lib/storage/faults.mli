(** Deterministic fault injection for the simulated storage device.

    A {e fault plan} decides, per physical page operation, whether that
    operation fails.  The buffer pool consults the plan at every read
    (miss), write (dirty eviction, write-back) and page allocation, so a
    plan can fail any I/O the storage engine performs — by schedule ("fail
    the Nth write"), by page ("every write to page 17 fails"), or by a
    seeded per-operation coin flip.  Plans are pure functions of their
    construction arguments: the same plan consulted by the same operation
    sequence injects the same faults, whatever the host or [--jobs]
    setting, which is what makes crash-recovery runs replayable.

    Faults come in three kinds:

    - {e transient} faults model recoverable device hiccups.  The injection
      site itself retries with bounded exponential backoff (the delays are
      charged to a simulated clock, never a real [sleep]); only when the
      retry budget is exhausted does the fault escalate and surface.
    - {e crash} faults model a process death mid-batch: they fire once and
      are then spent, so a recovery followed by a re-run of the batch
      succeeds.
    - {e permanent} faults model corrupted media: they fire on every
      matching operation, so re-running the batch fails again and the
      maintenance layer must degrade to recomputation.

    All surfaced faults are raised as the single typed exception
    {!Injected}, which the maintenance layer catches at its API boundary
    and converts to a [result] — no other exception ever crosses the
    storage API because of an injected fault.

    {2 Silent corruption}

    A fourth and fifth failure mode damage data instead of refusing
    operations: {!corruption} faults ([Bit_flip], [Torn_write]) fire on the
    {e successful} completion of a write-class operation and mutate the
    page payload the device just accepted.  A bit flip is entirely silent —
    the operation reports success and only a later checksum verification
    (read-path or scrub) can convict the page.  A torn write persists a
    prefix of the payload and then surfaces as a {!Crash} (the process died
    mid-transfer), so recovery runs against a half-written page or log
    tail.  Corruption schedules are polled on a separate {!damage} pass
    with their own hit counters, so adding them to a plan never perturbs
    the fail-stop schedules' counting or probability stream.

    {2 Schedule edge cases and precedence (pinned behavior)}

    - [Fail_nth]/[Corrupt_nth] with [n <= 0] never fires: hit counters are
      1-based, so no operation count ever equals a non-positive [n].
    - [Fail_prob] with [p = 0.0] never fires (draws are in [[0, 1)] and the
      test is strict [draw < p]); with [p = 1.0] it fires on {e every}
      matching operation — under kind [Transient] the in-place retries all
      fail too, so the fault escalates after the retry budget.
    - When several schedules fire on the same operation (e.g. a [Fail_page]
      and a [Fail_nth] both matching it), every firing slot still advances
      its own counters, then the {e most severe} kind wins —
      [Transient < Crash < Permanent] — with ties going to the earliest
      slot in the plan's list.  Firing [Crash] slots are spent even when a
      more severe fault shadows them, so the shadowed crash does not fire
      again later.
    - When a [Bit_flip] and a [Torn_write] corruption both fire on one
      write, the torn write wins (it subsumes the flip: the payload is
      already half-gone); every firing corruption slot is spent. *)

type op = Read | Write | Alloc

type kind =
  | Transient  (** retried in place; surfaces only past the retry budget *)
  | Crash  (** one-shot; spent once it fires *)
  | Permanent  (** fires on every matching operation *)

type fault = {
  f_op : op;
  f_kind : kind;
  f_page : int;  (** page the failing operation addressed *)
  f_seq : int;  (** global operation sequence number at injection *)
  f_retries : int;  (** transient retries spent before surfacing *)
}

exception Injected of fault

type corruption =
  | Bit_flip  (** flip one payload bit post-write; fully silent *)
  | Torn_write
      (** persist only a payload prefix, then surface as a {!Crash} *)

type schedule =
  | Fail_nth of { op : op option; n : int; kind : kind }
      (** fail the [n]-th (1-based) operation of type [op] ([None] = any) *)
  | Fail_page of { op : op option; page : int; kind : kind }
      (** fail every matching operation addressing [page] *)
  | Fail_prob of { op : op option; p : float; kind : kind }
      (** fail each matching operation with probability [p], drawn from the
          plan's private seeded RNG *)
  | Corrupt_nth of { op : op option; n : int; way : corruption }
      (** damage the payload of the [n]-th successful matching write-class
          operation (own 1-based counter, independent of [Fail_nth]) *)
  | Corrupt_page of { op : op option; page : int; way : corruption }
      (** damage [page]'s payload on its next successful matching write *)
  | Corrupt_prob of { op : op option; p : float; way : corruption }
      (** damage each successful matching write with probability [p] *)

type policy = {
  max_retries : int;  (** transient attempts before escalating *)
  base_delay_ms : float;  (** first backoff delay *)
  multiplier : float;  (** backoff growth per retry *)
  max_delay_ms : float;  (** backoff cap *)
}

(** 4 retries, 1 ms base delay, doubling, capped at 50 ms. *)
val default_policy : policy

type t

(** [make ?policy ?seed schedules] — [seed] feeds the private RNG behind
    [Fail_prob] draws (default 0).  The plan starts {e disarmed}. *)
val make : ?policy:policy -> ?seed:int -> schedule list -> t

(** A plan with no schedules: never injects. *)
val none : unit -> t

(** [random ?policy ?schedules ~rng ()] draws a small random plan —
    [schedules] (default 3) schedules of random op/kind/site — entirely from
    [rng], so a [(seed, trial)]-keyed state replays the same plan. *)
val random : ?policy:policy -> ?schedules:int -> rng:Random.State.t -> unit -> t

(** Arming gates injection: a disarmed plan passes every operation through
    (counters still advance), so callers can scope faults to exactly the
    region under test (e.g. delta application but not staging or
    recovery). *)
val arm : t -> unit

val disarm : t -> unit

val armed : t -> bool

(** [check t op ~page] — called by the buffer pool on each physical
    operation.  Returns normally when the operation succeeds (possibly
    after internal transient retries), raises {!Injected} when it fails. *)
val check : t -> op -> page:int -> unit

(** [damage t op ~page] — polled by the buffer pool after a write-class
    operation {e succeeded}: [Some (way, selector)] means the device
    damaged the payload it just accepted.  The selector is a non-negative
    seeded draw the payload owner maps onto a damage site (which bit,
    where to tear), so the whole event is a pure function of the plan.
    Corruption slots are spent once fired; a disarmed plan never returns
    damage.  Does not advance the fail-stop operation sequence. *)
val damage : t -> op -> page:int -> (corruption * int) option

(** [random_damage ?n ~rng ~targets ()] draws a pure {e at-rest} damage
    plan: up to [n] (default 2) [(way, pick, selector)] triples with
    distinct [pick]s in [[0, targets)], entirely from [rng].  Callers map
    [pick] onto a deterministic target-page list and apply the damage
    directly to a quiesced store ([Buffer_pool.corrupt_page]) — this is
    how the corruption-recovery oracle injects media rot that no write
    triggered. *)
val random_damage :
  ?n:int -> rng:Random.State.t -> targets:int -> unit ->
  (corruption * int * int) list

(** Operations consulted so far (including while disarmed). *)
val seq : t -> int

(** Faults surfaced (raised) so far. *)
val injected : t -> int

(** Transient retries performed so far. *)
val retries : t -> int

(** Simulated milliseconds spent in backoff delays. *)
val elapsed_ms : t -> float

val pp_fault : Format.formatter -> fault -> unit

val op_name : op -> string

val kind_name : kind -> string
