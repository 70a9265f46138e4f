(** Word-granular FNV-1a checksums for simulated page payloads and WAL
    records.

    The device model stores native words, not bytes, so checksums fold
    words directly.  All operations are pure and host-independent: the
    same payload always hashes to the same non-negative int, which is what
    lets a stored checksum computed at write-out time convict a payload
    that rotted afterwards.

    Two functions are built from one step, [mix h w = (h lxor w) * p] in
    OCaml's wrapping int arithmetic, with [p = 0x100000001b3]:

    - {e Serial} ({!add}/{!finish}): a running state folds its words one
      after another.  WAL record CRCs and B+-tree node seals use it.
    - {e Page seal} ({!arena}): the window [w.(0) .. w.(len - 1)] is split
      over four lanes.  Lane [k] (k = 0..3) starts at [init + k] and folds
      [w.(k)], [w.(k + 4)], [w.(k + 8)], ... for every index below
      [len - len mod 4]; the last [len mod 4] words then fold into lane 0,
      in order.  The seal is
      [finish (mix (mix (mix (mix l0 l1) l2) l3) len)], and
      [finish init] for [len = 0].  The fold runs in a C kernel
      (checksum_stubs.c) whose unsigned 64-bit arithmetic agrees with this
      definition bit for bit.

    Either way, flipping any one of a word's low 62 bits changes the
    result: each step is a bijection of the state that keeps its lowest
    differing bit, and {!finish} keeps bits 0..61. *)

(** Running-state seed for incremental use via {!add}. *)
val empty : int

(** [add h w] folds one word into a running checksum. *)
val add : int -> int -> int

(** [finish h] clamps a running checksum to a non-negative int (its low 62
    bits). *)
val finish : int -> int

(** [arena a ~off ~len] — the page seal of an arena window (defined
    above; [init] defaults to {!empty}), read in place without
    materializing it.  Raises [Invalid_argument "Checksum.arena"] when the
    window is not {!Arena.in_use}. *)
val arena : ?init:int -> Arena.t -> off:int -> len:int -> int
