(** Word-granular FNV-1a checksums for simulated page payloads and WAL
    records.

    The device model stores native words, not bytes, so checksums fold
    words directly.  All operations are pure and host-independent: the
    same payload always hashes to the same non-negative int, which is what
    lets a stored checksum computed at write-out time convict a payload
    that rotted afterwards. *)

(** Running-state seed for incremental use via {!add}. *)
val empty : int

(** [add h w] folds one word into a running checksum. *)
val add : int -> int -> int

(** [finish h] clamps a running checksum to a non-negative int. *)
val finish : int -> int

(** [array a] — checksum of an int array ([init] continues a running
    state). *)
val array : ?init:int -> int array -> int

(** [arena a ~off ~len] — checksum of an arena window, without
    materializing it.  Raises [Invalid_argument "Checksum.arena"] when the
    window is not {!Arena.in_use}. *)
val arena : ?init:int -> Arena.t -> off:int -> len:int -> int
