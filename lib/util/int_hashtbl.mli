(** Hash tables keyed by [int], with no polymorphic hashing or comparison
    per operation: [hash] is a multiplicative hash (multiply by an odd
    64-bit constant, keep the middle bits), which spreads dense and
    strided key runs — page ids, attribute values, packed pairs — over the
    table's buckets.  Everything else is the stdlib's [Hashtbl.Make]:
    [add] shadows, and [find_all] returns a key's bindings most recent
    first, exactly as the polymorphic [Hashtbl] does. *)

include Hashtbl.S with type key = int

(** The hash, non-negative for every int (negative keys, [min_int] and
    [max_int] included). *)
val hash : int -> int
