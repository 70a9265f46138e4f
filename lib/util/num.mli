(** Small numeric helpers shared by the cost model. *)

(** [ceil_div a b] is [⌈a / b⌉] for positive integers. *)
val ceil_div : int -> int -> int

(** [fceil x] is [ceil x] as a float; negative inputs are clamped to 0 —
    the cost model never produces negative page counts. *)
val fceil : float -> float

(** [approx_equal ?eps a b] compares floats with a relative tolerance
    (default [1e-9]) and an absolute floor of [1e-9]. *)
val approx_equal : ?eps:float -> float -> float -> bool
