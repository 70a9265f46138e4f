let hash k = (k * 0x1E3779B97F4A7C15) lsr 20

include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  let hash = hash
end)
