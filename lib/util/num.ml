let ceil_div a b =
  if b <= 0 then invalid_arg "Num.ceil_div";
  (a + b - 1) / b

let fceil x = if x <= 0. then 0. else Float.round (Float.ceil x)

let approx_equal ?(eps = 1e-9) a b =
  let scale = Float.max 1e-9 (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= eps *. scale +. 1e-9

