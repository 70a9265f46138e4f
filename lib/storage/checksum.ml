(* FNV-1a over native words.  The simulated device stores whole words, so
   the checksum folds each word in directly instead of byte-splitting; the
   multiply wraps in native int arithmetic, which is deterministic across
   hosts (OCaml ints are 63-bit everywhere this repo builds). *)

(* FNV-1a offset basis, truncated to OCaml's 63-bit int range.  Only
   consistency matters here, not the exact FNV constants. *)
let fnv_offset = 0x3bf29ce484222325
let fnv_prime = 0x100000001b3

let mix h w = (h lxor w) * fnv_prime

let empty = fnv_offset

let add = mix

let finish h = h land max_int

let array ?(init = empty) a =
  finish (Array.fold_left mix init a)

(* The hottest loop of a checksummed read: index the backing array in this
   module (see [Arena]) after one window check, not [Arena.get] per word. *)
let arena ?(init = empty) arena ~off ~len =
  if not (Arena.in_use arena ~off ~len) then invalid_arg "Checksum.arena";
  let d = Arena.words arena in
  let h = ref init in
  for i = off to off + len - 1 do
    h := mix !h (Bigarray.Array1.unsafe_get d i)
  done;
  finish !h
