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

(* The 4-lane kernel over [words.{off .. off + len - 1}] (see
   checksum_stubs.c), for [len > 0] on a window already checked. *)
external lanes :
  Arena.words ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) = "vis_checksum_arena_byte" "vis_checksum_arena"
[@@noalloc]

let arena ?(init = empty) arena ~off ~len =
  if not (Arena.in_use arena ~off ~len) then invalid_arg "Checksum.arena";
  if len = 0 then finish init else lanes (Arena.words arena) init off len
