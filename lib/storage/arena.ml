(* A growable off-heap word store backed by a [Bigarray].  The arena is the
   backing memory of a heap file's pages: fixed-size page blocks are carved
   out of one flat array of native ints living outside the OCaml heap, so
   tuple data puts no pressure on the GC and a page is a block (offset +
   length) rather than an allocation.

   Word loops do not call [get] per word: under dune's dev profile every
   module is compiled [-opaque], so a cross-module [get] is an out-of-line
   call.  A loop instead takes [words t] once, checks its window once, and
   indexes the [Bigarray] with its primitives, which are inlined in any
   module.

   Blocks are handed out bump-pointer style and released strictly LIFO
   (only the tail block can be dropped) — exactly the discipline of heap
   files, whose pages grow at the tail, reuse freed slots in place, and are
   only ever dropped by [truncate_last] undoing the append that grew
   them. *)

type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { mutable data : words; mutable used : int }

let alloc_words n : words = Bigarray.(Array1.create int c_layout) n

let create ?(initial_words = 1024) () =
  if initial_words < 1 then invalid_arg "Arena.create";
  { data = alloc_words initial_words; used = 0 }

let used_words t = t.used

(* Doubling growth; the old block is blitted once and becomes garbage for
   the OS allocator, never for the OCaml GC. *)
let ensure t n =
  let cap = Bigarray.Array1.dim t.data in
  if t.used + n > cap then begin
    let ncap = ref (max 8 (2 * cap)) in
    while t.used + n > !ncap do
      ncap := 2 * !ncap
    done;
    let ndata = alloc_words !ncap in
    Bigarray.Array1.blit
      (Bigarray.Array1.sub t.data 0 t.used)
      (Bigarray.Array1.sub ndata 0 t.used);
    t.data <- ndata
  end

(* [alloc t n] hands out a zero-filled block of [n] words and returns its
   offset. *)
let alloc t n =
  if n < 0 then invalid_arg "Arena.alloc";
  ensure t n;
  let off = t.used in
  Bigarray.Array1.fill (Bigarray.Array1.sub t.data off n) 0;
  t.used <- t.used + n;
  off

(* [release t n] returns the last [n] words to the arena — only the tail
   block may be released (LIFO). *)
let release t n =
  if n < 0 || n > t.used then invalid_arg "Arena.release";
  t.used <- t.used - n

let get t off = Bigarray.Array1.get t.data off

let set t off v = Bigarray.Array1.set t.data off v

let words t = t.data

let in_use t ~off ~len = off >= 0 && len >= 0 && off <= t.used - len

let blit_from_array t ~off (src : int array) =
  for i = 0 to Array.length src - 1 do
    Bigarray.Array1.set t.data (off + i) src.(i)
  done

let to_array t ~off ~len =
  if not (in_use t ~off ~len) then invalid_arg "Arena.to_array";
  if len = 0 then [||]
  else begin
    let d = t.data in
    let a = Array.make len (Bigarray.Array1.unsafe_get d off) in
    for i = 1 to len - 1 do
      Array.unsafe_set a i (Bigarray.Array1.unsafe_get d (off + i))
    done;
    a
  end
