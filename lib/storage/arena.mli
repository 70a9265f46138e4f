(** A growable off-heap word store backed by a [Bigarray] of native ints —
    the backing memory of {!Heap_file} pages.

    Tuple data lives outside the OCaml heap: a page is a fixed-size block of
    words carved out of the arena, addressed by offset.  Blocks are allocated
    bump-pointer style and released strictly LIFO ({!release} drops the tail
    block only), matching how heap files grow and how [truncate_last] undoes
    the append that grew a page.  A heap file reuses the slots its deletes
    free inside the blocks it holds, so a block is never freed in the middle
    of the arena: the arena grows only when every page but the tail page is
    full. *)

type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

val create : ?initial_words:int -> unit -> t

val capacity_words : t -> int

val used_words : t -> int

(** [alloc t n] hands out a zero-filled block of [n] words, returning its
    word offset.  Amortized O(1): the arena doubles when full (one off-heap
    blit, invisible to the GC). *)
val alloc : t -> int -> int

(** [release t n] returns the last [n] words to the arena.  Raises
    [Invalid_argument] when [n] exceeds the words in use. *)
val release : t -> int -> unit

val get : t -> int -> int

val set : t -> int -> int -> unit

(** [words t] is the backing array itself, for word loops that index it
    with the [Bigarray.Array1] primitives (inlined in every module, unlike a
    call to {!get}).  Valid until the arena next grows ({!alloc}); a loop
    checks its window against {!in_use} once and then indexes freely. *)
val words : t -> words

(** [in_use t ~off ~len] — whether [[off, off + len)] lies inside the words
    handed out. *)
val in_use : t -> off:int -> len:int -> bool

(** [blit_from_array t ~off src] copies [src] into the arena at [off]. *)
val blit_from_array : t -> off:int -> int array -> unit

(** [to_array t ~off ~len] materializes a block as a fresh [int array] (for
    callers that need an OCaml-heap tuple).  Raises
    [Invalid_argument "Arena.to_array"] when the window is not {!in_use}. *)
val to_array : t -> off:int -> len:int -> int array
