/* The page-seal kernel of [Checksum.arena]: four interleaved FNV-1a lanes
   over a window of the arena's Bigarray.  Lane k (k = 0..3) is seeded with
   [init + k] and folds words [off + k], [off + k + 4], ...; the words past
   the last multiple of 4 go into lane 0.  The seal is
   [finish (mix (mix (mix (mix l0 l1) l2) l3) len)].

   The four multiply chains are independent, so they overlap in the
   pipeline instead of waiting on one another.  The arithmetic is unsigned
   64-bit: xor and multiplication keep the low 63 bits of a result a
   function of the low 63 bits of their operands, so after [finish] masks
   to 62 bits the value equals the same fold in OCaml's 63-bit ints, bit
   for bit.  The OCaml side has checked the window against the arena's
   words in use; nothing here allocates or raises. */

#include <stdint.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#define FNV_PRIME UINT64_C(0x100000001b3)
#define FINISH_MASK UINT64_C(0x3fffffffffffffff)

static inline uint64_t mix(uint64_t h, uint64_t w)
{
  return (h ^ w) * FNV_PRIME;
}

intnat vis_checksum_arena(value words, intnat init, intnat off, intnat len)
{
  const intnat *d = (const intnat *) Caml_ba_data_val(words) + off;
  uint64_t l0 = (uint64_t) init, l1 = l0 + 1, l2 = l0 + 2, l3 = l0 + 3;
  intnat body = len & ~(intnat) 3, i;
  for (i = 0; i < body; i += 4) {
    l0 = mix(l0, (uint64_t) d[i]);
    l1 = mix(l1, (uint64_t) d[i + 1]);
    l2 = mix(l2, (uint64_t) d[i + 2]);
    l3 = mix(l3, (uint64_t) d[i + 3]);
  }
  for (; i < len; i++)
    l0 = mix(l0, (uint64_t) d[i]);
  return (intnat) (mix(mix(mix(mix(l0, l1), l2), l3), (uint64_t) len)
                   & FINISH_MASK);
}

value vis_checksum_arena_byte(value words, value init, value off, value len)
{
  return Val_long(
      vis_checksum_arena(words, Long_val(init), Long_val(off), Long_val(len)));
}
