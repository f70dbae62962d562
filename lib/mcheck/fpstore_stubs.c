/* Atomic word operations over a Bigarray-of-int region.
 *
 * OCaml 5.1's stdlib has no atomic arrays: an [int Atomic.t array] boxes
 * one mutable record per cell. The fingerprint store keeps its words in
 * Bigarrays of kind [int] instead (one untagged intnat per cell,
 * malloc'd outside the OCaml heap, so the data pointer is stable and
 * addressable from every domain), and these stubs provide the atomic
 * accesses via the GCC/Clang __atomic builtins: the exact store's shard
 * locks (CAS to take, release store to drop) and counters, and
 * bitstate's fetch_or. The exact store's tables are read and written
 * with plain Bigarray accesses by the holder of their shard's lock.
 *
 * All entry points are [@@noalloc]: they allocate nothing and never
 * release the runtime lock, so they cost a C call and the atomic op.
 *
 * Values cross the boundary through Long_val/Val_long: a 63-bit OCaml
 * int sign-extends into the intnat cell and truncates back losslessly.
 */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>

static intnat *cell(value ba, value i)
{
  return (intnat *) Caml_ba_data_val(ba) + Long_val(i);
}

CAMLprim value pa_fps_get(value ba, value i)
{
  return Val_long(__atomic_load_n(cell(ba, i), __ATOMIC_ACQUIRE));
}

CAMLprim value pa_fps_set(value ba, value i, value v)
{
  __atomic_store_n(cell(ba, i), Long_val(v), __ATOMIC_RELEASE);
  return Val_unit;
}

CAMLprim value pa_fps_cas(value ba, value i, value expected, value desired)
{
  intnat exp = Long_val(expected);
  return Val_bool(__atomic_compare_exchange_n(
      cell(ba, i), &exp, Long_val(desired), 0, __ATOMIC_ACQ_REL,
      __ATOMIC_ACQUIRE));
}

CAMLprim value pa_fps_fetch_or(value ba, value i, value v)
{
  return Val_long(__atomic_fetch_or(cell(ba, i), Long_val(v),
                                    __ATOMIC_ACQ_REL));
}

CAMLprim value pa_fps_fetch_add(value ba, value i, value v)
{
  return Val_long(__atomic_fetch_add(cell(ba, i), Long_val(v),
                                     __ATOMIC_ACQ_REL));
}
