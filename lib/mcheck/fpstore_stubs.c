/* Atomic word operations over a Bigarray-of-int region.
 *
 * OCaml 5.1's stdlib has no atomic arrays: an [int Atomic.t array] boxes
 * one mutable record per cell, which is hopeless for a multi-megaword
 * fingerprint store. Instead the store is a flat Bigarray of kind [int]
 * (one untagged intnat per cell, malloc'd outside the OCaml heap, so the
 * data pointer is stable and addressable from every domain), and these
 * stubs provide the atomic accesses via the GCC/Clang __atomic builtins.
 *
 * All entry points are [@@noalloc]: they allocate nothing and never
 * release the runtime lock, so they cost a C call and the atomic op.
 *
 * Values cross the boundary through Long_val/Val_long: a 63-bit OCaml
 * int sign-extends into the intnat cell and truncates back losslessly,
 * so an all-ones OCaml int (-1) round-trips as all-ones — which is what
 * the "remaining moves" protocol in fpstore.ml relies on for its
 * fetch-and masking.
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

CAMLprim value pa_fps_cas(value ba, value i, value expected, value desired)
{
  intnat exp = Long_val(expected);
  return Val_bool(__atomic_compare_exchange_n(
      cell(ba, i), &exp, Long_val(desired), 0, __ATOMIC_ACQ_REL,
      __ATOMIC_ACQUIRE));
}

CAMLprim value pa_fps_fetch_and(value ba, value i, value v)
{
  return Val_long(__atomic_fetch_and(cell(ba, i), Long_val(v),
                                     __ATOMIC_ACQ_REL));
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
