/**
 * @file
 * Portable kernel table: the auto-vectorizable forms of the same
 * algorithms, compiled with the build's baseline flags and no
 * intrinsics. Always compiled in, and the default table on CPUs
 * where no register variant is executable. Note the variant macro, not
 * the compiler's predefined macros, selects the implementation — under
 * a -march=native build this table still contains the portable code it
 * is named for.
 */

#define RSN_KERNEL_VARIANT_PORTABLE 1
#define RSN_KERNEL_NS portable
#define RSN_KERNEL_NAME_STR "portable"
#include "fu/kernels/kernel_impl.inc"
