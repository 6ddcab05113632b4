/**
 * @file
 * NEON kernel table. NEON is baseline on aarch64, so this TU needs no
 * extra -march flags — it is simply only added to the build on ARM
 * targets (CMakeLists.txt).
 */

#ifndef __ARM_NEON
#error "kernels_neon.cc requires an ARM NEON target"
#endif

#define RSN_KERNEL_VARIANT_NEON 1
#define RSN_KERNEL_NS neon
#define RSN_KERNEL_NAME_STR "neon"
#include "fu/kernels/kernel_impl.inc"
