/**
 * @file
 * AVX2+FMA kernel table. Compiled with "-mavx2 -mfma" scoped to this
 * TU only (CMakeLists.txt); runnable whenever the CPU runs AVX2 and FMA,
 * OS ymm state included.
 */

#if !defined(__AVX2__) || !defined(__FMA__)
#error "kernels_avx2.cc requires -mavx2 -mfma (per-TU flags)"
#endif

#define RSN_KERNEL_VARIANT_AVX2 1
#define RSN_KERNEL_NS avx2
#define RSN_KERNEL_NAME_STR "avx2"
#include "fu/kernels/kernel_impl.inc"
