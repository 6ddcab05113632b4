/**
 * @file
 * AVX-512F kernel table. Compiled with "-mavx512f -mavx2 -mfma" scoped
 * to this TU only (CMakeLists.txt) — the #error guard catches a build
 * that lost the per-source flags, which would otherwise quietly produce
 * a mislabelled table. Runtime safety is kernel::runnableTables()'s job:
 * this table is only listed when the CPU runs AVX-512F, OS zmm state
 * included.
 */

#if !defined(__AVX512F__) || !defined(__AVX2__) || !defined(__FMA__)
#error "kernels_avx512.cc requires -mavx512f -mavx2 -mfma (per-TU flags)"
#endif

#define RSN_KERNEL_VARIANT_AVX512 1
#define RSN_KERNEL_NS avx512
#define RSN_KERNEL_NAME_STR "avx512"
#include "fu/kernels/kernel_impl.inc"
