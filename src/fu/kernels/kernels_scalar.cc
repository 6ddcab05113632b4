/**
 * @file
 * Exact-scalar reference table: the one KernelTable whose results are
 * the *reference semantics*, not an approximation. GEMM is the
 * pre-blocked scalar loop (fu::gemmRefAccumulate), the nonlinear
 * operators are the exact libm kernels (fu/nonlinear.hh — erf GELU,
 * libm exp softmax, double-accumulation LayerNorm), and transpose is
 * the naive scalar loop. Property tests compare every other table
 * against this one; the golden numeric tier runs it; it is never
 * active by default (RSN_ISA=scalar / --isa scalar opt in).
 *
 * This TU replaces the retired NonlinearMode::Exact runtime switch:
 * "exact mode" is now simply this table being active.
 */

#include <cstddef>
#include <cstdint>

#include "common/dtype.hh"
#include "fu/gemm_kernel.hh"
#include "fu/kernel_registry.hh"
#include "fu/nonlinear.hh"

namespace rsn::kernel::scalar {

namespace {

void
gemmAccumulateImpl(fu::GemmScratch &, float *acc, const float *lhs,
                   const float *rhs, std::uint32_t m, std::uint32_t k,
                   std::uint32_t n)
{
    fu::gemmRefAccumulate(acc, lhs, rhs, m, k, n);
}

void
softmaxRowsImpl(float *tile, std::uint32_t rows, std::uint32_t cols)
{
    fu::softmaxRows(tile, rows, cols);
}

void
geluInplaceImpl(float *tile, std::size_t n)
{
    fu::geluInplace(tile, n);
}

void
layernormRowsImpl(float *tile, std::uint32_t rows, std::uint32_t cols)
{
    fu::layernormRows(tile, rows, cols);
}

void
transposeImpl(float *dst, const float *src, std::uint32_t rows,
              std::uint32_t cols)
{
    for (std::uint32_t i = 0; i < rows; ++i)
        for (std::uint32_t j = 0; j < cols; ++j)
            dst[std::size_t(j) * rows + i] = src[std::size_t(i) * cols + j];
}

// Typed-tile reference entries (ISSUE 10): plain element loops over
// the shared converters in common/dtype.hh — the baseline the
// property tests compare every vectorized table's conversions against
// (which must match bit-exactly, not within tolerance).

void
bf16ToF32Impl(float *dst, const std::uint16_t *src, std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i)
        dst[i] = bf16ToF32(src[i]);
}

void
f32ToBf16Impl(std::uint16_t *dst, const float *src, std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i)
        dst[i] = f32ToBf16(src[i]);
}

/** Reference bf16 GEMM: upconvert both operands into scratch panels,
 *  then the exact scalar FP32 loop — accumulate-in-FP32 by
 *  construction. */
void
gemmAccumulateBf16Impl(fu::GemmScratch &scratch, float *acc,
                       const std::uint16_t *lhs, const std::uint16_t *rhs,
                       std::uint32_t m, std::uint32_t k, std::uint32_t n)
{
    if (m == 0 || k == 0 || n == 0)
        return;
    float *lf = scratch.cvtLhsPanel(std::uint64_t(m) * k);
    float *rf = scratch.cvtRhsPanel(std::uint64_t(k) * n);
    bf16ToF32Impl(lf, lhs, std::uint64_t(m) * k);
    bf16ToF32Impl(rf, rhs, std::uint64_t(k) * n);
    fu::gemmRefAccumulate(acc, lf, rf, m, k, n);
}

void
transposeU16Impl(std::uint16_t *dst, const std::uint16_t *src,
                 std::uint32_t rows, std::uint32_t cols)
{
    for (std::uint32_t i = 0; i < rows; ++i)
        for (std::uint32_t j = 0; j < cols; ++j)
            dst[std::size_t(j) * rows + i] = src[std::size_t(i) * cols + j];
}

} // namespace

extern const KernelTable table;
const KernelTable table = {
    "scalar",
    /*exact=*/true,
    &gemmAccumulateImpl,
    &softmaxRowsImpl,
    &geluInplaceImpl,
    &layernormRowsImpl,
    &transposeImpl,
    &bf16ToF32Impl,
    &f32ToBf16Impl,
    &gemmAccumulateBf16Impl,
    &transposeU16Impl,
};

} // namespace rsn::kernel::scalar
