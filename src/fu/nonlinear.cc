#include "fu/nonlinear.hh"

#include <algorithm>
#include <cmath>

namespace rsn::fu {

void
softmaxRows(float *tile, std::uint32_t rows, std::uint32_t cols)
{
    // Degenerate shapes are no-ops — without the cols guard the max
    // seed below would read row[0] of a zero-width row.
    if (rows == 0 || cols == 0)
        return;
    for (std::uint32_t r = 0; r < rows; ++r) {
        float *row = tile + std::size_t(r) * cols;
        float mx = row[0];
        for (std::uint32_t c = 1; c < cols; ++c)
            mx = std::max(mx, row[c]);
        float sum = 0.f;
        for (std::uint32_t c = 0; c < cols; ++c) {
            row[c] = std::exp(row[c] - mx);
            sum += row[c];
        }
        float inv = 1.0f / sum;
        for (std::uint32_t c = 0; c < cols; ++c)
            row[c] *= inv;
    }
}

void
geluInplace(float *tile, std::size_t n)
{
    constexpr float inv_sqrt2 = 0.70710678118654752f;
    for (std::size_t i = 0; i < n; ++i)
        tile[i] = 0.5f * tile[i] *
                  (1.0f + std::erf(tile[i] * inv_sqrt2));
}

void
layernormRows(float *tile, std::uint32_t rows, std::uint32_t cols)
{
    if (rows == 0 || cols == 0)
        return;
    constexpr float eps = 1e-5f;
    for (std::uint32_t r = 0; r < rows; ++r) {
        float *row = tile + std::size_t(r) * cols;
        // Two-pass mean/variance. The old single-pass E[x^2] - E[x]^2
        // form cancels catastrophically for rows with a large common
        // mean (both terms grow like mean^2 while their difference stays
        // O(spread^2)) and can even go negative; summing (x - mean)^2
        // about the computed mean is immune to that.
        double sum = 0;
        for (std::uint32_t c = 0; c < cols; ++c)
            sum += row[c];
        const double mean = sum / cols;
        double acc = 0;
        for (std::uint32_t c = 0; c < cols; ++c) {
            const double d = row[c] - mean;
            acc += d * d;
        }
        const double var = acc / cols;
        // Normalize in double: rounding the mean to float first would
        // shift large-mean rows by up to half a float ulp of the mean
        // (~5e-4 at 1e4), which is exactly the precision this bugfix
        // is about.
        const double inv_std = 1.0 / std::sqrt(var + double(eps));
        for (std::uint32_t c = 0; c < cols; ++c)
            row[c] = float((row[c] - mean) * inv_std);
    }
}

void
scaleShiftRows(float *tile, std::uint32_t rows, std::uint32_t cols,
               const float *gamma, const float *beta)
{
    for (std::uint32_t r = 0; r < rows; ++r) {
        float *row = tile + std::size_t(r) * cols;
        for (std::uint32_t c = 0; c < cols; ++c)
            row[c] = row[c] * gamma[c] + beta[c];
    }
}

void
addInplace(float *tile, const float *other, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        tile[i] += other[i];
}

// Scale-shift and residual add are deliberately NOT in the kernel
// dispatch table: they are element-wise affine ops with no approximate
// variant, and keeping their only definition in this baseline-ISA TU
// guarantees bit-identical results under every selected table — a
// table flip only ever moves GEMM/softmax/GELU/LayerNorm values.

} // namespace rsn::fu
