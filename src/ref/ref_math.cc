#include "ref/ref_math.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/log.hh"

namespace rsn::ref {

Matrix
randomMatrix(std::uint32_t rows, std::uint32_t cols, std::uint32_t seed,
             float scale)
{
    Matrix m(rows, cols);
    // xorshift32; seed 0 would be a fixed point, nudge it.
    std::uint32_t s = seed ? seed : 0x9e3779b9u;
    for (auto &v : m.data) {
        s ^= s << 13;
        s ^= s >> 17;
        s ^= s << 5;
        // Map to [-scale, scale).
        v = (float(s) / 4294967296.0f * 2.0f - 1.0f) * scale;
    }
    return m;
}

namespace {

/** Columns per register block: wide enough that the compiler vectorizes
 *  along j (a narrower, fully unrolled j loop gets vectorized along the
 *  strided k axis instead, which is slower than the naive loop). */
constexpr std::uint32_t kBlockCols = 32;

/**
 * R rows x kBlockCols columns of C = A * B, with the accumulators held
 * across the whole k loop. A rows are @p kdim apart, @p panel is B's
 * column block packed kBlockCols wide, and C rows are @p ldc apart. Each
 * element starts at +0 and adds its FP32 products in ascending k, so the
 * result is bit-identical to the textbook triple loop for finite B. Only
 * the first @p w columns are stored.
 */
template <std::uint32_t R>
void
gemmBlock(const float *a, std::uint32_t kdim, const float *panel,
          float *c, std::size_t ldc, std::uint32_t w)
{
    float acc[R][kBlockCols] = {};
    for (std::uint32_t k = 0; k < kdim; ++k) {
        const float *brow = panel + std::size_t(k) * kBlockCols;
        for (std::uint32_t r = 0; r < R; ++r) {
            const float av = a[std::size_t(r) * kdim + k];
            for (std::uint32_t j = 0; j < kBlockCols; ++j)
                acc[r][j] += av * brow[j];
        }
    }
    for (std::uint32_t r = 0; r < R; ++r)
        for (std::uint32_t j = 0; j < w; ++j)
            c[r * ldc + j] = acc[r][j];
}

} // namespace

Matrix
matmul(const Matrix &a, const Matrix &b)
{
    rsn_assert(a.cols == b.rows, "matmul shape mismatch");
    Matrix c(a.rows, b.cols);
    // One column block of B at a time, packed contiguous so it stays in
    // cache across every row pair of A. The ragged last block leaves
    // stale lanes in the panel; they are computed, never stored.
    Matrix panel(b.rows, kBlockCols);
    for (std::uint32_t j0 = 0; j0 < b.cols; j0 += kBlockCols) {
        const std::uint32_t w = std::min(kBlockCols, b.cols - j0);
        for (std::uint32_t k = 0; k < b.rows; ++k)
            for (std::uint32_t j = 0; j < w; ++j)
                panel.at(k, j) = b.at(k, j0 + j);
        std::uint32_t i = 0;
        for (; i + 2 <= a.rows; i += 2)
            gemmBlock<2>(a.data.data() + std::size_t(i) * a.cols, a.cols,
                         panel.data.data(), &c.at(i, j0), c.cols, w);
        if (i < a.rows)
            gemmBlock<1>(a.data.data() + std::size_t(i) * a.cols, a.cols,
                         panel.data.data(), &c.at(i, j0), c.cols, w);
    }
    return c;
}

Matrix
matmulBt(const Matrix &a, const Matrix &b)
{
    rsn_assert(a.cols == b.cols, "matmulBt shape mismatch");
    return matmul(a, transpose(b));
}

Matrix
transpose(const Matrix &a)
{
    Matrix t(a.cols, a.rows);
    for (std::uint32_t i = 0; i < a.rows; ++i)
        for (std::uint32_t j = 0; j < a.cols; ++j)
            t.at(j, i) = a.at(i, j);
    return t;
}

Matrix
addBias(const Matrix &a, const std::vector<float> &bias)
{
    rsn_assert(bias.size() >= a.cols, "bias too small");
    Matrix c = a;
    for (std::uint32_t i = 0; i < a.rows; ++i)
        for (std::uint32_t j = 0; j < a.cols; ++j)
            c.at(i, j) += bias[j];
    return c;
}

Matrix
add(const Matrix &a, const Matrix &b)
{
    rsn_assert(a.rows == b.rows && a.cols == b.cols, "add shape mismatch");
    Matrix c = a;
    for (std::size_t i = 0; i < c.data.size(); ++i)
        c.data[i] += b.data[i];
    return c;
}

Matrix
softmax(const Matrix &a)
{
    Matrix c = a;
    std::vector<double> e(a.cols);
    for (std::uint32_t i = 0; i < a.rows; ++i) {
        float mx = -INFINITY;
        for (std::uint32_t j = 0; j < a.cols; ++j)
            mx = std::max(mx, c.at(i, j));
        double sum = 0;
        for (std::uint32_t j = 0; j < a.cols; ++j) {
            e[j] = std::exp(double(c.at(i, j)) - mx);
            sum += e[j];
        }
        for (std::uint32_t j = 0; j < a.cols; ++j)
            c.at(i, j) = float(e[j] / sum);
    }
    return c;
}

Matrix
gelu(const Matrix &a)
{
    Matrix c = a;
    for (auto &x : c.data) {
        double v = x;
        x = float(0.5 * v * (1.0 + std::erf(v / std::sqrt(2.0))));
    }
    return c;
}

Matrix
layernorm(const Matrix &a, const std::vector<float> &gamma,
          const std::vector<float> &beta)
{
    rsn_assert(gamma.size() >= a.cols && beta.size() >= a.cols,
               "layernorm params too small");
    Matrix c(a.rows, a.cols);
    for (std::uint32_t i = 0; i < a.rows; ++i) {
        double mean = 0;
        for (std::uint32_t j = 0; j < a.cols; ++j)
            mean += a.at(i, j);
        mean /= a.cols;
        double var = 0;
        for (std::uint32_t j = 0; j < a.cols; ++j) {
            double d = a.at(i, j) - mean;
            var += d * d;
        }
        var /= a.cols;
        double inv = 1.0 / std::sqrt(var + 1e-5);
        for (std::uint32_t j = 0; j < a.cols; ++j)
            c.at(i, j) = float((a.at(i, j) - mean) * inv * gamma[j] +
                               beta[j]);
    }
    return c;
}

bool
allclose(const Matrix &a, const Matrix &b, float rtol, float atol,
         std::string *why)
{
    if (a.rows != b.rows || a.cols != b.cols) {
        if (why)
            *why = "shape mismatch";
        return false;
    }
    for (std::size_t i = 0; i < a.data.size(); ++i) {
        float x = a.data[i], y = b.data[i];
        float tol = atol + rtol * std::abs(y);
        if (std::abs(x - y) > tol || std::isnan(x) != std::isnan(y)) {
            if (why) {
                char buf[128];
                std::snprintf(buf, sizeof(buf),
                              "elem %zu: %g vs %g (tol %g)", i, x, y, tol);
                *why = buf;
            }
            return false;
        }
    }
    return true;
}

bool
allcloseFast(std::span<const float> a, std::span<const float> b,
             float rtol, float atol)
{
    rsn_assert(a.size() == b.size(), "shape mismatch");
    unsigned bad = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const float x = a[i], y = b[i];
        const float tol = atol + rtol * std::abs(y);
        bad |= unsigned(std::abs(x - y) > tol) |
               unsigned((x != x) != (y != y));
    }
    return bad == 0;
}

float
maxAbsDiff(const Matrix &a, const Matrix &b)
{
    rsn_assert(a.data.size() == b.data.size(), "shape mismatch");
    float mx = 0.f;
    for (std::size_t i = 0; i < a.data.size(); ++i)
        mx = std::max(mx, std::abs(a.data[i] - b.data[i]));
    return mx;
}

} // namespace rsn::ref
