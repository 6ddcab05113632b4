#include "ref/ref_math.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "common/log.hh"

namespace rsn::ref {

namespace {

/** One xorshift32 step. */
constexpr std::uint32_t
xorshift(std::uint32_t s)
{
    s ^= s << 13;
    s ^= s >> 17;
    s ^= s << 5;
    return s;
}

/** A 32x32 matrix over GF(2), by columns: M x is the XOR of the
 *  columns at x's set bits. */
using Gf2Matrix = std::array<std::uint32_t, 32>;

constexpr std::uint32_t
gf2Apply(const Gf2Matrix &m, std::uint32_t x)
{
    std::uint32_t y = 0;
    for (unsigned b = 0; b < 32; ++b)
        y ^= m[b] & (0u - ((x >> b) & 1u));
    return y;
}

/** kJump[i] is T^(2^i), T the xorshift32 step (linear over GF(2)):
 *  it advances a state 2^i steps. Column b of M^2 is M applied to
 *  column b of M. */
constexpr std::array<Gf2Matrix, 32> kJump = [] {
    std::array<Gf2Matrix, 32> t{};
    for (unsigned b = 0; b < 32; ++b)
        t[0][b] = xorshift(1u << b);
    for (unsigned i = 1; i < 32; ++i)
        for (unsigned b = 0; b < 32; ++b)
            t[i][b] = gf2Apply(t[i - 1], t[i - 1][b]);
    return t;
}();

/** State @p s advanced @p n steps. Every nonzero state recurs after
 *  2^32 - 1 steps, so n is taken modulo that period. */
std::uint32_t
jump(std::uint32_t s, std::uint64_t n)
{
    n %= 0xffffffffu;
    for (unsigned i = 0; n; ++i, n >>= 1)
        if (n & 1)
            s = gf2Apply(kJump[i], s);
    return s;
}

/** Chains the stream is split into, advanced interleaved: independent
 *  dependency chains the compiler keeps in vector lanes. */
constexpr std::size_t kChains = 8;

/** Shorter chains stay one serial loop: at 8 elements per chain the
 *  jump-ahead cost what the interleaving saved, at 16 the split ran
 *  1.6x faster than the serial loop (AVX-512 host). */
constexpr std::size_t kMinChainLen = 16;

/** fillRandom()'s loop. Always inlined, like the bodies below, so each
 *  ISA variant compiles its own copy. */
[[gnu::always_inline]] inline void
fillRandomBody(std::span<float> out, std::uint32_t seed, float scale)
{
    // Element i is the xorshift32 state after i + 1 steps, mapped to
    // [-scale, scale). Seed 0 would be a fixed point, so nudge it.
    const auto value = [scale](std::uint32_t s) {
        return (float(s) / 4294967296.0f * 2.0f - 1.0f) * scale;
    };
    std::uint32_t s = seed ? seed : 0x9e3779b9u;
    std::size_t i = 0;
    // kChains contiguous segments of len elements, chain c starting
    // from the stream's state c * len by jump-ahead; the fewer than
    // kChains elements left over continue from the last chain.
    if (const std::size_t len = out.size() / kChains;
        len >= kMinChainLen) {
        std::uint32_t chain[kChains];
        for (std::size_t c = 0; c < kChains; ++c)
            chain[c] = jump(s, c * len);
        for (std::size_t t = 0; t < len; ++t) {
            // Kept rolled: the vectorizer then puts the chains in lanes,
            // where GCC -O3's complete unrolling left them scalar.
#pragma GCC unroll 1
            for (std::size_t c = 0; c < kChains; ++c) {
                chain[c] = xorshift(chain[c]);
                out[c * len + t] = value(chain[c]);
            }
        }
        s = chain[kChains - 1];
        i = kChains * len;
    }
    for (; i < out.size(); ++i) {
        s = xorshift(s);
        out[i] = value(s);
    }
}

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
[[gnu::always_inline]] inline void
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

[[gnu::always_inline]] inline Matrix
matmulBody(const Matrix &a, const Matrix &b)
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

/** allclose()'s predicate, branch-free so it vectorizes. The
 *  tolerance atol + rtol * |y| must stay unfused, as allclose()
 *  computes it. */
[[gnu::always_inline]] inline bool
allcloseBody(std::span<const float> a, std::span<const float> b,
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

// The ISA variants: function-level targets on plain C++, no intrinsics
// and no per-file -march, so nothing here can reach the datapath's
// kernel tables.
#define RSN_REF_VARIANT(isa, target)                                      \
    target Matrix matmul##isa(const Matrix &a, const Matrix &b)          \
    {                                                                     \
        return matmulBody(a, b);                                          \
    }                                                                     \
    target bool allcloseFast##isa(std::span<const float> a,              \
                                  std::span<const float> b, float rtol,   \
                                  float atol)                             \
    {                                                                     \
        return allcloseBody(a, b, rtol, atol);                            \
    }                                                                     \
    target void fillRandom##isa(std::span<float> out, std::uint32_t seed, \
                                float scale)                              \
    {                                                                     \
        fillRandomBody(out, seed, scale);                                 \
    }

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RSN_REF_X86 1
RSN_REF_VARIANT(Avx512f, [[gnu::target("avx512f")]])
RSN_REF_VARIANT(Avx2, [[gnu::target("avx2")]])
#endif
RSN_REF_VARIANT(Baseline, )
#undef RSN_REF_VARIANT

} // namespace

std::span<const Variant>
runnableVariants()
{
    // Best first, each cpuid probe run once.
    static const std::vector<Variant> runnable = [] {
        std::vector<Variant> v;
#ifdef RSN_REF_X86
        __builtin_cpu_init();
        if (__builtin_cpu_supports("avx512f"))
            v.push_back({"avx512f", matmulAvx512f, allcloseFastAvx512f,
                         fillRandomAvx512f});
        if (__builtin_cpu_supports("avx2"))
            v.push_back({"avx2", matmulAvx2, allcloseFastAvx2,
                         fillRandomAvx2});
#endif
        v.push_back({"baseline", matmulBaseline, allcloseFastBaseline,
                     fillRandomBaseline});
        return v;
    }();
    return runnable;
}

Matrix
randomMatrix(std::uint32_t rows, std::uint32_t cols, std::uint32_t seed,
             float scale)
{
    Matrix m(rows, cols);
    fillRandom(m.data, seed, scale);
    return m;
}

void
fillRandom(std::span<float> out, std::uint32_t seed, float scale)
{
    runnableVariants().front().fillRandom(out, seed, scale);
}

Matrix
matmul(const Matrix &a, const Matrix &b)
{
    return runnableVariants().front().matmul(a, b);
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
    return runnableVariants().front().allcloseFast(a, b, rtol, atol);
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
