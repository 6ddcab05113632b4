/**
 * @file
 * The vector kernel tables (avx512, avx2, portable) from one source.
 *
 * Each kernel is written once, as a template on its vector type over
 * GCC generic vectors (`vector_size`), and RSN_KERNEL_VARIANT at the
 * end instantiates the whole set once per table under a function-level
 * `[[gnu::target]]`, the way src/ref/ref_math.cc builds the oracle's
 * variants:
 *
 *   avx512    W = 16 lanes, target("avx512f,avx2,fma")
 *   avx2      W = 8 lanes,  target("avx2,fma")
 *   portable  W = 4 lanes,  the build's baseline ISA (SSE2 on x86-64;
 *             NEON on aarch64, where it is the native-width table)
 *
 * No intrinsics and no per-file -m flags: a table's vector code exists
 * only inside its target functions, and kernel::runnableTables() lists
 * a table only when the CPU runs it. Every helper is
 * [[gnu::always_inline]], so it compiles inside the table's target
 * function; a helper that cannot be inlined is a compile error, never a
 * baseline-ISA call. Helpers take vectors by reference and return
 * scalars or nothing: a by-value vector wider than the baseline ISA
 * would change the calling convention (-Wpsabi).
 *
 * ## Numerics
 *
 * Multiply-adds contract to FMAs where the target has them, which is
 * how the FMA tables get their fused GEMM and polynomial steps; each
 * fusable multiply-add sits inside one expression, so contraction
 * within an expression (Clang's default) fuses the same ones as GCC's
 * -ffp-contract=fast. Each GEMM output element is one FP32
 * chain from +0 over ascending k, added into acc once, so the avx512
 * and avx2 tables give identical bits, and the bf16 GEMM (exact
 * products) gives identical bits on every table
 * (GemmKernel.FmaTablesAreBitIdentical). Horizontal sums reduce by
 * halving (lane i plus lane i + W/2, down to one lane). Transposes and
 * dtype conversions are pure data movement and bit-identical across
 * tables. Tolerances against the exact scalar table are in
 * fu/gemm_kernel.hh and docs/datapath.md.
 *
 * The exact scalar table does not use this file (kernels_scalar.cc).
 */

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/dtype.hh"
#include "fu/gemm_kernel.hh"
#include "fu/kernel_registry.hh"

namespace rsn::kernel {

namespace {

// ---------------------------------------------------- vector vocabulary --

/** W float lanes and the W int32 lanes of the same width. */
template <std::uint32_t W>
struct Vec {
    typedef float F __attribute__((vector_size(4 * W)));
    typedef std::int32_t I __attribute__((vector_size(4 * W)));
};

template <class V>
constexpr std::uint32_t kLanes = sizeof(V) / sizeof(float);

/** v = the lanes(V) floats at p (any alignment). */
template <class V>
[[gnu::always_inline]] inline void
load(V &v, const float *p)
{
    std::memcpy(&v, p, sizeof v);
}

/** v = the first n floats at p, the other lanes 0. */
template <class V>
[[gnu::always_inline]] inline void
load(V &v, const float *p, std::size_t n)
{
    v = V{};
    std::memcpy(&v, p, n * sizeof(float));
}

/** The first n lanes of v (all by default) to p. */
template <class V>
[[gnu::always_inline]] inline void
store(float *p, const V &v, std::size_t n = kLanes<V>)
{
    std::memcpy(p, &v, n * sizeof(float));
}

/** lo and hi = the low and high halves of v. */
template <class V, class H, std::size_t... I>
[[gnu::always_inline]] inline void
halves(const V &v, H &lo, H &hi, std::index_sequence<I...>)
{
    lo = __builtin_shufflevector(v, v, I...);
    hi = __builtin_shufflevector(v, v, (I + sizeof...(I))...);
}

/** Sum (or max) of v's lanes by halving: lane i meets lane i + W/2
 *  until one lane is left. */
template <bool kMax, class V>
[[gnu::always_inline]] inline float
reduce(const V &v)
{
    constexpr std::uint32_t W = kLanes<V>;
    if constexpr (W == 2) {
        return kMax ? std::max(v[0], v[1]) : v[0] + v[1];
    } else {
        typename Vec<W / 2>::F lo, hi;
        halves(v, lo, hi, std::make_index_sequence<W / 2>{});
        return reduce<kMax>(kMax ? (lo > hi ? lo : hi) : lo + hi);
    }
}

// ------------------------------------------------------- polynomial exp --

/** Clamp bounds: exp(kExpLo) flushes toward 0 without denormal scaling
 *  (n >= -126); exp(kExpHi) = 1.67e38 stays finite (n <= 127). */
constexpr float kExpLo = -87.33654f;
constexpr float kExpHi = 88.02f;

/** log2(e) and the two-part ln2 split (Cephes). */
constexpr float kLog2e = 1.44269504089f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;

/** Degree-5 polynomial for exp(r) - 1 - r on |r| <= ln2/2 (Cephes). */
constexpr float kExpP0 = 1.9875691500e-4f;
constexpr float kExpP1 = 1.3981999507e-3f;
constexpr float kExpP2 = 8.3334519073e-3f;
constexpr float kExpP3 = 4.1665795894e-2f;
constexpr float kExpP4 = 1.6666665459e-1f;
constexpr float kExpP5 = 5.0000001201e-1f;

/** Adding 1.5 * 2^23 rounds |z| < 2^22 to the nearest integer (ties to
 *  even), which then sits in the sum's low mantissa bits. */
constexpr float kRoundMagic = 12582912.0f;

/** tanh-GELU argument: 2 * sqrt(2/pi) * (x + 0.044715 x^3)
 *  = x * (kGelu0 + kGelu1 * x^2). */
constexpr float kGelu0 = 1.5957691216057308f;
constexpr float kGelu1 = 0.07135481627613502f;

/**
 * vexp's clamp bounds, built once per kernel call, outside its loops.
 * GCC lowers `x > c ? x : c` against a constant c to a compare and a
 * blend, but against a value it cannot see to one max (min for `<`),
 * with the same result. The empty asm with a memory operand hides the
 * values on every target.
 */
template <class V>
struct ExpBounds {
    V lo = V{} + kExpLo;
    V hi = V{} + kExpHi;
    [[gnu::always_inline]] ExpBounds() { asm("" : "+m"(lo), "+m"(hi)); }
};

/** x = exp(x), relative error ~2e-7 over the clamped domain. */
template <class V>
[[gnu::always_inline]] inline void
vexp(V &x, const ExpBounds<V> &b)
{
    using VI = typename Vec<kLanes<V>>::I;
    x = x > b.lo ? x : b.lo;
    x = x < b.hi ? x : b.hi;
    // The barrier keeps x * log2(e) rounded on its own, not fused into
    // the rounding add, so n is round-to-nearest of the rounded product.
    const V z = __builtin_assoc_barrier(x * kLog2e);
    const V zr = z + kRoundMagic;
    const V nf = zr - kRoundMagic;
    const VI n = __builtin_bit_cast(VI, zr) -
                 __builtin_bit_cast(std::int32_t, kRoundMagic);
    const V r = (x - nf * kLn2Hi) - nf * kLn2Lo;
    V p = r * kExpP0 + kExpP1;
    p = p * r + kExpP2;
    p = p * r + kExpP3;
    p = p * r + kExpP4;
    p = p * r + kExpP5;
    const V y = p * (r * r) + r + 1.0f;
    x = y * __builtin_bit_cast(V, (n + 127) << 23);
}

/** x = x * sigmoid(2t) for the tanh-GELU argument t. */
template <class V>
[[gnu::always_inline]] inline void
vgelu(V &x, const ExpBounds<V> &b)
{
    V e = x * ((x * x) * kGelu1 + kGelu0);
    vexp(e, b);
    x = x * (e / (e + 1.0f));
}

// ------------------------------------------------------ GEMM microkernel --

// Register block: kMr rows by two vectors of columns. Mesh row-slices
// are multiples of 8, so kMr = 8 wastes no edge work; 8 x 2W is 16
// accumulators, which fit the register file of every target. Measured
// on the datapath's shapes (M = 16..64, K/N = 16..512): ~60 GFLOPS for
// AVX2 8x16 vs ~36 for the textbook 6x16.
constexpr std::uint32_t kMr = 8;

[[gnu::always_inline]] inline float
toF32(float x)
{
    return x;
}

[[gnu::always_inline]] inline float
toF32(std::uint16_t x)
{
    return ::rsn::bf16ToF32(x);
}

/**
 * Pack lhs(m x k) into kMr-interleaved panels: panel element
 * [ib][kk * kMr + ir] = lhs[(ib*kMr + ir) * k + kk] as FP32, rows
 * beyond m zero-padded. The microkernel then reads kMr consecutive LHS
 * values per k step (one cache line instead of kMr strided streams) and
 * needs no row-edge branches. A bf16 operand upconverts in the same
 * pass.
 */
template <class T>
[[gnu::always_inline]] inline void
packLhs(float *panel, const T *lhs, std::uint32_t m, std::uint32_t k)
{
    for (std::uint32_t i0 = 0; i0 < m; i0 += kMr) {
        const std::uint32_t mr = std::min(kMr, m - i0);
        for (std::uint32_t kk = 0; kk < k; ++kk) {
            std::uint32_t ir = 0;
            for (; ir < mr; ++ir)
                panel[kk * kMr + ir] =
                    toF32(lhs[std::size_t(i0 + ir) * k + kk]);
            for (; ir < kMr; ++ir)
                panel[kk * kMr + ir] = 0.f;
        }
        panel += std::size_t(kMr) * k;
    }
}

/**
 * Pack the rightmost n - j0 columns of rhs(k x n) into a zero-padded
 * k x nr_max panel. Full-width column blocks are *not* packed: RHS rows
 * are already contiguous, and on the L2-resident tiles the datapath
 * moves, direct strided reads measured faster than a pack memcpy per
 * call. The tail panel keeps the microkernel branch-free on ragged
 * widths.
 */
[[gnu::always_inline]] inline void
packRhsTail(float *panel, const float *rhs, std::uint32_t k,
            std::uint32_t n, std::uint32_t j0, std::uint32_t nr_max)
{
    for (std::uint32_t kk = 0; kk < k; ++kk) {
        const float *src = rhs + std::size_t(kk) * n + j0;
        float *dst = panel + std::size_t(kk) * nr_max;
        std::uint32_t j = 0;
        for (; j < n - j0; ++j)
            dst[j] = src[j];
        for (; j < nr_max; ++j)
            dst[j] = 0.f;
    }
}

/**
 * kMr x 2W microkernel: LHS from a packed panel, RHS read with row
 * stride @p rstride (the operand itself for full blocks, the zero-padded
 * tail panel with rstride == 2W otherwise). Adds the partial product
 * into acc for the valid mr x nr window.
 */
template <class V>
[[gnu::always_inline]] inline void
microKernel(const float *lp, const float *rp, std::uint32_t rstride,
            std::uint32_t k, float *acc, std::uint32_t ldc,
            std::uint32_t mr, std::uint32_t nr)
{
    constexpr std::uint32_t W = kLanes<V>;
    V c[kMr][2] = {};
    // Two k steps per trip: four RHS loads in flight per 4 * kMr FMAs.
#pragma GCC unroll 2
    for (std::uint32_t kk = 0; kk < k; ++kk) {
        V b0, b1;
        load(b0, rp);
        load(b1, rp + W);
        rp += rstride;
        for (std::uint32_t ir = 0; ir < kMr; ++ir) {
            c[ir][0] += lp[ir] * b0;
            c[ir][1] += lp[ir] * b1;
        }
        lp += kMr;
    }
    for (std::uint32_t ir = 0; ir < mr; ++ir) {
        float *row = acc + std::size_t(ir) * ldc;
        if (nr == 2 * W) {
            V r0, r1;
            load(r0, row);
            load(r1, row + W);
            store(row, r0 + c[ir][0]);
            store(row + W, r1 + c[ir][1]);
        } else {
            float t[2 * W];
            store(t, c[ir][0]);
            store(t + W, c[ir][1]);
            for (std::uint32_t j = 0; j < nr; ++j)
                row[j] += t[j];
        }
    }
}

/** acc(m x n) += lhs(m x k) @ rhs(k x n) for FP32 or bf16 operands, the
 *  products and sums in FP32. Contract in fu/gemm_kernel.hh. */
template <class V, class T>
[[gnu::always_inline]] inline void
gemmAccumulateBody(fu::GemmScratch &scratch, float *acc, const T *lhs,
                   const T *rhs, std::uint32_t m, std::uint32_t k,
                   std::uint32_t n)
{
    constexpr std::uint32_t kNr = 2 * kLanes<V>;
    if (m == 0 || k == 0 || n == 0)
        return;
    const std::uint32_t mb = (m + kMr - 1) / kMr;
    float *lpanel = scratch.lhsPanel(std::uint64_t(mb) * kMr * k);
    packLhs(lpanel, lhs, m, k);
    const float *rf;
    if constexpr (std::is_same_v<T, float>) {
        rf = rhs;
    } else {
        // The RHS upconverts once into the conversion panel; every block
        // then reads it like a dense FP32 operand.
        float *cvt = scratch.cvtRhsPanel(std::uint64_t(k) * n);
        for (std::size_t i = 0; i < std::size_t(k) * n; ++i)
            cvt[i] = toF32(rhs[i]);
        rf = cvt;
    }
    const std::uint32_t n_full = n - n % kNr;
    float *rpanel = nullptr;
    if (n_full < n) {
        rpanel = scratch.rhsPanel(std::uint64_t(kNr) * k);
        packRhsTail(rpanel, rf, k, n, n_full, kNr);
    }
    for (std::uint32_t j0 = 0; j0 < n; j0 += kNr) {
        const bool full = j0 < n_full;
        for (std::uint32_t i0 = 0; i0 < m; i0 += kMr)
            microKernel<V>(lpanel + std::size_t(i0) * k,
                           full ? rf + j0 : rpanel, full ? n : kNr, k,
                           acc + std::size_t(i0) * n + j0, n,
                           std::min(kMr, m - i0), std::min(kNr, n - j0));
    }
}

// -------------------------------------------------- nonlinear kernels --

template <class V>
[[gnu::always_inline]] inline void
softmaxRowsBody(float *tile, std::uint32_t rows, std::uint32_t cols)
{
    constexpr std::uint32_t W = kLanes<V>;
    const ExpBounds<V> bounds;
    for (std::uint32_t r = 0; r < rows && cols > 0; ++r) {
        float *row = tile + std::size_t(r) * cols;
        // Pass 1: row max.
        float mx = row[0];
        std::uint32_t i = 0;
        if (cols >= W) {
            V vm, x;
            load(vm, row);
            for (i = W; i + W <= cols; i += W) {
                load(x, row + i);
                vm = vm > x ? vm : x;
            }
            mx = reduce<true>(vm);
        }
        for (; i < cols; ++i)
            mx = std::max(mx, row[i]);
        // Pass 2: exp and sum; the ragged tail's exps add in row order.
        V vs{}, e;
        for (i = 0; i + W <= cols; i += W) {
            load(e, row + i);
            e -= mx;
            vexp(e, bounds);
            store(row + i, e);
            vs += e;
        }
        float sum = reduce<false>(vs);
        if (i < cols) {
            load(e, row + i, cols - i);
            e -= mx;
            vexp(e, bounds);
            store(row + i, e, cols - i);
            for (; i < cols; ++i)
                sum += row[i];
        }
        // Pass 3: scale.
        const float inv = 1.0f / sum;
        for (i = 0; i + W <= cols; i += W) {
            load(e, row + i);
            store(row + i, e * inv);
        }
        for (; i < cols; ++i)
            row[i] *= inv;
    }
}

template <class V>
[[gnu::always_inline]] inline void
geluInplaceBody(float *tile, std::size_t n)
{
    constexpr std::size_t W = kLanes<V>;
    const ExpBounds<V> bounds;
    std::size_t i = 0;
    V x;
    for (; i + W <= n; i += W) {
        load(x, tile + i);
        vgelu(x, bounds);
        store(tile + i, x);
    }
    if (i < n) {
        load(x, tile + i, n - i);
        vgelu(x, bounds);
        store(tile + i, x, n - i);
    }
}

template <class V>
[[gnu::always_inline]] inline void
layernormRowsBody(float *tile, std::uint32_t rows, std::uint32_t cols)
{
    constexpr std::uint32_t W = kLanes<V>;
    constexpr float eps = 1e-5f;
    for (std::uint32_t r = 0; r < rows && cols > 0; ++r) {
        float *row = tile + std::size_t(r) * cols;
        // Pass 1: rough mean m0 in float lanes.
        V vs{}, x;
        std::uint32_t i = 0;
        for (; i + W <= cols; i += W) {
            load(x, row + i);
            vs += x;
        }
        float s = reduce<false>(vs);
        for (; i < cols; ++i)
            s += row[i];
        const float m0 = s / float(cols);
        // Pass 2: centered sums. d = x - m0 is (nearly) exact: m0 sits
        // inside the row's range, so the subtraction cancels the large
        // common magnitude before any accumulation happens. The residual
        // mean sum(d)/n then corrects m0, and the variance about m0
        // collapses to the variance about the corrected mean.
        V vd{}, vd2{};
        for (i = 0; i + W <= cols; i += W) {
            load(x, row + i);
            x -= m0;
            vd += x;
            vd2 += x * x;
        }
        float sd = reduce<false>(vd), sd2 = reduce<false>(vd2);
        for (; i < cols; ++i) {
            const float d = row[i] - m0;
            sd += d;
            sd2 += d * d;
        }
        const float c = sd / float(cols);
        const float var = std::max(sd2 / float(cols) - c * c, 0.0f);
        const float inv_std = 1.0f / std::sqrt(var + eps);
        // Subtract m0 and the correction c in two steps: x - m0 is
        // exact (Sterbenz), and c is O(spread), so no large-mean
        // precision is lost; folding them into one float shift would
        // round the mean to ~half an ulp of its magnitude.
        for (i = 0; i + W <= cols; i += W) {
            load(x, row + i);
            store(row + i, ((x - m0) - c) * inv_std);
        }
        for (; i < cols; ++i)
            row[i] = ((row[i] - m0) - c) * inv_std;
    }
}

// ------------------------------------------------------ tile transposes --
//
// dst(cols x rows) = src(rows x cols)^T. Pure data movement, so every
// table gives the same bits and MemB's layout conversion
// (fu/mem_fus.cc) never moves payload values with the table choice.

/** a, b = rows i and i + H of a block after the stage that swaps bit H
 *  of every element's row and column index. */
template <std::uint32_t H, class V, std::size_t... J>
[[gnu::always_inline]] inline void
swapIndexBit(V &a, V &b, std::index_sequence<J...>)
{
    constexpr std::size_t W = sizeof...(J);
    const V lo = __builtin_shufflevector(a, b, (J & H ? J - H + W : J)...);
    b = __builtin_shufflevector(a, b, (J & H ? J + W : J + H)...);
    a = lo;
}

/** Swaps index bits H, H/2, ..., 1 of the W x W block in r. */
template <std::uint32_t H, class V>
[[gnu::always_inline]] inline void
transposeStages(V *r)
{
    if constexpr (H > 0) {
        for (std::uint32_t i = 0; i < kLanes<V>; ++i)
            if (!(i & H))
                swapIndexBit<H>(r[i], r[i + H],
                                std::make_index_sequence<kLanes<V>>{});
        transposeStages<H / 2>(r);
    }
}

template <class V>
[[gnu::always_inline]] inline void
transposeBody(float *dst, const float *src, std::uint32_t rows,
              std::uint32_t cols)
{
    // W x W blocks in registers, the ragged edges element by element.
    constexpr std::uint32_t W = kLanes<V>;
    const std::uint32_t rb = rows - rows % W;
    const std::uint32_t cb = cols - cols % W;
    for (std::uint32_t i0 = 0; i0 < rb; i0 += W)
        for (std::uint32_t j0 = 0; j0 < cb; j0 += W) {
            // Unrolled, so the block stays in registers.
            V r[W];
#pragma GCC unroll 16
            for (std::uint32_t i = 0; i < W; ++i)
                load(r[i], src + std::size_t(i0 + i) * cols + j0);
            transposeStages<W / 2>(r);
#pragma GCC unroll 16
            for (std::uint32_t j = 0; j < W; ++j)
                store(dst + std::size_t(j0 + j) * rows + i0, r[j]);
        }
    for (std::uint32_t i = 0; i < rows; ++i)
        for (std::uint32_t j = i < rb ? cb : 0; j < cols; ++j)
            dst[std::size_t(j) * rows + i] = src[std::size_t(i) * cols + j];
}

[[gnu::always_inline]] inline void
transposeU16Body(std::uint16_t *dst, const std::uint16_t *src,
                 std::uint32_t rows, std::uint32_t cols)
{
    // Cache-blocked: a 32x32 u16 block is 2 KiB per operand.
    constexpr std::uint32_t kB = 32;
    for (std::uint32_t i0 = 0; i0 < rows; i0 += kB)
        for (std::uint32_t j0 = 0; j0 < cols; j0 += kB)
            for (std::uint32_t i = i0; i < std::min(i0 + kB, rows); ++i)
                for (std::uint32_t j = j0; j < std::min(j0 + kB, cols); ++j)
                    dst[std::size_t(j) * rows + i] =
                        src[std::size_t(i) * cols + j];
}

// ---------------------------------------------------- dtype conversions --
//
// The scalar bit manipulation of common/dtype.hh in a loop the target
// vectorizes, so every table converts bit-identically.

[[gnu::always_inline]] inline void
bf16ToF32Body(float *__restrict dst, const std::uint16_t *src,
              std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i)
        dst[i] = ::rsn::bf16ToF32(src[i]);
}

[[gnu::always_inline]] inline void
f32ToBf16Body(std::uint16_t *__restrict dst, const float *src,
              std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i)
        dst[i] = ::rsn::f32ToBf16(src[i]);
}

} // namespace

// ----------------------------------------------------------- the tables --

/** The kernel set at W lanes under @p target, as table `isa::table`. */
#define RSN_KERNEL_VARIANT(isa, W, target)                                 \
    namespace isa {                                                        \
    namespace {                                                            \
    using V = Vec<W>::F;                                                   \
    target void gemmAccumulate(fu::GemmScratch &s, float *acc,             \
                               const float *lhs, const float *rhs,         \
                               std::uint32_t m, std::uint32_t k,           \
                               std::uint32_t n)                            \
    {                                                                      \
        gemmAccumulateBody<V>(s, acc, lhs, rhs, m, k, n);                  \
    }                                                                      \
    target void softmaxRows(float *t, std::uint32_t rows,                  \
                            std::uint32_t cols)                            \
    {                                                                      \
        softmaxRowsBody<V>(t, rows, cols);                                 \
    }                                                                      \
    target void geluInplace(float *t, std::size_t n)                       \
    {                                                                      \
        geluInplaceBody<V>(t, n);                                          \
    }                                                                      \
    target void layernormRows(float *t, std::uint32_t rows,                \
                              std::uint32_t cols)                          \
    {                                                                      \
        layernormRowsBody<V>(t, rows, cols);                               \
    }                                                                      \
    target void transpose(float *dst, const float *src,                    \
                          std::uint32_t rows, std::uint32_t cols)          \
    {                                                                      \
        transposeBody<V>(dst, src, rows, cols);                            \
    }                                                                      \
    target void bf16ToF32(float *dst, const std::uint16_t *src,            \
                          std::uint64_t n)                                 \
    {                                                                      \
        bf16ToF32Body(dst, src, n);                                        \
    }                                                                      \
    target void f32ToBf16(std::uint16_t *dst, const float *src,            \
                          std::uint64_t n)                                 \
    {                                                                      \
        f32ToBf16Body(dst, src, n);                                        \
    }                                                                      \
    target void gemmAccumulateBf16(fu::GemmScratch &s, float *acc,         \
                                   const std::uint16_t *lhs,               \
                                   const std::uint16_t *rhs,               \
                                   std::uint32_t m, std::uint32_t k,       \
                                   std::uint32_t n)                        \
    {                                                                      \
        gemmAccumulateBody<V>(s, acc, lhs, rhs, m, k, n);                  \
    }                                                                      \
    target void transposeU16(std::uint16_t *dst, const std::uint16_t *src, \
                             std::uint32_t rows, std::uint32_t cols)       \
    {                                                                      \
        transposeU16Body(dst, src, rows, cols);                            \
    }                                                                      \
    }                                                                      \
    extern const KernelTable table;                                        \
    const KernelTable table = {                                            \
        #isa,          false,         &gemmAccumulate,                     \
        &softmaxRows,  &geluInplace,  &layernormRows,                      \
        &transpose,    &bf16ToF32,    &f32ToBf16,                          \
        &gemmAccumulateBf16, &transposeU16,                                \
    };                                                                     \
    }

#if defined(__x86_64__) || defined(__i386__)
RSN_KERNEL_VARIANT(avx512, 16, [[gnu::target("avx512f,avx2,fma")]])
RSN_KERNEL_VARIANT(avx2, 8, [[gnu::target("avx2,fma")]])
#endif
RSN_KERNEL_VARIANT(portable, 4, )
#undef RSN_KERNEL_VARIANT

} // namespace rsn::kernel
