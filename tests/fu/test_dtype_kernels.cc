/**
 * @file
 * Property tests for the typed-tile kernel entries (ISSUE 10).
 *
 * Three contracts, per docs/datapath.md "Typed tiles & precision
 * policy":
 *
 *  1. The scalar converters in common/dtype.hh are *correct*: f32 ->
 *     bf16/f16 is round-to-nearest-even (verified against the two
 *     neighboring representable values), upconversion is exact
 *     (verified by exhaustive round-trip over all 65536 16-bit
 *     patterns), and inf/NaN/subnormals behave per IEEE.
 *  2. The convert_rows_* / transpose_u16 table entries are
 *     **bit-identical across every CPU-supported kernel table** — they
 *     all inline the same bit manipulation, only the loop is per-ISA.
 *  3. gemm_accumulate_bf16 matches the scalar reference (upconvert
 *     exactly, accumulate in FP32) within the documented GEMM tolerance
 *     (fu/gemm_kernel.hh): |a-b| <= 1e-4 + 1e-4 * |b| per element.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "common/dtype.hh"
#include "fu/gemm_kernel.hh"
#include "fu/kernel_registry.hh"

namespace {

using rsn::Dtype;
using rsn::bf16ToF32;
using rsn::dtypeBytes;
using rsn::dtypeFromName;
using rsn::dtypeName;
using rsn::f16ToF32;
using rsn::f32ToBf16;
using rsn::f32ToF16;
namespace kernel = rsn::kernel;

bool
isNan16(std::uint16_t x, std::uint32_t exp_mask, std::uint32_t mant_mask)
{
    return (x & exp_mask) == exp_mask && (x & mant_mask);
}

// ------------------------------------------------------- vocabulary --

TEST(Dtype, NamesRoundTripAndBytesMatch)
{
    for (Dtype d : {Dtype::F32, Dtype::Bf16, Dtype::F16, Dtype::I8}) {
        auto back = dtypeFromName(dtypeName(d));
        ASSERT_TRUE(back.has_value()) << dtypeName(d);
        EXPECT_EQ(*back, d);
    }
    EXPECT_EQ(dtypeBytes(Dtype::F32), 4u);
    EXPECT_EQ(dtypeBytes(Dtype::Bf16), 2u);
    EXPECT_EQ(dtypeBytes(Dtype::F16), 2u);
    EXPECT_EQ(dtypeBytes(Dtype::I8), 1u);
    EXPECT_FALSE(dtypeFromName("fp16").has_value());
    EXPECT_FALSE(dtypeFromName("BF16").has_value());  // lowercase only
}

// --------------------------------------------- scalar converter laws --

TEST(DtypeConvert, UpconversionIsExactForEveryBf16Pattern)
{
    // bf16 is a prefix of f32, so bf16 -> f32 -> bf16 must be the
    // identity on every non-NaN pattern (NaN round-trips to *a* NaN).
    for (std::uint32_t p = 0; p <= 0xffffu; ++p) {
        const auto x = static_cast<std::uint16_t>(p);
        const float f = bf16ToF32(x);
        const std::uint16_t back = f32ToBf16(f);
        if (isNan16(x, 0x7f80u, 0x007fu)) {
            EXPECT_TRUE(isNan16(back, 0x7f80u, 0x007fu)) << std::hex << p;
        } else {
            EXPECT_EQ(back, x) << std::hex << p;
        }
    }
}

TEST(DtypeConvert, UpconversionIsExactForEveryF16Pattern)
{
    // Includes all 2048 subnormals and both signed zeros / infinities.
    for (std::uint32_t p = 0; p <= 0xffffu; ++p) {
        const auto x = static_cast<std::uint16_t>(p);
        const float f = f16ToF32(x);
        const std::uint16_t back = f32ToF16(f);
        if (isNan16(x, 0x7c00u, 0x03ffu)) {
            EXPECT_TRUE(std::isnan(f)) << std::hex << p;
            EXPECT_TRUE(isNan16(back, 0x7c00u, 0x03ffu)) << std::hex << p;
        } else {
            EXPECT_EQ(back, x) << std::hex << p;
        }
    }
}

/** Next/previous representable 16-bit value along the real line, in the
 *  sign-magnitude ordering both bf16 and f16 share with f32. */
std::uint16_t
step16(std::uint16_t x, bool up)
{
    const bool neg = x & 0x8000u;
    std::uint16_t mag = x & 0x7fffu;
    if (neg == up) {  // toward zero
        if (mag == 0)
            return up ? 0x0001u : 0x8001u;  // crosses zero
        --mag;
    } else {
        ++mag;
    }
    return static_cast<std::uint16_t>((neg ? 0x8000u : 0u) | mag);
}

/** RNE law: the conversion of finite x must be one of the two
 *  representable neighbors, strictly closer than the other one (or the
 *  even of the two on an exact tie). @p to/from convert to and from the
 *  16-bit format; @p is_nan tests NaN patterns. */
template <typename To, typename From, typename IsNan>
void
checkNearestEven(float x, To to, From from, IsNan is_nan)
{
    const std::uint16_t y = to(x);
    if (is_nan(y))
        return;  // overflow-to-inf is checked separately
    const double fy = from(y);
    if (std::isinf(fy))
        return;
    const double d = std::abs(double(x) - fy);
    for (bool up : {false, true}) {
        const std::uint16_t n = step16(y, up);
        if (is_nan(n))
            continue;
        const double fn = from(n);
        if (std::isinf(fn))
            continue;
        const double dn = std::abs(double(x) - fn);
        EXPECT_LE(d, dn) << x << " -> " << std::hex << y
                         << " but neighbor " << n << " is closer";
        if (d == dn) {  // exact tie: mantissa LSB must be even
            EXPECT_EQ(y & 1u, 0u) << x << " tie broke to odd " << std::hex
                                  << y;
        }
    }
}

TEST(DtypeConvert, Bf16RoundsToNearestEven)
{
    // Hand-picked ties: 1 + 2^-8 is exactly halfway between bf16(1.0)
    // (even) and its successor (odd) — RNE keeps 1.0. 1 + 3*2^-8 is
    // halfway with the *even* side above.
    EXPECT_EQ(f32ToBf16(1.0f + 0x1.0p-8f), f32ToBf16(1.0f));
    EXPECT_EQ(f32ToBf16(1.0f + 0x3.0p-8f), f32ToBf16(1.0f + 0x4.0p-8f));

    std::mt19937 rng(7);
    std::uniform_real_distribution<float> uni(-4.0f, 4.0f);
    std::uniform_int_distribution<std::uint32_t> anybits(0, 0xffffffffu);
    auto is_nan = [](std::uint16_t v) { return isNan16(v, 0x7f80u, 0x007fu); };
    for (int i = 0; i < 20000; ++i) {
        float x;
        if (i % 4 == 0) {  // whole-range bit patterns, skip NaN/inf
            std::uint32_t b = anybits(rng);
            std::memcpy(&x, &b, sizeof(x));
            if (!std::isfinite(x))
                continue;
        } else {
            x = uni(rng);
        }
        checkNearestEven(x, f32ToBf16, bf16ToF32, is_nan);
    }
}

TEST(DtypeConvert, F16RoundsToNearestEvenIncludingSubnormals)
{
    std::mt19937 rng(11);
    std::uniform_real_distribution<float> uni(-65504.0f, 65504.0f);
    std::uniform_real_distribution<float> tiny(-1e-4f, 1e-4f);  // subnormal band
    auto is_nan = [](std::uint16_t v) { return isNan16(v, 0x7c00u, 0x03ffu); };
    for (int i = 0; i < 20000; ++i) {
        const float x = (i % 3 == 0) ? tiny(rng) : uni(rng);
        checkNearestEven(x, f32ToF16, f16ToF32, is_nan);
    }
}

TEST(DtypeConvert, SpecialsSurviveBothDownconversions)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();

    EXPECT_EQ(bf16ToF32(f32ToBf16(inf)), inf);
    EXPECT_EQ(bf16ToF32(f32ToBf16(-inf)), -inf);
    EXPECT_TRUE(std::isnan(bf16ToF32(f32ToBf16(nan))));
    EXPECT_EQ(f16ToF32(f32ToF16(inf)), inf);
    EXPECT_EQ(f16ToF32(f32ToF16(-inf)), -inf);
    EXPECT_TRUE(std::isnan(f16ToF32(f32ToF16(nan))));

    // Signaling-ish NaN payloads must stay NaN, never become inf.
    const std::uint32_t snan_bits = 0x7f800001u;
    float snan;
    std::memcpy(&snan, &snan_bits, sizeof(snan));
    EXPECT_TRUE(std::isnan(bf16ToF32(f32ToBf16(snan))));
    EXPECT_TRUE(std::isnan(f16ToF32(f32ToF16(snan))));

    // Signed zero is preserved bit-exactly.
    EXPECT_EQ(f32ToBf16(-0.0f), 0x8000u);
    EXPECT_EQ(f32ToF16(-0.0f), 0x8000u);

    // f16 overflow threshold: 65504 is the max finite, 65520 rounds up.
    EXPECT_EQ(f16ToF32(f32ToF16(65504.0f)), 65504.0f);
    EXPECT_EQ(f16ToF32(f32ToF16(65520.0f)), inf);
    // Below half the smallest f16 subnormal: flushes to (signed) zero.
    EXPECT_EQ(f32ToF16(2.0e-8f), 0x0000u);
    EXPECT_EQ(f32ToF16(-2.0e-8f), 0x8000u);
}

// -------------------------------- table entries, cross-ISA identity --

/** Random float payload with a sprinkling of specials. */
std::vector<float>
randomPayload(std::uint64_t n, std::uint32_t seed)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> uni(-100.0f, 100.0f);
    std::vector<float> v(n);
    for (auto &x : v)
        x = uni(rng);
    if (n >= 8) {
        v[1] = 0.0f;
        v[2] = -0.0f;
        v[3] = std::numeric_limits<float>::infinity();
        v[4] = -std::numeric_limits<float>::infinity();
        v[5] = std::numeric_limits<float>::quiet_NaN();
        v[6] = 6.0e-8f;   // f16 subnormal range
        v[7] = 70000.0f;  // f16 overflow range
    }
    return v;
}

TEST(DtypeKernels, ConvertRowsBitIdenticalAcrossTables)
{
    const auto tables = kernel::runnableTables();
    const auto *scalar = tables.back();
    ASSERT_STREQ(scalar->name, "scalar");

    for (std::uint64_t n : {std::uint64_t(1), std::uint64_t(7),
                            std::uint64_t(64), std::uint64_t(1000)}) {
        const auto src = randomPayload(n, 17 + std::uint32_t(n));
        for (Dtype d : {Dtype::F32, Dtype::Bf16, Dtype::F16}) {
            // Down: f32 -> d, reference from the scalar table.
            std::vector<std::uint8_t> ref_dn(n * dtypeBytes(d));
            scalar->convert_rows_from_f32(ref_dn.data(), d, src.data(), n);
            // Up: d -> f32 on the scalar-produced typed bytes.
            std::vector<float> ref_up(n);
            scalar->convert_rows_to_f32(ref_up.data(), ref_dn.data(), d, n);

            for (const auto *t : tables) {
                std::vector<std::uint8_t> dn(n * dtypeBytes(d), 0xAA);
                t->convert_rows_from_f32(dn.data(), d, src.data(), n);
                EXPECT_EQ(std::memcmp(dn.data(), ref_dn.data(), dn.size()),
                          0)
                    << t->name << " from_f32 " << dtypeName(d) << " n=" << n;

                std::vector<float> up(n, -1.0f);
                t->convert_rows_to_f32(up.data(), ref_dn.data(), d, n);
                EXPECT_EQ(std::memcmp(up.data(), ref_up.data(),
                                      n * sizeof(float)),
                          0)
                    << t->name << " to_f32 " << dtypeName(d) << " n=" << n;
            }
        }
    }
}

TEST(DtypeKernels, TransposeU16BitIdenticalAcrossTables)
{
    const auto tables = kernel::runnableTables();
    const auto *scalar = tables.back();
    ASSERT_STREQ(scalar->name, "scalar");

    std::mt19937 rng(23);
    std::uniform_int_distribution<std::uint32_t> bits(0, 0xffffu);
    for (auto [rows, cols] : {std::pair<std::uint32_t, std::uint32_t>{1, 1},
                              {3, 5}, {32, 32}, {17, 64}, {128, 9}}) {
        std::vector<std::uint16_t> src(std::size_t(rows) * cols);
        for (auto &x : src)
            x = static_cast<std::uint16_t>(bits(rng));
        std::vector<std::uint16_t> ref(src.size());
        scalar->transpose_u16(ref.data(), src.data(), rows, cols);
        // The scalar transpose is trivially checkable in place.
        for (std::uint32_t r = 0; r < rows; ++r)
            for (std::uint32_t c = 0; c < cols; ++c)
                ASSERT_EQ(ref[std::size_t(c) * rows + r],
                          src[std::size_t(r) * cols + c]);
        for (const auto *t : tables) {
            std::vector<std::uint16_t> dst(src.size(), 0xBEEF);
            t->transpose_u16(dst.data(), src.data(), rows, cols);
            EXPECT_EQ(dst, ref) << t->name << " " << rows << "x" << cols;
        }
    }
}

// ------------------------------------------- bf16 GEMM vs reference --

TEST(DtypeKernels, GemmAccumulateBf16MatchesScalarReference)
{
    const auto tables = kernel::runnableTables();
    std::mt19937 rng(31);
    std::uniform_real_distribution<float> uni(-1.0f, 1.0f);

    for (auto [m, k, n] :
         {std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>{1, 1, 1},
          {8, 32, 16}, {13, 70, 29}, {32, 128, 64}}) {
        // bf16 operands, generated once, shared by every table.
        std::vector<std::uint16_t> lhs(std::size_t(m) * k);
        std::vector<std::uint16_t> rhs(std::size_t(k) * n);
        for (auto &x : lhs)
            x = f32ToBf16(uni(rng));
        for (auto &x : rhs)
            x = f32ToBf16(uni(rng));

        // Reference: upconvert exactly, run the scalar FP32 reference.
        std::vector<float> lhs32(lhs.size()), rhs32(rhs.size());
        for (std::size_t i = 0; i < lhs.size(); ++i)
            lhs32[i] = bf16ToF32(lhs[i]);
        for (std::size_t i = 0; i < rhs.size(); ++i)
            rhs32[i] = bf16ToF32(rhs[i]);
        std::vector<float> ref(std::size_t(m) * n, 0.5f);
        rsn::fu::gemmRefAccumulate(ref.data(), lhs32.data(), rhs32.data(),
                                   m, k, n);

        for (const auto *t : tables) {
            rsn::fu::GemmScratch scratch;
            std::vector<float> acc(ref.size(), 0.5f);  // accumulates on top
            t->gemm_accumulate_bf16(scratch, acc.data(), lhs.data(),
                                    rhs.data(), m, k, n);
            for (std::size_t i = 0; i < acc.size(); ++i) {
                EXPECT_LE(std::abs(acc[i] - ref[i]),
                          1e-4 + 1e-4 * std::abs(ref[i]))
                    << t->name << " (" << m << "," << k << "," << n
                    << ") elem " << i;
            }
            scratch.release();
        }
    }
}

} // namespace
