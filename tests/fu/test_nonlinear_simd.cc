/**
 * @file
 * Property tests for the vectorized nonlinear operators and the tile
 * transpose across every runtime kernel table (ISSUE 5, re-targeted at
 * the dispatch registry in ISSUE 7), mirroring the GEMM microkernel
 * suite (test_gemm_kernel.cc).
 *
 * One binary now carries every variant — AVX-512, AVX2+FMA, NEON, the
 * portable auto-vectorized form, and the exact scalar reference
 * (fu/kernel_registry.hh). Each vectorized table is pinned against the
 * exact scalar kernels (fu/nonlinear.hh) over randomized shapes,
 * including single-element rows and widths that are not multiples of
 * any vector width, with the documented tolerances:
 *
 *   softmax    |a-b| <= 1e-5 + 1e-5*|b|   (polynomial exp, ~2e-7 rel)
 *   GELU       |a-b| <= 1e-3 + 1e-3*|b|   (tanh formula, <= ~4.8e-4)
 *   layernorm  |a-b| <= 1e-4 + 1e-4*|b|   (float lane accumulation)
 *   transpose                              bit-identical across tables
 *   scale-shift / residual add             bit-identical (not in the
 *                                          table at all: fu/nonlinear)
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "fu/kernel_registry.hh"
#include "fu/nonlinear.hh"
#include "ref/ref_math.hh"

namespace {

using namespace rsn;

constexpr float kSoftmaxTol = 1e-5f;
constexpr float kGeluTol = 1e-3f;
constexpr float kLayernormTol = 1e-4f;

std::vector<float>
randomVec(std::size_t n, std::mt19937 &rng, float scale = 4.0f)
{
    std::uniform_real_distribution<float> dist(-scale, scale);
    std::vector<float> v(n);
    for (auto &x : v)
        x = dist(rng);
    return v;
}

void
expectClose(const std::vector<float> &got, const std::vector<float> &ref,
            float tol, const char *what, const char *table,
            std::uint32_t rows, std::uint32_t cols)
{
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_LE(std::abs(got[i] - ref[i]),
                  tol + tol * std::abs(ref[i]))
            << what << " " << rows << "x" << cols << " elem " << i
            << " (" << table << " kernel): " << got[i] << " vs "
            << ref[i];
}

/** Shapes that hit every vector-width edge: 1-element rows, widths
 *  around 4/8/16 (NEON/AVX2/AVX-512 lanes), and non-multiples. */
const std::pair<std::uint32_t, std::uint32_t> kEdgeShapes[] = {
    {1, 1},  {1, 2},   {3, 1},   {2, 3},   {1, 4},   {2, 5},
    {1, 7},  {4, 8},   {3, 9},   {5, 15},  {2, 16},  {7, 17},
    {1, 31}, {4, 33},  {8, 64},  {3, 100}, {6, 127}, {2, 129},
    {1, 255}, {2, 257},
};

TEST(NonlinearKernels, EveryTableReportsAKnownVariant)
{
    auto tables = kernel::runnableTables();
    ASSERT_GE(tables.size(), 2u);  // portable + scalar at minimum
    for (const auto *t : tables) {
        const std::string name = t->name;
        EXPECT_TRUE(name == "portable" || name == "avx2" ||
                    name == "avx512" || name == "neon" ||
                    name == "scalar")
            << name;
        EXPECT_EQ(t->exact, name == "scalar");
    }
}

TEST(NonlinearKernels, SoftmaxMatchesExactOverRandomizedShapes)
{
    for (const auto *t : kernel::runnableTables()) {
        std::mt19937 rng(11);
        for (auto [rows, cols] : kEdgeShapes) {
            auto exact = randomVec(std::size_t(rows) * cols, rng);
            auto got = exact;
            fu::softmaxRows(exact.data(), rows, cols);
            t->softmax_rows(got.data(), rows, cols);
            expectClose(got, exact, kSoftmaxTol, "softmax", t->name,
                        rows, cols);
            // Rows still sum to one.
            for (std::uint32_t r = 0; r < rows; ++r) {
                double sum = 0;
                for (std::uint32_t c = 0; c < cols; ++c)
                    sum += got[std::size_t(r) * cols + c];
                EXPECT_NEAR(sum, 1.0, 1e-5);
            }
        }
    }
}

TEST(NonlinearKernels, SoftmaxStableForLargeLogits)
{
    // The polynomial exp clamps instead of overflowing/underflowing.
    for (const auto *t : kernel::runnableTables()) {
        SCOPED_TRACE(t->name);
        std::vector<float> tile = {500.f, 499.f, 0.f, -500.f};
        t->softmax_rows(tile.data(), 1, 4);
        for (float v : tile) {
            EXPECT_TRUE(std::isfinite(v));
            EXPECT_GE(v, 0.f);
        }
        EXPECT_GT(tile[0], tile[1]);
        EXPECT_NEAR(tile[0] + tile[1] + tile[2] + tile[3], 1.0f, 1e-5);
    }
}

TEST(NonlinearKernels, SoftmaxSingleColumnIsOne)
{
    for (const auto *t : kernel::runnableTables()) {
        SCOPED_TRACE(t->name);
        std::vector<float> tile = {42.f, -3.f, 0.f};
        t->softmax_rows(tile.data(), 3, 1);
        for (float v : tile)
            EXPECT_FLOAT_EQ(v, 1.0f);
    }
}

TEST(NonlinearKernels, GeluMatchesExactWithinFormulaTolerance)
{
    for (const auto *t : kernel::runnableTables()) {
        std::mt19937 rng(13);
        for (auto [rows, cols] : kEdgeShapes) {
            auto exact = randomVec(std::size_t(rows) * cols, rng, 6.0f);
            auto got = exact;
            fu::geluInplace(exact.data(), exact.size());
            t->gelu_inplace(got.data(), got.size());
            expectClose(got, exact, kGeluTol, "gelu", t->name, rows,
                        cols);
        }
    }
}

TEST(NonlinearKernels, GeluSaturatesLikeTheExactKernel)
{
    // Identity for large positive x, zero for large negative x — and
    // finite everywhere (the exp clamp must not produce inf).
    for (const auto *t : kernel::runnableTables()) {
        SCOPED_TRACE(t->name);
        std::vector<float> tile = {10.f,   -10.f,   50.f,
                                   -50.f,  1000.f,  -1000.f};
        t->gelu_inplace(tile.data(), tile.size());
        EXPECT_NEAR(tile[0], 10.f, 1e-4);
        EXPECT_NEAR(tile[1], 0.f, 1e-4);
        EXPECT_NEAR(tile[2], 50.f, 1e-4);
        EXPECT_NEAR(tile[3], 0.f, 1e-4);
        for (float v : tile)
            EXPECT_TRUE(std::isfinite(v));
    }
}

TEST(NonlinearKernels, LayernormMatchesExactOverRandomizedShapes)
{
    for (const auto *t : kernel::runnableTables()) {
        std::mt19937 rng(17);
        for (auto [rows, cols] : kEdgeShapes) {
            auto exact = randomVec(std::size_t(rows) * cols, rng, 7.0f);
            auto got = exact;
            fu::layernormRows(exact.data(), rows, cols);
            t->layernorm_rows(got.data(), rows, cols);
            expectClose(got, exact, kLayernormTol, "layernorm", t->name,
                        rows, cols);
        }
    }
}

TEST(NonlinearKernels, LayernormSurvivesLargeMeanRows)
{
    // The shifted two-pass form must not cancel catastrophically when
    // a row's common mean dwarfs its spread (the failure mode the
    // scalar single-pass variance had).
    for (const auto *t : kernel::runnableTables()) {
        std::mt19937 rng(19);
        std::uniform_real_distribution<float> noise(-1.f, 1.f);
        for (float mean : {1e4f, 1e6f}) {
            const std::uint32_t rows = 4, cols = 200;
            std::vector<float> tile(std::size_t(rows) * cols);
            for (auto &x : tile)
                x = mean + noise(rng);
            auto exact = tile;
            fu::layernormRows(exact.data(), rows, cols);
            t->layernorm_rows(tile.data(), rows, cols);
            expectClose(tile, exact, kLayernormTol,
                        "layernorm-large-mean", t->name, rows, cols);
            for (float v : tile)
                EXPECT_TRUE(std::isfinite(v));
        }
    }
}

TEST(NonlinearKernels, LayernormConstantRowIsZero)
{
    for (const auto *t : kernel::runnableTables()) {
        SCOPED_TRACE(t->name);
        std::vector<float> tile(37, 2.5f);
        t->layernorm_rows(tile.data(), 1, 37);
        for (float v : tile)
            EXPECT_NEAR(v, 0.f, 1e-2);  // eps floor, no divide-by-zero
    }
}

TEST(NonlinearKernels, DegenerateShapesAreNoOps)
{
    // rows == 0 / cols == 0 must not touch (or read) anything — the
    // same guards the scalar kernels gained (ISSUE 5 regression) —
    // under every table.
    for (const auto *t : kernel::runnableTables()) {
        SCOPED_TRACE(t->name);
        t->softmax_rows(nullptr, 0, 16);
        t->softmax_rows(nullptr, 16, 0);
        t->layernorm_rows(nullptr, 0, 16);
        t->layernorm_rows(nullptr, 16, 0);
        t->gelu_inplace(nullptr, 0);
        t->transpose(nullptr, nullptr, 0, 16);
        t->transpose(nullptr, nullptr, 16, 0);
        std::vector<float> sentinel = {1.f, 2.f};
        t->softmax_rows(sentinel.data(), 0, 2);
        t->layernorm_rows(sentinel.data(), 0, 2);
        EXPECT_FLOAT_EQ(sentinel[0], 1.f);
        EXPECT_FLOAT_EQ(sentinel[1], 2.f);
    }
}

// ----------------------------------------------------------- transpose --

/** Naive transpose as the independent reference (the scalar table uses
 *  the same loop shape, but written here separately on purpose). */
std::vector<float>
naiveTranspose(const std::vector<float> &src, std::uint32_t rows,
               std::uint32_t cols)
{
    std::vector<float> dst(src.size());
    for (std::uint32_t r = 0; r < rows; ++r)
        for (std::uint32_t c = 0; c < cols; ++c)
            dst[std::size_t(c) * rows + r] = src[std::size_t(r) * cols + c];
    return dst;
}

TEST(NonlinearKernels, TransposeIsBitIdenticalAcrossAllTables)
{
    // Transpose is pure data movement: every table must produce the
    // same bits (MemB's weight-transpose feeds golden checksums, which
    // may never move with the ISA).
    std::mt19937 rng(37);
    // Shapes around the 8x8 (AVX) / 4x4 (NEON) / 32x32 (portable)
    // block sizes, plus ragged edges and degenerate vectors.
    const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
        {1, 1},  {1, 9},  {9, 1},  {3, 5},   {4, 4},   {7, 8},
        {8, 8},  {8, 9},  {9, 8},  {15, 17}, {16, 16}, {31, 33},
        {32, 32}, {33, 31}, {64, 48}, {40, 100},
    };
    for (auto [rows, cols] : shapes) {
        auto src = randomVec(std::size_t(rows) * cols, rng);
        auto want = naiveTranspose(src, rows, cols);
        for (const auto *t : kernel::runnableTables()) {
            SCOPED_TRACE(std::string(t->name) + " " +
                         std::to_string(rows) + "x" +
                         std::to_string(cols));
            std::vector<float> dst(src.size(), -1e30f);
            t->transpose(dst.data(), src.data(), rows, cols);
            EXPECT_EQ(dst, want);
        }
    }
}

// ----------------------------------- out-of-table affine ops stay put --

TEST(NonlinearKernels, ScaleShiftAndResidualAreTableIndependent)
{
    // scaleShiftRows / addInplace are deliberately NOT in the dispatch
    // table (fu/nonlinear.cc): plain affine arithmetic is bit-identical
    // under every ISA, so MemC calls them directly. Pin that they do
    // not react to the active table (golden checksums rely on this).
    std::mt19937 rng(29);
    const std::uint32_t rows = 5, cols = 23;
    auto base = randomVec(std::size_t(rows) * cols, rng);
    auto gamma = randomVec(cols, rng), beta = randomVec(cols, rng);
    auto other = randomVec(base.size(), rng);

    std::vector<float> want_ss, want_add;
    bool first = true;
    for (const auto *t : kernel::runnableTables()) {
        SCOPED_TRACE(t->name);
        kernel::ScopedIsaOverride pin(*t);
        auto got = base;
        fu::scaleShiftRows(got.data(), rows, cols, gamma.data(),
                           beta.data());
        auto sum = base;
        fu::addInplace(sum.data(), other.data(), sum.size());
        if (first) {
            want_ss = got;
            want_add = sum;
            first = false;
        } else {
            EXPECT_EQ(got, want_ss);
            EXPECT_EQ(sum, want_add);
        }
    }
}

TEST(NonlinearKernels, SoftmaxCrossChecksAgainstRefMath)
{
    // Independent reference (different loop structure than both fu
    // kernels): every table's softmax must land on ref_math too.
    for (const auto *t : kernel::runnableTables()) {
        SCOPED_TRACE(t->name);
        auto m = ref::randomMatrix(16, 48, 41, 5.0f);
        auto tile = m.data;
        t->softmax_rows(tile.data(), 16, 48);
        auto expect = ref::softmax(m);
        ref::Matrix got(16, 48, tile.data());
        std::string why;
        EXPECT_TRUE(
            ref::allclose(got, expect, kSoftmaxTol, kSoftmaxTol, &why))
            << why;
    }
}

} // namespace
