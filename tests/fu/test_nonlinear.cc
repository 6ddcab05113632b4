#include <gtest/gtest.h>

#include <cmath>

#include "fu/nonlinear.hh"
#include "ref/ref_math.hh"

namespace {

using namespace rsn;

TEST(Softmax, MatchesReferenceOnRandomTiles)
{
    for (std::uint32_t seed = 1; seed <= 8; ++seed) {
        auto m = ref::randomMatrix(16, 32, seed, 4.0f);
        auto tile = m.data;
        fu::softmaxRows(tile.data(), 16, 32);
        auto expect = ref::softmax(m);
        for (std::size_t i = 0; i < tile.size(); ++i)
            EXPECT_NEAR(tile[i], expect.data[i], 1e-6);
    }
}

TEST(Softmax, RowsSumToOne)
{
    auto m = ref::randomMatrix(8, 64, 3, 10.0f);
    auto tile = m.data;
    fu::softmaxRows(tile.data(), 8, 64);
    for (int r = 0; r < 8; ++r) {
        double sum = 0;
        for (int c = 0; c < 64; ++c)
            sum += tile[r * 64 + c];
        EXPECT_NEAR(sum, 1.0, 1e-5);
    }
}

TEST(Softmax, StableForLargeLogits)
{
    // Without max subtraction exp(500) overflows to inf.
    std::vector<float> tile = {500.f, 499.f, 0.f, -500.f};
    fu::softmaxRows(tile.data(), 1, 4);
    EXPECT_FALSE(std::isnan(tile[0]));
    EXPECT_GT(tile[0], tile[1]);
    EXPECT_NEAR(tile[0] + tile[1] + tile[2] + tile[3], 1.0f, 1e-5);
}

TEST(Softmax, UniformInputGivesUniformOutput)
{
    std::vector<float> tile(8, 3.25f);
    fu::softmaxRows(tile.data(), 1, 8);
    for (float v : tile)
        EXPECT_NEAR(v, 0.125f, 1e-6);
}

TEST(Softmax, DegenerateShapesAreNoOps)
{
    // Regression (ISSUE 5): softmaxRows used to seed the row max from
    // row[0] before checking cols, reading out of bounds for
    // zero-width rows. Degenerate shapes must be no-ops.
    fu::softmaxRows(nullptr, 0, 8);
    fu::softmaxRows(nullptr, 8, 0);
    std::vector<float> sentinel = {3.f, 4.f};
    fu::softmaxRows(sentinel.data(), 0, 2);
    fu::softmaxRows(sentinel.data(), 2, 0);
    EXPECT_FLOAT_EQ(sentinel[0], 3.f);
    EXPECT_FLOAT_EQ(sentinel[1], 4.f);
}

TEST(Gelu, MatchesReference)
{
    auto m = ref::randomMatrix(8, 8, 17, 3.0f);
    auto tile = m.data;
    fu::geluInplace(tile.data(), tile.size());
    auto expect = ref::gelu(m);
    for (std::size_t i = 0; i < tile.size(); ++i)
        EXPECT_NEAR(tile[i], expect.data[i], 1e-5);
}

TEST(Gelu, KnownValues)
{
    std::vector<float> tile = {0.f, 1.f, -1.f, 10.f, -10.f};
    fu::geluInplace(tile.data(), tile.size());
    EXPECT_FLOAT_EQ(tile[0], 0.f);
    EXPECT_NEAR(tile[1], 0.8413447f, 1e-5);
    EXPECT_NEAR(tile[2], -0.1586553f, 1e-5);
    EXPECT_NEAR(tile[3], 10.f, 1e-4);   // saturates to identity
    EXPECT_NEAR(tile[4], 0.f, 1e-4);    // saturates to zero
}

TEST(Layernorm, ZeroMeanUnitVariance)
{
    auto m = ref::randomMatrix(4, 128, 5, 7.0f);
    auto tile = m.data;
    fu::layernormRows(tile.data(), 4, 128);
    for (int r = 0; r < 4; ++r) {
        double mean = 0, var = 0;
        for (int c = 0; c < 128; ++c)
            mean += tile[r * 128 + c];
        mean /= 128;
        for (int c = 0; c < 128; ++c) {
            double d = tile[r * 128 + c] - mean;
            var += d * d;
        }
        var /= 128;
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(var, 1.0, 1e-2);
    }
}

TEST(Layernorm, WithScaleShiftMatchesReference)
{
    auto m = ref::randomMatrix(4, 16, 21, 2.0f);
    std::vector<float> gamma(16), beta(16);
    for (int i = 0; i < 16; ++i) {
        gamma[i] = 0.5f + 0.1f * i;
        beta[i] = -0.3f + 0.05f * i;
    }
    auto tile = m.data;
    fu::layernormRows(tile.data(), 4, 16);
    fu::scaleShiftRows(tile.data(), 4, 16, gamma.data(), beta.data());
    auto expect = ref::layernorm(m, gamma, beta);
    for (std::size_t i = 0; i < tile.size(); ++i)
        EXPECT_NEAR(tile[i], expect.data[i], 1e-4);
}

TEST(Layernorm, ConstantRowDoesNotBlowUp)
{
    std::vector<float> tile(16, 2.5f);
    fu::layernormRows(tile.data(), 1, 16);
    for (float v : tile)
        EXPECT_NEAR(v, 0.f, 1e-2);  // eps prevents divide-by-zero
}

TEST(Layernorm, LargeMeanRowsMatchReference)
{
    // Regression (ISSUE 5): the old single-pass E[x^2] - E[x]^2
    // variance cancels catastrophically when the row mean dwarfs the
    // spread — for mean ~1e6 rows it went negative/garbage. The
    // two-pass form must agree with ref_math (itself two-pass) to
    // normal tolerance, and large constant rows must normalize to
    // exactly zero deviation.
    std::uint32_t rows = 3, cols = 128;
    std::vector<float> gamma(cols, 1.f), beta(cols, 0.f);
    for (float mean : {1e4f, 1e6f}) {
        ref::Matrix m(rows, cols);
        std::uint32_t s = 1;
        for (auto &x : m.data) {
            s = s * 1664525u + 1013904223u;  // LCG noise in [-1, 1)
            x = mean + (float(s >> 8) / float(1u << 23) - 1.0f);
        }
        auto tile = m.data;
        fu::layernormRows(tile.data(), rows, cols);
        auto expect = ref::layernorm(m, gamma, beta);
        for (std::size_t i = 0; i < tile.size(); ++i) {
            ASSERT_TRUE(std::isfinite(tile[i])) << "mean " << mean;
            ASSERT_NEAR(tile[i], expect.data[i], 1e-4)
                << "mean " << mean << " elem " << i;
        }
    }
    // All-constant large row: variance is exactly zero, outputs too.
    std::vector<float> flat(64, 1e4f);
    fu::layernormRows(flat.data(), 1, 64);
    for (float v : flat)
        EXPECT_FLOAT_EQ(v, 0.f);
}

TEST(Layernorm, DegenerateShapesAreNoOps)
{
    fu::layernormRows(nullptr, 0, 8);
    fu::layernormRows(nullptr, 8, 0);
}

TEST(AddInplace, ElementwiseSum)
{
    std::vector<float> a = {1, 2, 3};
    std::vector<float> b = {10, 20, 30};
    fu::addInplace(a.data(), b.data(), a.size());
    EXPECT_FLOAT_EQ(a[0], 11.f);
    EXPECT_FLOAT_EQ(a[2], 33.f);
}

TEST(RefMath, MatmulBtEqualsMatmulWithTranspose)
{
    auto a = ref::randomMatrix(5, 7, 1);
    auto b = ref::randomMatrix(9, 7, 2);
    auto viaT = ref::matmul(a, ref::transpose(b));
    auto direct = ref::matmulBt(a, b);
    EXPECT_TRUE(ref::allclose(direct, viaT, 1e-5f, 1e-6f));
}

TEST(RefMath, RandomMatrixIsDeterministicPerSeed)
{
    auto a = ref::randomMatrix(4, 4, 42);
    auto b = ref::randomMatrix(4, 4, 42);
    auto c = ref::randomMatrix(4, 4, 43);
    EXPECT_EQ(a.data, b.data);
    EXPECT_NE(a.data, c.data);
}

TEST(RefMath, AllcloseDetectsMismatch)
{
    ref::Matrix a(2, 2), b(2, 2);
    a.data = {1, 2, 3, 4};
    b.data = {1, 2, 3, 4.5f};
    std::string why;
    EXPECT_FALSE(ref::allclose(a, b, 1e-3f, 1e-3f, &why));
    EXPECT_FALSE(why.empty());
    EXPECT_NEAR(ref::maxAbsDiff(a, b), 0.5f, 1e-6);
}

} // namespace
