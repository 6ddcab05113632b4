/**
 * @file
 * Property tests for the blocked GEMM microkernel variants (ISSUE 4,
 * re-targeted at the runtime dispatch tables in ISSUE 7).
 *
 * The MME's functional math runs through whichever kernel table is
 * active — avx512, avx2 or portable, one kernel source compiled at 16,
 * 8 and 4 lanes into this one binary (fu/kernel_registry.hh).
 * These tests iterate every table the CPU runs (scalar included: the
 * reference trivially matches itself, and running it through the same
 * harness checks the dispatch plumbing), pin it under ScopedIsaOverride
 * so the call goes through the production dispatch path
 * (fu::gemmAccumulate -> kernel::active()), and compare against the
 * scalar reference kernel over randomized and adversarial shapes.
 *
 * Tolerance policy (documented in gemm_kernel.hh and docs/datapath.md):
 * the blocked kernels accumulate in registers and add the partial sum
 * into acc once, while the reference adds every product directly, and
 * FMA contracts the multiply-add rounding — so results are compared
 * with |a-b| <= kAtol + kRtol * |b| per element, never bit-exactly.
 * The scalar table is the reference itself and must match bit-exactly;
 * the loop below checks it at tolerance like the rest, and the
 * registry suite (test_kernel_registry.cc) covers its exactness.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/dtype.hh"
#include "fu/gemm_kernel.hh"
#include "fu/kernel_registry.hh"
#include "ref/ref_math.hh"

namespace {

using namespace rsn;

/** The documented comparison tolerance for reassociated FP32 GEMM. */
constexpr float kRtol = 1e-4f;
constexpr float kAtol = 1e-4f;

std::vector<float>
randomVec(std::size_t n, std::mt19937 &rng)
{
    std::uniform_real_distribution<float> dist(-1.f, 1.f);
    std::vector<float> v(n);
    for (auto &x : v)
        x = dist(rng);
    return v;
}

/** acc += lhs @ rhs through the active table and the scalar reference;
 *  EXPECT element agreement. Called with a table already pinned. */
void
checkShape(std::uint32_t m, std::uint32_t k, std::uint32_t n,
           std::mt19937 &rng)
{
    fu::GemmScratch scratch;
    auto lhs = randomVec(std::size_t(m) * k, rng);
    auto rhs = randomVec(std::size_t(k) * n, rng);
    // Start both accumulators from the same nonzero state so the
    // "+=" contract (not "=") is exercised.
    auto acc_ref = randomVec(std::size_t(m) * n, rng);
    auto acc_blk = acc_ref;

    fu::gemmRefAccumulate(acc_ref.data(), lhs.data(), rhs.data(), m, k,
                          n);
    fu::gemmAccumulate(scratch, acc_blk.data(), lhs.data(), rhs.data(),
                       m, k, n);

    for (std::size_t i = 0; i < acc_ref.size(); ++i) {
        const float a = acc_blk[i], b = acc_ref[i];
        ASSERT_LE(std::abs(a - b), kAtol + kRtol * std::abs(b))
            << "shape " << m << "x" << k << "x" << n << " elem " << i
            << " (" << kernel::active().name << " kernel): " << a
            << " vs " << b;
    }
    scratch.release();
}

TEST(GemmKernel, RunnableTablesAreKnownVariants)
{
    auto tables = kernel::runnableTables();
    ASSERT_GE(tables.size(), 2u);  // portable + scalar at minimum
    for (const auto *t : tables) {
        const std::string name = t->name;
        EXPECT_TRUE(name == "portable" || name == "avx2" ||
                    name == "avx512" || name == "scalar")
            << name;
    }
}

TEST(GemmKernel, DatapathShapesMatchScalarReference)
{
    for (const auto *t : kernel::runnableTables()) {
        SCOPED_TRACE(t->name);
        kernel::ScopedIsaOverride pin(*t);
        std::mt19937 rng(2024);
        // The shapes the tiny/BERT encoders actually produce:
        // row-slices of 16..64 against K/N up to a few hundred.
        checkShape(32, 128, 128, rng);
        checkShape(32, 128, 384, rng);
        checkShape(16, 64, 32, rng);
        checkShape(16, 32, 64, rng);
        checkShape(64, 256, 128, rng);
    }
}

TEST(GemmKernel, EdgeShapes)
{
    for (const auto *t : kernel::runnableTables()) {
        SCOPED_TRACE(t->name);
        kernel::ScopedIsaOverride pin(*t);
        std::mt19937 rng(7);
        // K = 0 is a no-op (acc must be untouched).
        {
            fu::GemmScratch scratch;
            std::vector<float> acc = randomVec(12, rng), saved = acc;
            std::vector<float> dummy(1, 1.f);
            fu::gemmAccumulate(scratch, acc.data(), dummy.data(),
                               dummy.data(), 3, 0, 4);
            EXPECT_EQ(acc, saved);
            fu::gemmAccumulate(scratch, acc.data(), dummy.data(),
                               dummy.data(), 0, 1, 4);
            fu::gemmAccumulate(scratch, acc.data(), dummy.data(),
                               dummy.data(), 3, 1, 0);
            EXPECT_EQ(acc, saved);
        }
        // Single row / single column / single K — degenerate but legal.
        checkShape(1, 1, 1, rng);
        checkShape(1, 7, 33, rng);
        checkShape(9, 1, 17, rng);
        checkShape(5, 13, 1, rng);
    }
}

TEST(GemmKernel, RandomizedShapesIncludingBlockEdges)
{
    for (const auto *t : kernel::runnableTables()) {
        SCOPED_TRACE(t->name);
        kernel::ScopedIsaOverride pin(*t);
        std::mt19937 rng(99);
        std::uniform_int_distribution<std::uint32_t> dim(1, 70);
        for (int i = 0; i < 30; ++i)
            checkShape(dim(rng), dim(rng), dim(rng), rng);
        // Deliberate non-multiples of every block size in use (8
        // rows, 8/16/32 cols) plus exact multiples, same scratch
        // reused.
        for (std::uint32_t m : {1u, 7u, 8u, 9u, 15u, 16u, 17u})
            for (std::uint32_t n : {1u, 15u, 16u, 17u, 31u, 32u, 33u})
                checkShape(m, 19, n, rng);
    }
}

TEST(GemmKernel, ScratchReusesItsPanelsAcrossCalls)
{
    fu::GemmScratch scratch;
    std::mt19937 rng(5);
    const std::uint64_t before = sim::TilePool::instance().acquires();
    {
        auto lhs = randomVec(64 * 64, rng);
        auto rhs = randomVec(64 * 72, rng);
        std::vector<float> acc(64 * 72, 0.f);
        // Panels grow on the first (largest) call — N = 72 exercises
        // the ragged-tail RHS panel too — then every smaller call packs
        // into the same buffers: no further pool traffic.
        fu::gemmAccumulate(scratch, acc.data(), lhs.data(), rhs.data(),
                           64, 64, 72);
        const std::uint64_t grown = sim::TilePool::instance().acquires();
        for (std::uint32_t s = 8; s <= 64; s += 8)
            fu::gemmAccumulate(scratch, acc.data(), lhs.data(),
                               rhs.data(), s, s, s);
        EXPECT_EQ(sim::TilePool::instance().acquires(), grown)
            << "scratch panels re-acquired on shrinking shapes";
        EXPECT_GE(grown, before);
    }
    scratch.release();
}

/** The bits of @p v, so -0/+0 and NaN payloads compare as stored. */
std::vector<std::uint32_t>
bits(const std::vector<float> &v)
{
    std::vector<std::uint32_t> b(v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        b[i] = std::bit_cast<std::uint32_t>(v[i]);
    return b;
}

TEST(GemmKernel, FmaTablesAreBitIdentical)
{
    // Every vector table gives each output element one FP32 chain: from
    // +0, one product per k in ascending order, then a single add into
    // acc. The FMA tables (avx512, avx2) round each step as a fused
    // multiply-add, so their f32 bits agree. A product of two bf16
    // values fits in FP32's 24-bit significand, so for the bf16 GEMM
    // fused and unfused steps round alike, and every non-exact table
    // agrees.
    std::vector<const kernel::KernelTable *> fma, vector_tables;
    for (const auto *t : kernel::runnableTables()) {
        const std::string name = t->name;
        if (!t->exact)
            vector_tables.push_back(t);
        if (name == "avx512" || name == "avx2")
            fma.push_back(t);
    }
    std::vector<std::array<std::uint32_t, 3>> shapes = {
        {1, 1, 1},   {1, 7, 33},    {9, 1, 17},    {5, 13, 1},
        {32, 128, 128}, {64, 256, 128}, {37, 129, 61}, {16, 64, 100},
    };
    for (std::uint32_t m : {1u, 7u, 8u, 9u, 15u, 16u, 17u})
        for (std::uint32_t n : {1u, 15u, 16u, 17u, 31u, 32u, 33u})
            shapes.push_back({m, 19, n});

    std::mt19937 rng(313);
    for (const auto &[m, k, n] : shapes) {
        SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + "x" +
                     std::to_string(n));
        const auto lhs = randomVec(std::size_t(m) * k, rng);
        const auto rhs = randomVec(std::size_t(k) * n, rng);
        const auto acc0 = randomVec(std::size_t(m) * n, rng);
        std::vector<std::uint16_t> lhs16(lhs.size()), rhs16(rhs.size());
        for (std::size_t i = 0; i < lhs.size(); ++i)
            lhs16[i] = f32ToBf16(lhs[i]);
        for (std::size_t i = 0; i < rhs.size(); ++i)
            rhs16[i] = f32ToBf16(rhs[i]);

        const auto run = [&](const kernel::KernelTable *t, bool f32) {
            fu::GemmScratch scratch;
            auto acc = acc0;
            if (f32)
                t->gemm_accumulate(scratch, acc.data(), lhs.data(),
                                   rhs.data(), m, k, n);
            else
                t->gemm_accumulate_bf16(scratch, acc.data(), lhs16.data(),
                                        rhs16.data(), m, k, n);
            scratch.release();
            return bits(acc);
        };
        for (const bool f32 : {true, false}) {
            const auto &group = f32 ? fma : vector_tables;
            for (std::size_t i = 1; i < group.size(); ++i)
                EXPECT_EQ(run(group[i], f32), run(group[0], f32))
                    << (f32 ? "f32 " : "bf16 ") << group[i]->name
                    << " vs " << group[0]->name;
        }
    }
}

TEST(GemmKernel, MatchesRefMathMatmul)
{
    // Independent cross-check against src/ref (different loop structure
    // than both kernels): C = A @ B with zero-initialized accumulator,
    // under every table.
    for (const auto *t : kernel::runnableTables()) {
        SCOPED_TRACE(t->name);
        kernel::ScopedIsaOverride pin(*t);
        fu::GemmScratch scratch;
        auto a = ref::randomMatrix(48, 96, 11);
        auto b = ref::randomMatrix(96, 80, 12);
        auto want = ref::matmul(a, b);
        ref::Matrix got(48, 80);
        fu::gemmAccumulate(scratch, got.data.data(), a.data.data(),
                           b.data.data(), 48, 96, 80);
        std::string why;
        EXPECT_TRUE(ref::allclose(got, want, kRtol, kAtol, &why)) << why;
        scratch.release();
    }
}

} // namespace
