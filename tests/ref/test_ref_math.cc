/**
 * @file
 * The reference oracle's own contract (src/ref/ref_math.hh).
 *
 *  - The register-blocked matmul and the transpose-fed matmulBt are
 *    bit-identical to a textbook triple loop that sums each element from
 *    +0 in ascending k, over a grid of ragged shapes, k = 0, and A with
 *    zero entries.
 *  - softmax is bit-identical to its two-pass definition.
 *  - referenceForward over the golden tiny encoder and NCF, f32 and
 *    bf16, three data seeds each, hashes to pinned values: a change to
 *    the oracle's arithmetic moves every accuracy margin, so it must be
 *    a deliberate one that re-records these. (The host image is FP32
 *    under every precision policy, the datapath converting at its own
 *    sites, so a bf16 machine's reference hashes like the f32 one.)
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"
#include "lib/runner.hh"
#include "lib/sweep.hh"
#include "ref/ref_math.hh"

namespace {

using namespace rsn;

/** C = A * B, each element summed from +0 in ascending k. */
ref::Matrix
naiveMatmul(const ref::Matrix &a, const ref::Matrix &b)
{
    ref::Matrix c(a.rows, b.cols);
    for (std::uint32_t i = 0; i < a.rows; ++i)
        for (std::uint32_t j = 0; j < b.cols; ++j) {
            float acc = 0.f;
            for (std::uint32_t k = 0; k < a.cols; ++k)
                acc += a.at(i, k) * b.at(k, j);
            c.at(i, j) = acc;
        }
    return c;
}

/** First element whose bits differ, or -1. */
long
firstBitDiff(const ref::Matrix &x, const ref::Matrix &y)
{
    if (x.rows != y.rows || x.cols != y.cols)
        return 0;
    for (std::size_t i = 0; i < x.data.size(); ++i)
        if (std::bit_cast<std::uint32_t>(x.data[i]) !=
            std::bit_cast<std::uint32_t>(y.data[i]))
            return long(i);
    return -1;
}

/** Every third element of @p m zeroed, and its first row entirely. */
void
sprinkleZeros(ref::Matrix &m)
{
    for (std::size_t i = 0; i < m.data.size(); i += 3)
        m.data[i] = 0.f;
    for (std::uint32_t j = 0; j < m.cols; ++j)
        m.at(0, j) = 0.f;
}

TEST(RefMath, BlockedMatmulIsBitIdenticalToTheTripleLoop)
{
    const std::uint32_t dims[] = {1, 2, 3, 5, 16, 17, 31, 33, 64, 65};
    std::uint32_t seed = 1;
    for (std::uint32_t m : dims)
        for (std::uint32_t k : dims)
            for (std::uint32_t n : dims) {
                ref::Matrix a = ref::randomMatrix(m, k, seed++);
                const ref::Matrix b = ref::randomMatrix(k, n, seed++);
                if (seed % 4 == 1)
                    sprinkleZeros(a);
                const ref::Matrix want = naiveMatmul(a, b);
                EXPECT_EQ(firstBitDiff(ref::matmul(a, b), want), -1)
                    << "matmul " << m << "x" << k << "x" << n;
                EXPECT_EQ(firstBitDiff(ref::matmulBt(a, ref::transpose(b)),
                                       want),
                          -1)
                    << "matmulBt " << m << "x" << k << "x" << n;
            }
}

TEST(RefMath, ZeroDepthAndZeroOperandsGivePositiveZeros)
{
    for (std::uint32_t n : {1u, 31u, 33u}) {
        const ref::Matrix c =
            ref::matmul(ref::Matrix(5, 0), ref::Matrix(0, n));
        ASSERT_EQ(c.rows, 5u);
        ASSERT_EQ(c.cols, n);
        EXPECT_EQ(firstBitDiff(c, ref::Matrix(5, n)), -1);
        EXPECT_EQ(firstBitDiff(ref::matmulBt(ref::Matrix(5, 0),
                                             ref::Matrix(n, 0)),
                               ref::Matrix(5, n)),
                  -1);
    }
    // An all-zero A against negative B: every product is -0, and the
    // sum from +0 stays +0.
    ref::Matrix b = ref::randomMatrix(17, 40, 3);
    for (float &v : b.data)
        v = -std::abs(v);
    EXPECT_EQ(firstBitDiff(ref::matmul(ref::Matrix(3, 17), b),
                           ref::Matrix(3, 40)),
              -1);
}

TEST(RefMath, SoftmaxIsBitIdenticalToTheTwoPassDefinition)
{
    const ref::Matrix a = ref::randomMatrix(9, 77, 11, 8.0f);
    ref::Matrix want = a;
    for (std::uint32_t i = 0; i < a.rows; ++i) {
        float mx = -INFINITY;
        for (std::uint32_t j = 0; j < a.cols; ++j)
            mx = std::max(mx, a.at(i, j));
        double sum = 0;
        for (std::uint32_t j = 0; j < a.cols; ++j)
            sum += std::exp(double(a.at(i, j)) - mx);
        for (std::uint32_t j = 0; j < a.cols; ++j)
            want.at(i, j) =
                float(std::exp(double(a.at(i, j)) - mx) / sum);
    }
    EXPECT_EQ(firstBitDiff(ref::softmax(a), want), -1);
}

/** FNV-1a over every tensor's name, shape and float bits, in name
 *  order. */
std::uint64_t
hashTensors(const std::map<std::string, ref::Matrix> &tensors)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint32_t v) {
        for (int i = 0; i < 4; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    for (const auto &[name, m] : tensors) {
        for (char ch : name)
            mix(std::uint8_t(ch));
        mix(m.rows);
        mix(m.cols);
        for (float v : m.data)
            mix(std::bit_cast<std::uint32_t>(v));
    }
    return h;
}

struct ReferenceCase {
    const char *name;
    lib::Model model;
    bool bf16;
    std::uint32_t seed;
    std::uint64_t hash;
};

TEST(RefMath, ReferenceForwardHashesArePinned)
{
    const lib::Model tiny = lib::tinyEncoder(2, 32, 64, 4, 128, true);
    const lib::Model ncf = lib::ncf(1);
    const std::vector<ReferenceCase> cases = {
        {"tiny f32", tiny, false, 2025, 0xd62d9e19999e457dull},
        {"tiny f32", tiny, false, 123, 0xfb94be3f667cbdbbull},
        {"tiny f32", tiny, false, 7, 0x7d85e9f15ae6083cull},
        {"tiny bf16", tiny, true, 2025, 0xd62d9e19999e457dull},
        {"tiny bf16", tiny, true, 123, 0xfb94be3f667cbdbbull},
        {"tiny bf16", tiny, true, 7, 0x7d85e9f15ae6083cull},
        {"ncf f32", ncf, false, 2025, 0x721bb6e1ba2bc595ull},
        {"ncf f32", ncf, false, 123, 0xab72c259805146c3ull},
        {"ncf f32", ncf, false, 7, 0x33faaa4944dbb270ull},
        {"ncf bf16", ncf, true, 2025, 0x721bb6e1ba2bc595ull},
        {"ncf bf16", ncf, true, 123, 0xab72c259805146c3ull},
        {"ncf bf16", ncf, true, 7, 0x33faaa4944dbb270ull},
    };
    // Four lanes: the NCF references dominate, and sanitizer builds run
    // them an order of magnitude slower.
    const std::vector<std::uint64_t> hashes =
        lib::SweepExecutor(4).map<std::uint64_t>(
            cases.size(), [&](lib::SweepLane &lane, std::size_t i) {
                const ReferenceCase &c = cases[i];
                core::MachineConfig cfg = core::MachineConfig::vck190(true);
                if (c.bf16)
                    cfg.precision = {Dtype::Bf16, Dtype::Bf16, Dtype::Bf16};
                core::RsnMachine &mach = lane.machine(cfg);
                const lib::CompiledModel compiled = lib::compileModel(
                    mach, c.model, lib::ScheduleOptions::optimized());
                lib::initTensors(mach, compiled, c.seed);
                return hashTensors(
                    lib::referenceForward(mach, c.model, compiled));
            });
    for (std::size_t i = 0; i < cases.size(); ++i)
        EXPECT_EQ(hashes[i], cases[i].hash)
            << cases[i].name << " seed " << cases[i].seed << ": 0x"
            << std::hex << hashes[i];
}

} // namespace
