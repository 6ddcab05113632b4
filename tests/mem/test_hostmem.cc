#include <gtest/gtest.h>

#include <numeric>

#include "mem/hostmem.hh"

namespace {

using rsn::Addr;
using rsn::mem::HostMemory;

/** A rows x cols block read through readBlockInto, the one read path. */
std::vector<float>
readBlock(const HostMemory &m, Addr addr, std::uint64_t pitch,
          std::uint32_t rows, std::uint32_t cols)
{
    std::vector<float> out(std::size_t(rows) * cols);
    m.readBlockInto(addr, pitch, rows, cols, out.data());
    return out;
}

TEST(HostMem, AllocReturnsAlignedDisjointRegions)
{
    HostMemory m(false);
    Addr a = m.alloc(100, "a");
    Addr b = m.alloc(200, "b");
    EXPECT_NE(a, b);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_GE(b, a + 100 * 4);
    EXPECT_EQ(m.regionName(a), "a");
    EXPECT_EQ(m.regionName(b + 4), "b");
}

TEST(HostMem, TimingModeReadsReturnEmpty)
{
    HostMemory m(false);
    Addr a = m.alloc(64, "a");
    std::vector<float> out(16, -1.f);
    m.readBlockInto(a, 8, 4, 4, out.data());
    EXPECT_EQ(out, std::vector<float>(16, -1.f)) << "no storage to copy";
    EXPECT_TRUE(m.region(a).empty());
}

TEST(HostMem, FunctionalWriteThenReadRoundTrips)
{
    HostMemory m(true);
    Addr a = m.alloc(64, "t");  // 8x8 matrix
    std::vector<float> block = {1, 2, 3, 4, 5, 6};  // 2 rows x 3 cols
    // Write at row 2, col 1 of an 8-wide matrix: addr + (2*8+1)*4.
    Addr at = a + (2 * 8 + 1) * 4;
    m.writeBlock(at, 8, 2, 3, block.data(), block.size());
    EXPECT_EQ(readBlock(m, at, 8, 2, 3), block);
    // Neighbouring elements stay zero.
    auto row = readBlock(m, a + 2 * 8 * 4, 8, 1, 8);
    EXPECT_FLOAT_EQ(row[0], 0.f);
    EXPECT_FLOAT_EQ(row[1], 1.f);
    EXPECT_FLOAT_EQ(row[4], 0.f);
}

TEST(HostMem, FillAndReadRegion)
{
    HostMemory m(true);
    Addr a = m.alloc(16, "r");
    std::vector<float> vals(16);
    std::iota(vals.begin(), vals.end(), 0.f);
    m.fillRegion(a, vals);
    EXPECT_EQ(m.readRegion(a), vals);
}

TEST(HostMem, PitchedReadSkipsBetweenRows)
{
    HostMemory m(true);
    Addr a = m.alloc(32, "p");  // 4x8
    std::vector<float> all(32);
    std::iota(all.begin(), all.end(), 0.f);
    m.fillRegion(a, all);
    auto col01 = readBlock(m, a, 8, 4, 2);
    EXPECT_EQ(col01, (std::vector<float>{0, 1, 8, 9, 16, 17, 24, 25}));
}

TEST(HostMem, StridedAndContiguousRoundTripsAgree)
{
    // The fast path (ISSUE 5): pitch == cols collapses to one block
    // memcpy, strided windows to one memcpy per row. Both must move
    // exactly the same elements as the old element-wise loops — write
    // a strided window, read it back strided and embedded in full
    // rows, and check the gap columns were never touched.
    HostMemory m(true);
    const std::uint32_t kRows = 6, kCols = 5, kPitch = 12;
    Addr base = m.alloc(kRows * kPitch, "mat");
    std::vector<float> backdrop(kRows * kPitch);
    std::iota(backdrop.begin(), backdrop.end(), 100.f);
    m.fillRegion(base, backdrop);

    std::vector<float> block(kRows * kCols);
    std::iota(block.begin(), block.end(), 0.f);
    Addr at = base + 2 * sizeof(float);  // column offset 2
    m.writeBlock(at, kPitch, kRows, kCols, block.data(), block.size());

    // Strided read-back returns the block exactly.
    EXPECT_EQ(readBlock(m, at, kPitch, kRows, kCols), block);

    // Gap columns kept their backdrop values.
    auto whole = m.readRegion(base);
    for (std::uint32_t r = 0; r < kRows; ++r)
        for (std::uint32_t c = 0; c < kPitch; ++c) {
            const std::size_t i = std::size_t(r) * kPitch + c;
            if (c >= 2 && c < 2 + kCols)
                EXPECT_FLOAT_EQ(whole[i], block[r * kCols + (c - 2)]);
            else
                EXPECT_FLOAT_EQ(whole[i], backdrop[i]) << r << "," << c;
        }

    // Dense round trip (pitch == cols): the single-block-memcpy path.
    Addr dense = m.alloc(kRows * kCols, "dense");
    m.writeBlock(dense, kCols, kRows, kCols, block.data(), block.size());
    EXPECT_EQ(readBlock(m, dense, kCols, kRows, kCols), block);
}

TEST(HostMem, ZeroSizedBlocksAreNoOps)
{
    // rows == 0 / cols == 0 must not compute a bounds window (the
    // rows - 1 term would underflow) or touch memory.
    HostMemory m(true);
    Addr a = m.alloc(16, "z");
    std::vector<float> vals(16, 7.f);
    m.fillRegion(a, vals);
    m.writeBlock(a, 4, 0, 4, nullptr, 0);
    m.writeBlock(a, 4, 4, 0, nullptr, 0);
    float sentinel = -1.f;
    m.readBlockInto(a, 4, 0, 4, &sentinel);
    m.readBlockInto(a, 4, 4, 0, &sentinel);
    EXPECT_FLOAT_EQ(sentinel, -1.f);
    EXPECT_EQ(m.readRegion(a), vals);
}

TEST(HostMem, AllocatedBytesAccumulates)
{
    HostMemory m(false);
    m.alloc(16, "x");
    auto before = m.allocatedBytes();
    m.alloc(16, "y");
    EXPECT_GT(m.allocatedBytes(), before);
}

} // namespace
