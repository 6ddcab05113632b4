#include <gtest/gtest.h>

#include "mem/layout.hh"

namespace {

using rsn::mem::blockBursts;
using rsn::mem::LayoutKind;

TEST(Layout, FullWidthRowMajorIsOneBurst)
{
    EXPECT_EQ(blockBursts(128, 512, 512, LayoutKind::RowMajor), 1u);
    EXPECT_EQ(blockBursts(128, 64, 64, LayoutKind::RowMajor), 1u);
}

TEST(Layout, PartialRowMajorPaysPerRow)
{
    EXPECT_EQ(blockBursts(768, 128, 1024, LayoutKind::RowMajor), 768u);
    EXPECT_EQ(blockBursts(128, 64, 1024, LayoutKind::RowMajor), 128u);
}

TEST(Layout, BlockedTilePaysPerBlock)
{
    // 768x128 tile over 128x64 blocks: 6 x 2 = 12 blocks.
    EXPECT_EQ(blockBursts(768, 128, 1024, LayoutKind::Blocked), 12u);
    EXPECT_EQ(blockBursts(1, 1, 1024, LayoutKind::Blocked), 1u);
}

TEST(Layout, BlockedBeatsRowMajorForPaperTiles)
{
    // The paper's out-stationary LHS tile (768x128 of a 3072x1024 matrix).
    EXPECT_LT(blockBursts(768, 128, 1024, LayoutKind::Blocked),
              blockBursts(768, 128, 1024, LayoutKind::RowMajor));
}

TEST(Layout, EmptyTileHasNoBursts)
{
    EXPECT_EQ(blockBursts(0, 0, 1024, LayoutKind::RowMajor), 0u);
    EXPECT_EQ(blockBursts(0, 0, 1024, LayoutKind::Blocked), 0u);
}

class LayoutProperty : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(LayoutProperty, BlockedNeverWorseThanPerElementAndCoversTile)
{
    auto [rows, cols] = GetParam();
    auto blocked = blockBursts(std::uint32_t(rows), std::uint32_t(cols),
                               4096, LayoutKind::Blocked);
    // Sanity bounds: at least 1 burst, at most one per element.
    EXPECT_GE(blocked, 1u);
    EXPECT_LE(blocked, std::uint32_t(rows) * cols);
}

INSTANTIATE_TEST_SUITE_P(Shapes, LayoutProperty,
                         ::testing::Combine(::testing::Values(1, 17, 128,
                                                              768),
                                            ::testing::Values(1, 63, 64,
                                                              1024)));

} // namespace
