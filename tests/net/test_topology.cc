#include <gtest/gtest.h>

#include "core/machine.hh"
#include "net/topology.hh"

namespace {

using namespace rsn;
using net::Edge;
using net::Topology;

TEST(Topology, NodeAndEdgeLookup)
{
    Topology t;
    t.addNode(kDdr);
    t.addNode(kMeshA);
    t.addEdge({kDdr, kMeshA, 128, 2});
    EXPECT_TRUE(t.hasNode(kDdr));
    EXPECT_FALSE(t.hasNode(mme(0)));
    EXPECT_TRUE(t.hasEdge(kDdr, kMeshA));
    EXPECT_FALSE(t.hasEdge(kMeshA, kDdr));  // directed
    ASSERT_EQ(t.edges().size(), 1u);
    EXPECT_EQ(t.edges()[0].bytes_per_tick, 128u);
}

TEST(Topology, ValidateCatchesDanglingEdge)
{
    Topology t;
    t.addNode(kDdr);
    t.addEdge({kDdr, kMeshA, 128, 2});  // MeshA not a node
    EXPECT_THROW(t.validate(), std::runtime_error);
}

TEST(Topology, ValidateCatchesSelfLoopAndDuplicates)
{
    Topology t;
    t.addNode(kDdr);
    t.addNode(kMeshA);
    t.addEdge({kDdr, kDdr, 128, 2});
    EXPECT_THROW(t.validate(), std::runtime_error);

    Topology t2;
    t2.addNode(kDdr);
    t2.addNode(kMeshA);
    t2.addEdge({kDdr, kMeshA, 128, 2});
    t2.addEdge({kDdr, kMeshA, 64, 2});
    EXPECT_THROW(t2.validate(), std::runtime_error);
}

TEST(Topology, InOutEdgesAndAggregateBandwidth)
{
    Topology t;
    t.addNode(kDdr);
    t.addNode(kMeshA);
    t.addNode(mme(0));
    t.addEdge({kDdr, kMeshA, 100, 2});
    t.addEdge({kMeshA, mme(0), 50, 2});
    EXPECT_TRUE(t.hasEdge(kDdr, kMeshA));    // MeshA's one in-edge
    EXPECT_TRUE(t.hasEdge(kMeshA, mme(0)));  // and its one out-edge
    EXPECT_FALSE(t.hasEdge(kDdr, mme(0)));
    EXPECT_EQ(t.aggregateBandwidth(kMeshA), 150u);
    EXPECT_EQ(t.aggregateBandwidth(kDdr), 100u);
}

TEST(Topology, DotExportNamesEveryNode)
{
    Topology t;
    t.addNode(kDdr);
    t.addNode(kMeshA);
    t.addEdge({kDdr, kMeshA, 100, 2});
    std::string dot = t.toDot("g");
    EXPECT_NE(dot.find("digraph g"), std::string::npos);
    EXPECT_NE(dot.find("\"DDR\""), std::string::npos);
    EXPECT_NE(dot.find("\"DDR\" -> \"MeshA\""), std::string::npos);
}

TEST(RsnXnnTopology, MatchesPaperFigure10Structure)
{
    auto t = core::buildRsnXnnTopology();
    // 6 MME + 3 MemA + 3 MemB + 6 MemC + 2 mesh + DDR + LPDDR = 22.
    EXPECT_EQ(t.nodes().size(), 22u);

    // Every MME reads LHS from MeshA, RHS from MeshB, writes its own
    // MemC partner.
    for (int i = 0; i < 6; ++i) {
        EXPECT_TRUE(t.hasEdge({FuType::MeshA, 0}, mme(i)));
        EXPECT_TRUE(t.hasEdge({FuType::MeshB, 0}, mme(i)));
        EXPECT_TRUE(t.hasEdge(mme(i),
                              {FuType::MemC, std::uint8_t(i)}));
        // No cross partner.
        EXPECT_FALSE(t.hasEdge(mme(i),
                               {FuType::MemC,
                                std::uint8_t((i + 1) % 6)}));
    }
    // Dynamic chaining: MemC re-injects into both meshes.
    EXPECT_TRUE(t.hasEdge({FuType::MemC, 0}, {FuType::MeshA, 0}));
    EXPECT_TRUE(t.hasEdge({FuType::MemC, 0}, {FuType::MeshB, 0}));
    // Off-chip movers reach the scratchpads.
    EXPECT_TRUE(t.hasEdge(kDdr, {FuType::MemA, 0}));
    EXPECT_TRUE(t.hasEdge(kDdr, {FuType::MemB, 2}));
    EXPECT_TRUE(t.hasEdge({FuType::Lpddr, 0}, {FuType::MemB, 0}));
    // Store path.
    EXPECT_TRUE(t.hasEdge({FuType::MemC, 5}, kDdr));
    t.validate();  // must not throw

    // The attention pipeline path is connected end to end.
    const std::vector<FuId> path = {kDdr,
                                    {FuType::MemA, 0},
                                    {FuType::MeshA, 0},
                                    mme(0),
                                    {FuType::MemC, 0},
                                    {FuType::MeshA, 0},
                                    mme(3),
                                    {FuType::MemC, 3},
                                    kDdr};
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
        EXPECT_TRUE(t.hasEdge(path[i], path[i + 1]))
            << path[i].toString() << "->" << path[i + 1].toString();
}

TEST(RsnXnnTopology, MeshesHaveNoMemoryOrCompute)
{
    core::RsnMachine m(core::MachineConfig::vck190());
    EXPECT_DOUBLE_EQ(m.fuPeakTflops({FuType::MeshA, 0}), 0.0);
    EXPECT_EQ(m.fuMemoryBytes({FuType::MeshA, 0}), 0u);
    EXPECT_GT(m.fuPeakTflops(mme(0)), 1.0);
    EXPECT_EQ(m.fuMemoryBytes(mme(0)), 590u * 1024);
    EXPECT_EQ(m.fuMemoryBytes({FuType::MemB, 0}), 512u * 1024);
    EXPECT_EQ(m.fuMemoryBytes({FuType::MemB, 2}), 256u * 1024);
}

} // namespace
