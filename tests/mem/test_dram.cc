#include <gtest/gtest.h>

#include "mem/dram.hh"
#include "sim/engine.hh"
#include "sim/task.hh"

namespace {

using rsn::Tick;
using rsn::mem::Dir;
using rsn::mem::DramChannel;
using rsn::mem::DramConfig;
using rsn::mem::DramRequest;
using rsn::sim::Engine;
using rsn::sim::Task;

DramConfig
testCfg()
{
    DramConfig cfg;
    cfg.read_gbps = 21.0;
    cfg.write_gbps = 23.5;
    return cfg;
}

TEST(Dram, ServiceTimeMatchesBandwidth)
{
    Engine e;
    DramChannel ch(e, testCfg());
    // 21 GB/s at 260 MHz = ~80.77 B/tick. 1 MiB read ~= 12982 ticks + 16.
    DramRequest req{Dir::Read, 1 << 20, 1};
    Tick t = ch.serviceTicks(req);
    EXPECT_NEAR(static_cast<double>(t), (1 << 20) / 80.769 + 16, 3.0);
}

TEST(Dram, WritesAreFasterThanReadsPerPaperRates)
{
    Engine e;
    DramChannel ch(e, testCfg());
    DramRequest rd{Dir::Read, 1 << 20, 1};
    DramRequest wr{Dir::Write, 1 << 20, 1};
    EXPECT_LT(ch.serviceTicks(wr), ch.serviceTicks(rd));
}

TEST(Dram, BurstsAddOverhead)
{
    Engine e;
    DramChannel ch(e, testCfg());
    DramRequest contiguous{Dir::Read, 65536, 1};
    DramRequest strided{Dir::Read, 65536, 128};
    EXPECT_EQ(ch.serviceTicks(strided) - ch.serviceTicks(contiguous),
              Tick(127) * 16);
}

Task
doAccess(DramChannel &ch, DramRequest req, Tick &done_at, Engine &e)
{
    co_await e.delayUntil(ch.access(req));
    done_at = e.now();
}

TEST(Dram, RequestsSerializeInArrivalOrder)
{
    Engine e;
    DramChannel ch(e, testCfg());
    Tick t1 = 0, t2 = 0;
    DramRequest req{Dir::Read, 80770, 1};  // ~1000 ticks + 16
    Task a = doAccess(ch, req, t1, e);
    Task b = doAccess(ch, req, t2, e);
    e.run();
    EXPECT_GT(t1, 0u);
    EXPECT_EQ(t2, 2 * t1);  // back-to-back service, same duration
    EXPECT_EQ(ch.requests(), 2u);
}

TEST(Dram, StatsTrackBothDirections)
{
    Engine e;
    DramChannel ch(e, testCfg());
    Tick t1 = 0, t2 = 0;
    Task a = doAccess(ch, {Dir::Read, 1000, 1}, t1, e);
    Task b = doAccess(ch, {Dir::Write, 2000, 1}, t2, e);
    e.run();
    EXPECT_EQ(ch.bytesRead(), 1000u);
    EXPECT_EQ(ch.bytesWritten(), 2000u);
    EXPECT_GT(ch.busyTicks(), 0u);
}

TEST(Dram, ScaleBandwidthShortensService)
{
    Engine e;
    DramConfig doubled = testCfg();
    doubled.read_gbps *= 2;
    doubled.write_gbps *= 2;
    DramRequest req{Dir::Read, 1 << 20, 1};
    Tick base = DramChannel(e, testCfg()).serviceTicks(req);
    Tick faster = DramChannel(e, doubled).serviceTicks(req);
    // Transfer halves; the burst overhead does not scale.
    EXPECT_NEAR(static_cast<double>(faster - 16),
                static_cast<double>(base - 16) / 2, 2.0);
}

TEST(Dram, UtilizationIsBusyFraction)
{
    Engine e;
    DramChannel ch(e, testCfg());
    Tick t1 = 0;
    Task a = doAccess(ch, {Dir::Read, 80770, 1}, t1, e);
    e.run();
    EXPECT_NEAR(ch.utilization(e.now() * 2), 0.5, 0.01);
    EXPECT_NEAR(ch.utilization(e.now()), 1.0, 0.01);
}

} // namespace
