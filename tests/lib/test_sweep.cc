/**
 * @file
 * Parallel sweep executor tier (lib/sweep.hh).
 *
 * The executor's whole contract is "parallelism changes wall-clock
 * time and nothing else": for any jobs value, every sweep point must
 * produce bit-identical tick counts, functional output checksums, and
 * fault diagnoses to the sequential jobs=1 run, with results in point
 * order. These tests pin that contract on a mixed config set (machine
 * reuse, machine rebuild, golden configs) and on chaos-seed sweeps
 * where each lane arms its own FaultInjector. The binary is also run
 * under the TSan CI configuration (RSN_SANITIZE=thread), which turns
 * on the lane-ownership asserts exercised here.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/machine.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"
#include "lib/runner.hh"
#include "lib/sweep.hh"
#include "ref/ref_math.hh"
#include "sim/tile_pool.hh"

namespace {

using namespace rsn;

/** Keep in sync with tests/lib/test_golden_e2e.cc. */
constexpr Tick kTinyEncoderGoldenTicks = 11084;

lib::Model
tinyModel()
{
    return lib::tinyEncoder(/*batch=*/2, /*seq=*/32, /*hidden=*/64,
                            /*heads=*/4, /*ff=*/128, /*fuse_qkv=*/true);
}

std::string
finalOutput(const lib::Model &model)
{
    return std::visit([](const auto &seg) { return seg.out_name; },
                      model.segments.back());
}

/** Everything a sweep point can observably produce, for bit-identity
 *  comparison across jobs values. */
struct PointResult {
    Tick ticks = 0;
    StatusCode code = StatusCode::Ok;
    std::string message;
    double output_checksum = 0;
    std::uint64_t faults_injected = 0;

    bool operator==(const PointResult &) const = default;
};

/** Run @p points at @p jobs lanes, capturing the full observable
 *  outcome of each (including a checksum of the final output tensor on
 *  completed functional runs). */
std::vector<PointResult>
sweepResults(const std::vector<lib::SweepPoint> &points, unsigned jobs)
{
    const lib::SweepExecutor ex(jobs);
    return ex.map<PointResult>(
        points.size(), [&](lib::SweepLane &lane, std::size_t i) {
            const lib::SweepPoint &p = points[i];
            core::RsnMachine &mach = lane.machine(p.cfg);
            auto compiled = lib::compileModel(mach, p.model, p.opts);
            auto cr = lib::runModelChecked(mach, p.model, compiled,
                                           p.seed);
            PointResult out;
            out.ticks = cr.report.result.ticks;
            out.code = cr.report.status.code;
            out.message = cr.report.status.message;
            out.faults_injected = cr.report.faults_injected;
            if (cr.report.ok() && mach.host().functional()) {
                auto m = lib::readTensor(mach, compiled,
                                         finalOutput(p.model));
                for (float v : m.data)
                    out.output_checksum += double(v);
            }
            return out;
        });
}

/** Mixed sweep: equal-config points (lane reuse), a config change mid-
 *  list (lane rebuild), and the golden tiny config. All functional so
 *  output checksums participate in the comparison. */
std::vector<lib::SweepPoint>
mixedPoints()
{
    std::vector<lib::SweepPoint> points;
    const auto cfg = core::MachineConfig::vck190(/*functional=*/true);
    // Golden config twice, non-adjacent, so at jobs=1 the lane must
    // reuse across an intervening rebuild and still be bit-identical.
    points.push_back({cfg, tinyModel(),
                      lib::ScheduleOptions::optimized(), 2025});
    points.push_back({cfg,
                      lib::tinyEncoder(1, 32, 64, 4, 128, true),
                      lib::ScheduleOptions::bwOptimized(), 7});
    auto rowmajor = cfg;
    rowmajor.offchip_layout = mem::LayoutKind::RowMajor;
    points.push_back({rowmajor, tinyModel(),
                      lib::ScheduleOptions::optimized(), 2025});
    points.push_back({cfg, tinyModel(),
                      lib::ScheduleOptions::optimized(), 2025});
    points.push_back({cfg,
                      lib::tinyEncoder(2, 32, 64, 4, 128, false),
                      lib::ScheduleOptions::noOptimize(), 2025});
    return points;
}

TEST(SweepExecutor, ParallelIsBitIdenticalToSequential)
{
    const auto points = mixedPoints();
    const auto seq = sweepResults(points, 1);
    const auto par = sweepResults(points, 4);

    ASSERT_EQ(seq.size(), points.size());
    ASSERT_EQ(par.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(seq[i], par[i]) << "point " << i
                                  << " diverged between jobs=1 and "
                                     "jobs=4";
        EXPECT_EQ(seq[i].code, StatusCode::Ok) << seq[i].message;
    }
    // The golden config's tick count holds inside a sweep, on any lane.
    EXPECT_EQ(seq[0].ticks, kTinyEncoderGoldenTicks);
    EXPECT_EQ(par[0].ticks, kTinyEncoderGoldenTicks);
    EXPECT_EQ(par[3].ticks, kTinyEncoderGoldenTicks);
    // Identical points on (possibly) different lanes: identical output.
    EXPECT_EQ(par[0], par[3]);
}

TEST(SweepExecutor, ChaosSweepDiagnosesIdenticallyAtAnyJobs)
{
    // Each lane arms its own FaultInjector (machine-owned); the fault
    // schedule is a pure function of the seed, so per-point diagnoses
    // — including which runs hard-fault and their exact messages —
    // must not depend on the jobs value.
    std::vector<lib::SweepPoint> points;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        auto cfg = core::MachineConfig::vck190(/*functional=*/true);
        cfg.fault = sim::FaultSpec::chaosPreset(seed);
        points.push_back({cfg, tinyModel(),
                          lib::ScheduleOptions::optimized(), 2025});
    }
    const auto seq = sweepResults(points, 1);
    const auto par = sweepResults(points, 4);
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(seq[i], par[i])
            << "chaos seed " << (i + 1)
            << " diagnosed differently under jobs=4";
}

TEST(SweepLaneTest, ReusesMachineAcrossEqualConfigsOnly)
{
    lib::SweepLane lane(3);
    EXPECT_EQ(lane.index(), 3u);
    const auto cfg = core::MachineConfig::vck190();
    core::RsnMachine &first = lane.machine(cfg);
    auto compiled = lib::compileModel(first, tinyModel(),
                                      lib::ScheduleOptions::optimized());
    ASSERT_TRUE(first.runChecked(compiled.program).ok());

    // Equal config after a completed run: same machine, reset.
    core::RsnMachine &second = lane.machine(cfg);
    EXPECT_EQ(&first, &second);
    EXPECT_EQ(lane.machinesBuilt(), 1u);
    EXPECT_EQ(lane.machinesReused(), 1u);

    // Config change: rebuild.
    auto functional = core::MachineConfig::vck190(/*functional=*/true);
    lane.machine(functional);
    EXPECT_EQ(lane.machinesBuilt(), 2u);
    EXPECT_EQ(lane.machinesReused(), 1u);
}

TEST(SweepLaneTest, FaultSeedOnlyChangeReusesViaReseed)
{
    // The serving scheduler salts one chaos seed per dispatch, so a
    // config that differs from the cached one *only* in fault.seed must
    // take the reset()+setFaultSeed path, not a rebuild — and the
    // reseeded machine must behave exactly like a cold build with that
    // seed (the fault schedule is a pure function of the spec).
    auto cfg = core::MachineConfig::vck190(/*functional=*/true);
    cfg.fault = sim::FaultSpec::chaosPreset(/*seed=*/11);

    auto runOnce = [&](core::RsnMachine &mach) {
        auto compiled = lib::compileModel(
            mach, tinyModel(), lib::ScheduleOptions::optimized());
        return lib::runModelChecked(mach, tinyModel(), compiled, 2025);
    };

    lib::SweepLane lane(0);
    auto first = runOnce(lane.machine(cfg));

    auto reseeded = cfg;
    reseeded.fault.seed = 12;
    // Completed run + fault-seed-only change: reuse, with the injector
    // re-armed under the new seed.
    if (first.report.ok()) {
        core::RsnMachine &m = lane.machine(reseeded);
        EXPECT_EQ(lane.machinesReused(), 1u);
        EXPECT_EQ(m.config().fault.seed, 12u);
        auto warm = runOnce(m);

        lib::SweepLane cold_lane(1);
        auto cold = runOnce(cold_lane.machine(reseeded));
        EXPECT_EQ(warm.report.result.ticks, cold.report.result.ticks);
        EXPECT_EQ(warm.report.status.code, cold.report.status.code);
        EXPECT_EQ(warm.report.faults_injected, cold.report.faults_injected);
    } else {
        // The seed-11 run hard-faulted: non-resettable, so the lane
        // must rebuild even for the seed-only change.
        lane.machine(reseeded);
        EXPECT_EQ(lane.machinesBuilt(), 2u);
    }
    // A rate change is never a reuse, whatever the seed.
    auto harsher = reseeded;
    harsher.fault.link_drop_rate = 0.5;
    const auto built_before = lane.machinesBuilt();
    lane.machine(harsher);
    EXPECT_EQ(lane.machinesBuilt(), built_before + 1);
}

TEST(SweepLaneTest, DiscardForcesRebuildAndTrimsPool)
{
    const auto cfg = core::MachineConfig::vck190(/*functional=*/true);
    lib::SweepLane lane(0);
    core::RsnMachine &first = lane.machine(cfg);
    auto compiled = lib::compileModel(first, tinyModel(),
                                      lib::ScheduleOptions::optimized());
    lib::initTensors(first, compiled, 2025);
    ASSERT_TRUE(first.runChecked(compiled.program).ok());

    // Quarantine: the cached machine dies and its pooled buffers are
    // returned to the system (the breaker's anti-leak hook).
    const std::uint64_t freed_before =
        sim::TilePool::instance().buffersFreed();
    lane.discard();
    EXPECT_GT(sim::TilePool::instance().buffersFreed(), freed_before);
    EXPECT_EQ(sim::TilePool::instance().freeBytes(), 0u);

    // Equal config after a discard still rebuilds.
    lane.machine(cfg);
    EXPECT_EQ(lane.machinesBuilt(), 2u);
}

TEST(SweepExecutor, HandlesEmptyAndUndersizedSweeps)
{
    const lib::SweepExecutor ex(8);
    int calls = 0;
    ex.forEach(0, [&](lib::SweepLane &, std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);

    // Fewer points than lanes: every index runs exactly once and the
    // results land in point order.
    auto out = ex.map<std::size_t>(
        2, [](lib::SweepLane &, std::size_t i) { return i + 100; });
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 100u);
    EXPECT_EQ(out[1], 101u);
}

TEST(SweepExecutor, FirstExceptionPropagatesToCaller)
{
    const lib::SweepExecutor ex(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(
        ex.forEach(16,
                   [&](lib::SweepLane &, std::size_t i) {
                       ran.fetch_add(1);
                       if (i == 3)
                           throw std::runtime_error("point 3 exploded");
                   }),
        std::runtime_error);
    // Remaining jobs were abandoned after the failure, not all 16 run.
    EXPECT_GE(ran.load(), 1);
}

TEST(SweepExecutor, JobsResolutionHonorsZeroAsAllCores)
{
    EXPECT_EQ(lib::SweepExecutor::resolveJobs(1), 1u);
    EXPECT_EQ(lib::SweepExecutor::resolveJobs(6), 6u);
    EXPECT_EQ(lib::SweepExecutor::resolveJobs(-2), 1u);
    EXPECT_EQ(lib::SweepExecutor::resolveJobs(0),
              lib::SweepExecutor::defaultJobs());
    EXPECT_GE(lib::SweepExecutor::defaultJobs(), 1u);
}

TEST(TilePoolOwnership, CrossLaneAcquireFailsLoudly)
{
#if RSN_POOL_OWNER_CHECKS
    // Tiles are lane-owned: touching this thread's pool from another
    // thread must die on the owner assert (which throws, so the
    // violation is observable in-process) instead of corrupting the
    // free list.
    sim::TilePool &home = sim::TilePool::instance();
    bool threw = false;
    std::thread foreign([&] {
        try {
            home.acquire(64);
        } catch (const std::logic_error &) {
            threw = true;
        }
    });
    foreign.join();
    EXPECT_TRUE(threw)
        << "foreign-thread acquire did not trip the owner check";
#else
    GTEST_SKIP() << "owner checks compiled out (NDEBUG without "
                    "RSN_THREAD_CHECKS)";
#endif
}

} // namespace
