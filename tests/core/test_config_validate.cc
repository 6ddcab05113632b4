/**
 * @file
 * MachineConfig::validate() negative tier: config errors that used to
 * surface as mid-run asserts, crashes or silent misbehaviour are
 * rejected up front with StatusCode::InvalidConfig naming the field,
 * and building a machine from a bad config throws a catchable
 * std::runtime_error instead of tearing the process down. The datapath
 * shape, link widths, clocks and fixed costs are constants
 * (core/config.hh), so only what a caller varies is checked here.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/machine.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"
#include "lib/runner.hh"

namespace {

using namespace rsn;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

core::MachineConfig
good()
{
    return core::MachineConfig::vck190();
}

void
expectInvalid(const core::MachineConfig &cfg, const char *what,
              const char *field)
{
    Status s = cfg.validate();
    EXPECT_FALSE(s.ok()) << what;
    EXPECT_EQ(s.code, StatusCode::InvalidConfig) << what;
    EXPECT_NE(s.message.find(field), std::string::npos)
        << what << ": " << s.message;
}

TEST(ConfigValidate, DefaultAndVck190AreValid)
{
    EXPECT_TRUE(core::MachineConfig{}.validate().ok());
    Status s = good().validate();
    EXPECT_TRUE(s.ok()) << s.toString();
    EXPECT_TRUE(good().validate());  // explicit operator bool
}

TEST(ConfigValidate, RejectsNonPositiveOrNonFiniteDramRates)
{
    auto cfg = good();
    cfg.ddr.read_gbps = 0;
    expectInvalid(cfg, "zero DDR bandwidth", "ddr.read_gbps");

    cfg = good();
    cfg.lpddr.write_gbps = -1.0;
    expectInvalid(cfg, "negative LPDDR bandwidth", "lpddr.write_gbps");

    cfg = good();
    cfg.ddr.write_gbps = kNaN;
    expectInvalid(cfg, "NaN DDR bandwidth", "ddr.write_gbps");

    cfg = good();
    cfg.lpddr.read_gbps = kInf;
    expectInvalid(cfg, "infinite LPDDR bandwidth", "lpddr.read_gbps");
}

TEST(ConfigValidate, RejectsBadAieMacRate)
{
    // A zero rate cast an infinite cycle count to a Tick; a negative
    // rate never finished.
    for (double v : {0.0, -1.0, kNaN, kInf}) {
        auto cfg = good();
        cfg.aie_macs_per_cycle = v;
        expectInvalid(cfg, "bad MAC rate", "aie_macs_per_cycle");
    }
    auto cfg = good();
    cfg.aie_macs_per_cycle = 1e-3;
    EXPECT_TRUE(cfg.validate().ok()) << cfg.validate().toString();
}

TEST(ConfigValidate, RejectsZeroFifoDepths)
{
    auto cfg = good();
    cfg.uop_fifo_depth = 0;
    expectInvalid(cfg, "zero uOP FIFO depth", "uop_fifo_depth");

    cfg = good();
    cfg.fetch_fifo_depth = 0;
    expectInvalid(cfg, "zero fetch FIFO depth", "fetch_fifo_depth");
}

TEST(ConfigValidate, PrecisionPolicyRejectsUnimplementedDtypes)
{
    // I8 is reserved enum space (no quantization parameters in the
    // datapath yet): validate() must refuse it up front, naming the
    // field, rather than tripping a kernel assert mid-run.
    auto cfg = good();
    cfg.precision.linear_weights = Dtype::I8;
    expectInvalid(cfg, "i8 weights", "linear_weights");

    cfg = good();
    cfg.precision.attention_activations = Dtype::I8;
    expectInvalid(cfg, "i8 attention activations",
                  "attention_activations");

    // Every combination of the implemented dtypes passes.
    for (Dtype w : {Dtype::F32, Dtype::Bf16, Dtype::F16})
        for (Dtype a : {Dtype::F32, Dtype::Bf16, Dtype::F16}) {
            cfg = good();
            cfg.precision.linear_weights = w;
            cfg.precision.linear_activations = a;
            cfg.precision.attention_activations = a;
            EXPECT_TRUE(cfg.validate().ok())
                << dtypeName(w) << "/" << dtypeName(a);
        }
}

TEST(ConfigValidate, PropagatesFaultSpecErrors)
{
    auto cfg = good();
    cfg.fault.dram_rate = 2.0;
    expectInvalid(cfg, "bad fault rate", "fault rates");

    cfg = good();
    cfg.fault = sim::FaultSpec::chaosPreset(9);
    Status s = cfg.validate();
    EXPECT_TRUE(s.ok()) << s.toString();
}

TEST(ConfigValidate, MachineConstructionFromBadConfigThrows)
{
    // The error is catchable (std::runtime_error via rsn_fatal), fires
    // before any datapath is built, and names the offending field.
    auto cfg = good();
    cfg.fetch_fifo_depth = 0;
    try {
        core::RsnMachine mach(cfg);
        FAIL() << "bad config built a machine";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("fetch_fifo_depth"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ConfigValidate, MachineConstructionFromGoodConfigDoesNotThrow)
{
    EXPECT_NO_THROW({ core::RsnMachine mach(good()); });
}

/** One settable value of MachineConfig and the values the sweep tries. */
struct Knob {
    const char *field;  ///< Substring validate() must name on rejection.
    std::function<void(core::MachineConfig &, double)> set;
    std::vector<double> values;
};

std::vector<Knob>
knobs()
{
    // 1e-300 is accepted and so slow that a duration leaves Tick's range:
    // it must saturate (ceilTicks) and time out, not overflow the cast.
    const std::vector<double> rate_scales = {1e-300, 1e-6, 1e-3, 0.1,
                                             0.5,    1,    2,    10,
                                             1e3,    0,    -1,   kNaN,
                                             kInf};
    const std::vector<double> rates = {-1,  0,   1e-300, 1e-3, 0.5,
                                       8,   1e3, kNaN,   kInf};
    const std::vector<double> depths = {0, 1, 2, 3, 6, 12, 64};
    auto scale = [](double mem::DramConfig::*rate,
                    mem::DramConfig core::MachineConfig::*chan) {
        return [=](core::MachineConfig &c, double v) {
            (c.*chan).*rate *= v;
        };
    };
    using C = core::MachineConfig;
    using D = mem::DramConfig;
    return {
        {"ddr.read_gbps", scale(&D::read_gbps, &C::ddr), rate_scales},
        {"ddr.write_gbps", scale(&D::write_gbps, &C::ddr), rate_scales},
        {"lpddr.read_gbps", scale(&D::read_gbps, &C::lpddr), rate_scales},
        {"lpddr.write_gbps", scale(&D::write_gbps, &C::lpddr),
         rate_scales},
        {"aie_macs_per_cycle",
         [](C &c, double v) { c.aie_macs_per_cycle = v; }, rates},
        {"uop_fifo_depth",
         [](C &c, double v) { c.uop_fifo_depth = std::size_t(v); }, depths},
        {"fetch_fifo_depth",
         [](C &c, double v) { c.fetch_fifo_depth = std::size_t(v); },
         depths},
        {"offchip_layout",
         [](C &c, double v) {
             c.offchip_layout = v != 0 ? mem::LayoutKind::RowMajor
                                       : mem::LayoutKind::Blocked;
         },
         {0, 1}},
    };
}

/** How the sweep's cases ended, so a vacuous sweep fails. */
struct Tally {
    int rejected = 0;
    int completed = 0;
    int unfinished = 0;  ///< Structured non-Ok reports.
};

/**
 * Either validate() rejects @p cfg naming one of @p fields, or the tiny
 * encoder runs on it to a structured RunReport within a small tick
 * budget. A throw or an abort fails (or kills) the test.
 */
void
expectRunsOrIsRejected(const core::MachineConfig &cfg,
                       const std::vector<const char *> &fields,
                       const std::string &what, Tally &tally)
{
    SCOPED_TRACE(what);
    Status s = cfg.validate();
    if (!s.ok()) {
        ++tally.rejected;
        EXPECT_EQ(s.code, StatusCode::InvalidConfig) << s.toString();
        bool named = false;
        for (const char *f : fields)
            named |= s.message.find(f) != std::string::npos;
        EXPECT_TRUE(named) << s.message;
        return;
    }
    constexpr Tick kMaxTicks = 100'000;  // golden tiny completes in 11084
    try {
        core::RsnMachine mach(cfg);
        const lib::Model model =
            lib::tinyEncoder(2, 32, 64, 4, 128, /*fuse_qkv=*/true);
        const auto compiled = lib::compileModel(
            mach, model, lib::ScheduleOptions::optimized());
        const auto run =
            lib::runModelChecked(mach, model, compiled, 2025, kMaxTicks);
        EXPECT_LE(run.report.result.ticks, kMaxTicks);
        if (run.ok()) {
            ++tally.completed;
        } else {
            ++tally.unfinished;
            EXPECT_FALSE(run.report.status.message.empty());
        }
    } catch (const std::exception &e) {
        ADD_FAILURE() << "accepted config threw: " << e.what();
    }
}

std::string
describe(const core::MachineConfig &cfg)
{
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "ddr %g/%g lpddr %g/%g aie macs=%g fifo uop=%zu fetch=%zu "
        "layout=%d functional=%d precision %s/%s/%s",
        cfg.ddr.read_gbps, cfg.ddr.write_gbps, cfg.lpddr.read_gbps,
        cfg.lpddr.write_gbps, cfg.aie_macs_per_cycle, cfg.uop_fifo_depth,
        cfg.fetch_fifo_depth, int(cfg.offchip_layout), int(cfg.functional),
        dtypeName(cfg.precision.linear_weights),
        dtypeName(cfg.precision.linear_activations),
        dtypeName(cfg.precision.attention_activations));
    return buf;
}

TEST(ConfigValidate, AcceptedConfigsRunOrAreRejected)
{
    // Every settable MachineConfig value except the fault spec (the chaos
    // tier owns that): each knob's values one at a time, every precision
    // combination, then seeded random combinations of all of them. Each
    // case is rejected naming its field or runs to a structured report;
    // under ASan+UBSan (float-cast-overflow included) a crash, an abort
    // or undefined behaviour in any accepted case fails the job.
    const std::vector<Knob> ks = knobs();
    std::mt19937 rng(20241017);
    Tally tally;

    for (const Knob &k : ks)
        for (double v : k.values) {
            auto cfg = good();
            cfg.functional = rng() & 1;
            k.set(cfg, v);
            expectRunsOrIsRejected(cfg, {k.field}, describe(cfg), tally);
        }

    const Dtype dtypes[] = {Dtype::F32, Dtype::Bf16, Dtype::F16};
    for (Dtype w : dtypes)
        for (Dtype la : dtypes)
            for (Dtype aa : dtypes) {
                auto cfg = good();
                cfg.functional = rng() & 1;
                cfg.precision = {w, la, aa};
                expectRunsOrIsRejected(cfg, {}, describe(cfg), tally);
            }

    for (int i = 0; i < 96; ++i) {
        auto cfg = good();
        cfg.functional = rng() & 1;
        cfg.precision = {dtypes[rng() % 3], dtypes[rng() % 3],
                         dtypes[rng() % 3]};
        std::vector<const char *> touched;
        for (const Knob &k : ks)
            if (rng() % 3 == 0) {
                k.set(cfg, k.values[rng() % k.values.size()]);
                touched.push_back(k.field);
            }
        expectRunsOrIsRejected(cfg, touched, describe(cfg), tally);
    }
    std::printf("sweep: %d rejected, %d completed, %d unfinished\n",
                tally.rejected, tally.completed, tally.unfinished);
    EXPECT_GE(tally.rejected, 50);
    EXPECT_GE(tally.completed, 50);
    EXPECT_GE(tally.unfinished, 5);
}

} // namespace
