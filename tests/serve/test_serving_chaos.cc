/**
 * @file
 * Chaos-serving tier (serve/scheduler.hh): the serving determinism and
 * no-hang contracts under injected faults.
 *
 * Pins, per ISSUE 9's acceptance criteria:
 *  - same (seed, spec, load) => bit-identical ServingReport at any
 *    --jobs value (identity through runServingSweep, including the
 *    byte-compared toString rendering);
 *  - every injected hard fault resolves as retried / shed / timeout /
 *    faulted — the census always sums to the offered count, never a
 *    hang (the event loop drains or the in-scheduler assert throws);
 *  - circuit-breaker open -> half-open -> close transitions;
 *  - faults-off golden ticks stay bit-exact: a two-request batch of the
 *    golden tiny-encoder class costs exactly 11084 ticks end to end.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/arrivals.hh"
#include "serve/latency.hh"
#include "serve/scheduler.hh"
#include "sim/fault.hh"

namespace {

using namespace rsn;

/** Keep in sync with tests/lib/test_golden_e2e.cc. */
constexpr Tick kTinyEncoderGoldenTicks = 11084;

serve::ServeSpec
chaosSpec(double load)
{
    serve::ServeSpec spec;
    spec.cfg = core::MachineConfig::vck190(/*functional=*/true);
    spec.cfg.fault = sim::FaultSpec::chaosPreset(/*seed=*/7);
    spec.classes = serve::defaultClasses();
    spec.policy.fleet = 2;
    spec.policy.max_batch = 4;
    spec.seed = 1;
    spec.offered_load = load;
    spec.num_requests = 32;
    return spec;
}

TEST(ServingChaos, ReportsBitIdenticalAtAnyJobs)
{
    const std::vector<double> loads = {10000, 20000, 40000};
    std::vector<serve::ServeSpec> specs;
    for (double l : loads)
        specs.push_back(chaosSpec(l));

    const auto seq =
        serve::runServingSweep(lib::SweepExecutor(1), specs);
    const auto par =
        serve::runServingSweep(lib::SweepExecutor(4), specs);

    ASSERT_EQ(seq.size(), specs.size());
    ASSERT_EQ(par.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(seq[i], par[i])
            << "load " << loads[i] << " diverged between jobs=1 and 4";
        // The smoke's byte-compared artifact, pinned in-process too.
        EXPECT_EQ(seq[i].toString(), par[i].toString());
        EXPECT_EQ(seq[i].resolved(), seq[i].offered);
    }
    // And a repeat run is identical to itself (no hidden state).
    const auto again = serve::runServing(specs[0]);
    EXPECT_EQ(again, seq[0]);
}

TEST(ServingChaos, EveryRequestResolvesUnderChaos)
{
    // Chaos preset: transient faults with recovery plus occasional hard
    // faults. The census must account for every arrival — ok, retried,
    // shed, timeout, or faulted; a hang would trip the scheduler's
    // drain assert (std::logic_error) or this sum.
    auto spec = chaosSpec(40000);
    spec.policy.deadline = 200000;
    spec.policy.queue_capacity = 8;
    const auto rep = serve::runServing(spec);
    EXPECT_EQ(rep.offered, spec.num_requests);
    EXPECT_EQ(rep.ok + rep.retried + rep.shed + rep.timeout + rep.faulted,
              rep.offered);
    EXPECT_GT(rep.faults_injected, 0u);
    EXPECT_GT(rep.runs, 0u);
}

TEST(ServingChaos, HardFaultsEndAsRetriedOrFaultedNeverHang)
{
    // Every run hard-faults (certain drop, no link-layer retries): all
    // requests must exhaust their serve-layer retries and resolve
    // faulted; the breaker must quarantine (and trim) repeatedly; and
    // the loop must still terminate.
    auto spec = chaosSpec(20000);
    Status st;
    spec.cfg.fault =
        sim::FaultSpec::parse("seed=1,link_drop=1.0,retries=0", &st);
    ASSERT_TRUE(st.ok()) << st.toString();
    spec.policy.max_retries = 2;
    const auto rep = serve::runServing(spec);
    EXPECT_EQ(rep.faulted, rep.offered);
    EXPECT_EQ(rep.ok + rep.retried, 0u);
    EXPECT_GT(rep.breaker_opened, 0u);
    EXPECT_GT(rep.pool_trimmed, 0u);
    EXPECT_EQ(rep.breaker_closed, 0u);  // No run ever succeeds.
    // Each request was dispatched at most 1 + max_retries times.
    EXPECT_LE(rep.retry_dispatches,
              rep.offered * spec.policy.max_retries);
}

TEST(ServingChaos, BreakerOpensHalfOpensAndCloses)
{
    // A moderate certain-hard-fault rate: some runs fault (opening
    // breakers), some succeed (closing them from half-open). The
    // counts pin the full open -> half-open -> close cycle.
    auto spec = chaosSpec(20000);
    spec.num_requests = 64;  // Enough dispatches to close from half-open.
    Status st;
    spec.cfg.fault =
        sim::FaultSpec::parse("seed=1,link_drop=0.003,retries=0", &st);
    ASSERT_TRUE(st.ok()) << st.toString();
    spec.policy.max_retries = 4;
    const auto rep = serve::runServing(spec);
    EXPECT_GT(rep.breaker_opened, 0u);
    EXPECT_GT(rep.breaker_half_opened, 0u);
    EXPECT_GT(rep.breaker_closed, 0u);
    // Every open eventually half-opens (cooldown always fires).
    EXPECT_EQ(rep.breaker_opened, rep.breaker_half_opened);
    EXPECT_GT(rep.pool_trimmed, 0u);
    EXPECT_EQ(rep.resolved(), rep.offered);
}

TEST(ServingChaos, FaultsOffGoldenTicksBitExact)
{
    // Two simultaneous arrivals of the golden tiny-encoder class on a
    // one-slot fleet with max_batch=2: exactly one batch-of-2 run, so
    // the slower request's queue-to-completion latency IS the golden
    // tick count — the serving layer adds no hidden time.
    serve::ServeSpec spec;
    spec.cfg = core::MachineConfig::vck190(/*functional=*/true);
    spec.classes = serve::defaultClasses();
    spec.policy.fleet = 1;
    spec.policy.max_batch = 2;
    spec.trace = {{0, 0}, {0, 0}};
    const auto rep = serve::runServing(spec);
    EXPECT_EQ(rep.offered, 2u);
    EXPECT_EQ(rep.ok, 2u);
    EXPECT_EQ(rep.runs, 1u);
    EXPECT_EQ(rep.max_latency, kTinyEncoderGoldenTicks);
    EXPECT_EQ(rep.horizon, kTinyEncoderGoldenTicks);
    EXPECT_EQ(rep.faults_injected, 0u);
    EXPECT_EQ(rep.machines_built, 1u);
}

TEST(ServingChaos, OneReferencePerClassAndBatch)
{
    // Every dispatch checks data seed 2025, so the FP32 reference is
    // computed by the first dispatch of each (class, batch) and reused
    // by every later one, retries under chaos included.
    auto bound = [](const serve::ServeSpec &spec) {
        return spec.classes.size() * spec.policy.max_batch;
    };
    auto faults_off = chaosSpec(40000);
    faults_off.cfg.fault = sim::FaultSpec{};
    const auto clean = serve::runServing(faults_off);
    EXPECT_EQ(clean.served(), clean.offered);
    EXPECT_GE(clean.references, 1u);
    EXPECT_LE(clean.references, bound(faults_off));
    EXPECT_LT(clean.references, clean.runs);
    // One memo entry per key: each holds its program and its reference.
    EXPECT_EQ(clean.programs, clean.references);

    auto chaos = chaosSpec(20000);
    Status st;
    chaos.cfg.fault =
        sim::FaultSpec::parse("seed=1,link_drop=0.003,retries=0", &st);
    ASSERT_TRUE(st.ok()) << st.toString();
    chaos.policy.max_retries = 4;
    const auto rep = serve::runServing(chaos);
    EXPECT_GT(rep.retry_dispatches, 0u);  // The seed forces retries.
    EXPECT_GE(rep.references, 1u);
    EXPECT_LE(rep.references, bound(chaos));
    EXPECT_LT(rep.references, rep.runs);
    EXPECT_EQ(rep.programs, rep.references);  // Rebuilds restore too.

    // One class, one request per batch: exactly one distinct key.
    serve::ServeSpec one;
    one.cfg = core::MachineConfig::vck190(/*functional=*/true);
    one.classes = {serve::defaultClasses().front()};
    one.policy.max_batch = 1;
    one.num_requests = 8;
    const auto single = serve::runServing(one);
    EXPECT_EQ(single.ok, 8u);
    EXPECT_EQ(single.runs, 8u);
    EXPECT_EQ(single.references, 1u);
    EXPECT_EQ(single.programs, 1u);

    // A timing-only fleet has no reference to compute, but still
    // compiles each key once.
    one.cfg = core::MachineConfig::vck190(/*functional=*/false);
    const auto timing = serve::runServing(one);
    EXPECT_EQ(timing.runs, 8u);
    EXPECT_EQ(timing.references, 0u);
    EXPECT_EQ(timing.programs, 1u);
    faults_off.cfg.functional = false;
    const auto mixed = serve::runServing(faults_off);
    EXPECT_EQ(mixed.references, 0u);
    EXPECT_GE(mixed.programs, 1u);
    EXPECT_LE(mixed.programs, bound(faults_off));
    EXPECT_LT(mixed.programs, mixed.runs);
}

TEST(ServingChaos, OutputMismatchIsNotRetried)
{
    // A mismatch replays deterministically: every dispatch of a (class,
    // batch) runs the same memoized program on the same seeded image,
    // so its requests resolve faulted at once. No retry, no hard-fault
    // count, no breaker, no rebuild. The forcing case is the known bf16
    // contract gap at this shape (ROADMAP, "One accuracy contract that
    // fits bf16's error model"): under the all-bf16 policy it fails the
    // per-element bound at data seed 2025. When that contract changes,
    // switch this test to another forcing case.
    serve::ServeSpec spec;
    spec.cfg = core::MachineConfig::vck190(/*functional=*/true);
    spec.cfg.precision = {Dtype::Bf16, Dtype::Bf16, Dtype::Bf16};
    spec.classes = {{"bench", 64, 128, 4, 256, /*fuse_qkv=*/true}};
    spec.policy.max_batch = 1;
    spec.offered_load = 40000;
    spec.num_requests = 12;
    spec.seed = 1;
    const auto rep = serve::runServing(spec);
    EXPECT_EQ(rep.faults_injected, 0u);
    EXPECT_EQ(rep.runs, 12u) << rep.toString();
    EXPECT_EQ(rep.retry_dispatches, 0u);
    EXPECT_EQ(rep.breaker_opened, 0u);
    EXPECT_EQ(rep.machines_built, 2u);  // One per fleet slot.
    EXPECT_EQ(rep.mismatched, 12u);
    EXPECT_EQ(rep.faulted, 12u);
    EXPECT_EQ(rep.programs, 1u);
}

TEST(ServingChaos, FunctionalBf16ServesEveryRequestFirstTime)
{
    // All-bf16 functional serving: every dispatch meets the bf16 accuracy
    // contract, so healthy machines never look hard-faulted.
    serve::ServeSpec spec;
    spec.cfg = core::MachineConfig::vck190(/*functional=*/true);
    spec.cfg.precision = {Dtype::Bf16, Dtype::Bf16, Dtype::Bf16};
    spec.classes = serve::defaultClasses();
    spec.offered_load = 20000;
    spec.num_requests = 24;
    const auto rep = serve::runServing(spec);
    EXPECT_EQ(rep.ok, 24u) << rep.toString();
    EXPECT_EQ(rep.retry_dispatches, 0u);
    EXPECT_EQ(rep.breaker_opened, 0u);
}

TEST(ServingChaos, DeadlinesCancelQueuedWorkAndLateCompletions)
{
    // A deadline shorter than one service time: requests that wait in
    // queue behind the first batch (or complete late) must resolve
    // timeout, never ok — and nothing hangs.
    serve::ServeSpec spec;
    spec.cfg = core::MachineConfig::vck190(/*functional=*/false);
    spec.classes = serve::defaultClasses();
    spec.policy.fleet = 1;
    spec.policy.max_batch = 1;
    spec.policy.deadline = kTinyEncoderGoldenTicks + 2000;
    spec.trace = {{0, 0}, {1, 0}, {2, 0}, {3, 0}};
    const auto rep = serve::runServing(spec);
    EXPECT_EQ(rep.resolved(), 4u);
    EXPECT_GE(rep.timeout, 2u);
    EXPECT_GE(rep.ok, 1u);  // The head of the line makes its deadline.
}

TEST(ServingChaos, SheddingBoundsQueueDepth)
{
    auto spec = chaosSpec(400000);  // Far over fleet capacity.
    spec.cfg.fault = sim::FaultSpec{};  // Faults off: pure overload.
    spec.cfg.functional = false;
    spec.policy.queue_capacity = 4;
    const auto rep = serve::runServing(spec);
    EXPECT_GT(rep.shed, 0u);
    EXPECT_LE(rep.max_queue_depth, 4u);
    EXPECT_EQ(rep.resolved(), rep.offered);
    // Shed requests never consume fleet time.
    EXPECT_LT(rep.runs, rep.offered);
}

TEST(ServingArrivals, PoissonStreamIsSeededAndWeighted)
{
    const auto classes = serve::defaultClasses();
    const auto a = serve::poissonArrivals(42, 1000, 256, classes);
    const auto b = serve::poissonArrivals(42, 1000, 256, classes);
    const auto c = serve::poissonArrivals(43, 1000, 256, classes);
    ASSERT_EQ(a.size(), 256u);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    // Ticks strictly increase (gaps clamp to >= 1).
    std::size_t heavy = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (i) {
            EXPECT_GT(a[i].tick, a[i - 1].tick);
        }
        heavy += a[i].cls == 0;
    }
    // 3:1 mix: the heavy class dominates but both appear.
    EXPECT_GT(heavy, 128u);
    EXPECT_LT(heavy, 256u);
}

TEST(ServingArrivals, TraceParsingValidates)
{
    Status st;
    const auto ok = serve::parseTrace("# demo\n0 0\n5 1\n\n9 0\n", 2, &st);
    ASSERT_TRUE(st.ok()) << st.toString();
    ASSERT_EQ(ok.size(), 3u);
    EXPECT_EQ(ok[1], (serve::Arrival{5, 1}));

    serve::parseTrace("0 7\n", 2, &st);
    EXPECT_EQ(st.code, StatusCode::InvalidConfig);
    serve::parseTrace("5 0\n4 0\n", 2, &st);
    EXPECT_EQ(st.code, StatusCode::InvalidConfig);
    serve::parseTrace("x 0\n", 2, &st);
    EXPECT_EQ(st.code, StatusCode::InvalidConfig);
}

TEST(ServingLatency, HistogramBucketsAndQuantilesAreExactIntegers)
{
    using H = serve::LatencyHistogram;
    // Bucket mapping round-trips: a bucket's lower bound maps to the
    // bucket, and values below kSub are exact.
    for (unsigned b = 0; b < 200; ++b)
        EXPECT_EQ(H::bucketFor(H::bucketLowerBound(b)), b) << b;
    EXPECT_EQ(H::bucketLowerBound(H::bucketFor(11084)),
              Tick(10240));  // 2^13 + 2*2^10: 12.5% resolution floor.

    H h;
    EXPECT_EQ(h.quantilePermille(990), 0u);
    for (Tick v = 1; v <= 100; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_EQ(h.p50(), H::bucketLowerBound(H::bucketFor(50)));
    EXPECT_EQ(h.p99(), H::bucketLowerBound(H::bucketFor(99)));
    EXPECT_LE(h.p50(), h.p95());
    EXPECT_LE(h.p95(), h.p99());
    h.record(1u << 30);
    EXPECT_EQ(h.max(), Tick(1) << 30);
}

} // namespace
