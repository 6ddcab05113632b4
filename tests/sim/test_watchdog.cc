/**
 * @file
 * Run-loop watchdog and silent-deadlock detection (ISSUE 6).
 *
 * The regression this tier exists for: Engine::run() returning true
 * (queue drained) while coroutines are still parked on a channel or
 * stream used to read as a *clean* completion — a silent deadlock. The
 * Waitable registry now makes that state observable (drainedClean /
 * drainDiagnosis), the per-tick event budget turns zero-delay wakeup
 * cycles into a diagnosed livelock, and requestStop ends a run at a
 * batch boundary without tearing suspended kernels.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/machine.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"
#include "sim/channel.hh"
#include "sim/chunk.hh"
#include "sim/engine.hh"
#include "sim/stream.hh"
#include "sim/task.hh"

namespace {

using rsn::Tick;
using rsn::sim::Channel;
using rsn::sim::Chunk;
using rsn::sim::Engine;
using rsn::sim::makeChunk;
using rsn::sim::Stream;
using rsn::sim::Task;

Task
recvOne(Channel<int> &ch, int &out)
{
    out = co_await ch.recv();
}

TEST(Watchdog, DrainWithParkedReceiverIsNotClean)
{
    // The satellite-1 regression: a receiver on a channel nobody feeds.
    // run() still returns true (nothing left to dispatch), but the drain
    // is not clean and the diagnosis names the primitive.
    Engine e;
    Channel<int> ch(e, 2, "orphan");
    int got = -1;
    Task rcv = recvOne(ch, got);
    EXPECT_TRUE(e.run());
    EXPECT_FALSE(rcv.done());
    EXPECT_EQ(got, -1);
    EXPECT_FALSE(e.drainedClean());
    std::string d = e.drainDiagnosis();
    EXPECT_NE(d.find("channel orphan"), std::string::npos) << d;
    EXPECT_NE(d.find("parked receiver"), std::string::npos) << d;
}

Task
sendMany(Channel<int> &ch, int n)
{
    for (int i = 0; i < n; ++i)
        co_await ch.send(i);
}

TEST(Watchdog, DrainWithParkedSenderIsNotClean)
{
    Engine e;
    Channel<int> ch(e, 1, "full");
    Task snd = sendMany(ch, 3);  // capacity 1, nobody receives
    EXPECT_TRUE(e.run());
    EXPECT_FALSE(snd.done());
    EXPECT_FALSE(e.drainedClean());
    std::string d = e.drainDiagnosis();
    EXPECT_NE(d.find("channel full"), std::string::npos) << d;
    EXPECT_NE(d.find("parked sender"), std::string::npos) << d;
}

Task
recvChunk(Stream &s, std::vector<Chunk> &out)
{
    out.push_back(co_await s.recv());
}

TEST(Watchdog, StreamWaitersShowUpInTheDrainDiagnosis)
{
    Engine e;
    Stream s(e, 64.0, 2, "starved");
    std::vector<Chunk> got;
    Task rcv = recvChunk(s, got);
    EXPECT_TRUE(e.run());
    EXPECT_FALSE(rcv.done());
    EXPECT_FALSE(e.drainedClean());
    EXPECT_NE(e.drainDiagnosis().find("stream starved"),
              std::string::npos);
}

TEST(Watchdog, CleanCompletionIsClean)
{
    Engine e;
    Channel<int> ch(e, 2, "ok");
    int got = -1;
    Task rcv = recvOne(ch, got);
    Task snd = sendMany(ch, 1);
    EXPECT_TRUE(e.run());
    EXPECT_TRUE(rcv.done() && snd.done());
    EXPECT_EQ(got, 0);
    EXPECT_TRUE(e.drainedClean());
    EXPECT_TRUE(e.drainDiagnosis().empty());
}

/** Self-rescheduling zero-delay callback: a classic livelock. */
struct Spinner {
    Engine &e;
    std::uint64_t fired = 0;
    static void
    fire(void *p)
    {
        auto *s = static_cast<Spinner *>(p);
        ++s->fired;
        s->e.callAt(s->e.now(), &Spinner::fire, s);
    }
};

TEST(Watchdog, EventBudgetTurnsLivelockIntoDiagnosedStop)
{
    Engine e;
    e.setEventsPerTickBudget(10'000);
    Spinner sp{e};
    e.callAt(0, &Spinner::fire, &sp);
    EXPECT_FALSE(e.run());  // did not drain: the watchdog cut it short
    EXPECT_TRUE(e.watchdogTripped());
    EXPECT_EQ(e.now(), 0u) << "livelock never advanced time";
    EXPECT_GE(sp.fired, 9'000u);
    EXPECT_LE(sp.fired, 11'000u) << "budget did not bound the spin";
}

TEST(Watchdog, MachineReportsATrippedBudgetAsLivelock)
{
    // At the machine level a tripped budget is the Livelock outcome,
    // with the watchdog line closing the stall report.
    rsn::core::RsnMachine mach(rsn::core::MachineConfig::vck190());
    mach.engine().setEventsPerTickBudget(1);
    auto c = rsn::lib::compileModel(
        mach, rsn::lib::tinyEncoder(2, 32, 64, 4, 128, true),
        rsn::lib::ScheduleOptions::optimized());
    const auto r = mach.runChecked(c.program);
    EXPECT_EQ(r.status.code, rsn::StatusCode::Livelock) << r.toString();
    EXPECT_NE(r.status.message.find("exceeded the event budget"),
              std::string::npos)
        << r.status.message;
    EXPECT_FALSE(mach.resettable());
}

TEST(Watchdog, BudgetDoesNotTripAcrossTicks)
{
    // Many events spread over many ticks must never trip a per-tick
    // budget: the counter rebases at every batch boundary.
    Engine e;
    e.setEventsPerTickBudget(10);
    struct Hopper {
        Engine &e;
        std::uint64_t fired = 0;
        static void
        fire(void *p)
        {
            auto *h = static_cast<Hopper *>(p);
            if (++h->fired < 1000)
                h->e.callAt(h->e.now() + 1, &Hopper::fire, h);
        }
    } h{e};
    e.callAt(0, &Hopper::fire, &h);
    EXPECT_TRUE(e.run());
    EXPECT_FALSE(e.watchdogTripped());
    EXPECT_EQ(h.fired, 1000u);
}

TEST(Watchdog, RequestStopEndsTheRunAtABatchBoundary)
{
    Engine e;
    struct Stopper {
        Engine &e;
        std::uint64_t fired = 0;
        static void
        fire(void *p)
        {
            auto *s = static_cast<Stopper *>(p);
            ++s->fired;
            if (s->fired == 3)
                s->e.requestStop();
            s->e.callAt(s->e.now() + 10, &Stopper::fire, s);
        }
    } s{e};
    e.callAt(0, &Stopper::fire, &s);
    EXPECT_FALSE(e.run(1'000'000));
    EXPECT_TRUE(e.stopRequested());
    // The event at the stop tick still dispatched (stop honors batch
    // granularity); its +10 successor did not.
    EXPECT_EQ(s.fired, 3u);
    EXPECT_EQ(e.now(), 20u);
}

TEST(Watchdog, ResetClearsStopAndWatchdogState)
{
    Engine e;
    e.requestStop();
    EXPECT_FALSE(e.run());
    EXPECT_TRUE(e.stopRequested());
    e.reset();
    EXPECT_FALSE(e.stopRequested());
    EXPECT_FALSE(e.watchdogTripped());
    EXPECT_TRUE(e.run());
}

} // namespace
