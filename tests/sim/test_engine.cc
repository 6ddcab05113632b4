#include <gtest/gtest.h>

#include <array>
#include <coroutine>
#include <vector>

#include "sim/engine.hh"
#include "sim/task.hh"

namespace {

using rsn::Tick;
using rsn::sim::Engine;
using rsn::sim::Task;

/** Raw-callback trampoline: runs the callable @p arg points at. */
template <class F>
void
invoke(void *arg)
{
    (*static_cast<F *>(arg))();
}

/** Schedule callable @p f at @p when; @p f must outlive the event. */
template <class F>
void
callAt(Engine &e, Tick when, F &f)
{
    e.callAt(when, invoke<F>, &f);
}

/** One logged event: appends its tag to a shared log when dispatched. */
struct Mark {
    std::vector<int> *log;
    int tag;

    static void
    fire(void *p)
    {
        const Mark *m = static_cast<const Mark *>(p);
        m->log->push_back(m->tag);
    }
};

void
nop(void *)
{
}

/** Suspends unconditionally; the test resumes it through the engine. */
struct Park {
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) const noexcept {}
    void await_resume() const noexcept {}
};

/** Parked coroutine that logs @p tag each time it is resumed. */
Task
parkedLogger(std::vector<int> &log, int tag, int resumes)
{
    for (int i = 0; i < resumes; ++i) {
        co_await Park{};
        log.push_back(tag + i);
    }
}

TEST(Engine, StartsAtTickZeroAndIdle)
{
    Engine e;
    EXPECT_EQ(e.now(), 0u);
    EXPECT_TRUE(e.idle());
    EXPECT_TRUE(e.run());
}

TEST(Engine, EventsRunInTimeOrder)
{
    Engine e;
    std::vector<int> order;
    std::array<Mark, 3> m{{{&order, 3}, {&order, 1}, {&order, 2}}};
    e.callAt(30, Mark::fire, &m[0]);
    e.callAt(10, Mark::fire, &m[1]);
    e.callAt(20, Mark::fire, &m[2]);
    EXPECT_TRUE(e.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, SameTickEventsRunInScheduleOrder)
{
    Engine e;
    std::vector<int> order;
    std::array<Mark, 5> m;
    for (int i = 0; i < 5; ++i) {
        m[i] = Mark{&order, i};
        e.callAt(7, Mark::fire, &m[i]);
    }
    EXPECT_TRUE(e.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, EventsMayScheduleMoreEvents)
{
    Engine e;
    int count = 0;
    struct Chain {
        Engine &e;
        int &count;
        void
        operator()()
        {
            if (++count < 10)
                callAt(e, e.now() + 5, *this);
        }
    } chain{e, count};
    callAt(e, 0, chain);
    EXPECT_TRUE(e.run());
    EXPECT_EQ(count, 10);
    EXPECT_EQ(e.now(), 45u);
}

TEST(Engine, RunStopsAtTickLimit)
{
    Engine e;
    bool late = false;
    auto fire = [&] { late = true; };
    callAt(e, 100, fire);
    EXPECT_FALSE(e.run(50));
    EXPECT_FALSE(late);
    EXPECT_EQ(e.now(), 50u);
    // Continuing past the limit executes the event.
    EXPECT_TRUE(e.run(200));
    EXPECT_TRUE(late);
}

TEST(Engine, ZeroDelayRunsAtCurrentTick)
{
    Engine e;
    Tick seen = 12345;
    auto inner = [&] { seen = e.now(); };
    auto outer = [&] { callAt(e, e.now(), inner); };
    callAt(e, 42, outer);
    EXPECT_TRUE(e.run());
    EXPECT_EQ(seen, 42u);
}

TEST(Engine, EventCountIsTracked)
{
    Engine e;
    for (Tick i = 0; i < 17; ++i)
        e.callAt(i, nop, nullptr);
    e.run();
    EXPECT_EQ(e.eventsProcessed(), 17u);
}

TEST(Engine, TickLimitInPastDoesNotRewindTime)
{
    Engine e;
    bool fired = false;
    auto fire = [&] { fired = true; };
    callAt(e, 100, fire);
    EXPECT_FALSE(e.run(50));
    EXPECT_EQ(e.now(), 50u);
    // A limit below the current time must not move now() backwards.
    EXPECT_FALSE(e.run(30));
    EXPECT_EQ(e.now(), 50u);
    EXPECT_FALSE(fired);
    EXPECT_TRUE(e.run());
    EXPECT_EQ(e.now(), 100u);
    EXPECT_TRUE(fired);
}

TEST(Engine, SameTickEventScheduledDuringDispatchRunsAfterQueued)
{
    Engine e;
    std::vector<int> order;
    Mark three{&order, 3};
    Mark two{&order, 2};
    auto one = [&] {
        order.push_back(1);
        e.callAt(e.now(), Mark::fire, &three);  // behind event 2
    };
    callAt(e, 5, one);
    e.callAt(5, Mark::fire, &two);
    EXPECT_TRUE(e.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(e.now(), 5u);
}

TEST(Engine, MixedEventKindsInOneTickRunInSchedulingOrder)
{
    // A callback, a coroutine resume at the same tick and a now-queue
    // resume, all scheduled from inside dispatch, interleave in exactly
    // the order they were scheduled — behind the events already queued.
    Engine e;
    std::vector<int> order;
    Task a = parkedLogger(order, 10, 1);
    Task b = parkedLogger(order, 20, 1);
    Task c = parkedLogger(order, 30, 1);
    Mark queued{&order, 2};
    Mark cb1{&order, 3};
    Mark cb2{&order, 5};
    auto first = [&] {
        order.push_back(1);
        e.callAt(e.now(), Mark::fire, &cb1);
        e.resumeAt(e.now(), a.handle());
        e.callAt(e.now(), Mark::fire, &cb2);
        e.resumeNow(b.handle());
        e.resumeAt(e.now(), c.handle());
    };
    callAt(e, 9, first);
    e.callAt(9, Mark::fire, &queued);
    EXPECT_TRUE(e.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 10, 5, 20, 30}));
    EXPECT_EQ(e.now(), 9u);
    EXPECT_TRUE(a.done() && b.done() && c.done());
}

TEST(Engine, DestroyedEngineInvokesNoPendingEvent)
{
    // Coroutine frames belong to their Task and callback arguments to
    // their scheduler: dropping pending events of both kinds invokes and
    // frees nothing (the sanitizer build checks the "frees nothing").
    std::vector<int> log;
    Task t = parkedLogger(log, 1, 1);
    Mark m{&log, 2};
    {
        Engine e;
        e.resumeAt(3, t.handle());
        e.callAt(3, Mark::fire, &m);
        e.callAt(Tick(1) << 40, Mark::fire, &m);
        EXPECT_FALSE(e.run(2));
        EXPECT_EQ(e.pendingEvents(), 3u);
    }
    EXPECT_TRUE(log.empty());
    EXPECT_FALSE(t.done());
}

TEST(Engine, TicksAcrossAllWheelLevelsRunInOrder)
{
    // Ticks far apart, one beyond 2^32, scheduled out of order, run in
    // tick order. (The name predates the heap of runs.)
    Engine e;
    std::vector<Tick> fired;
    auto record = [&fired, &e] { fired.push_back(e.now()); };
    const Tick far = (Tick(1) << 33) + 7;
    for (Tick t : {far, Tick(20'000'000), Tick(70'000), Tick(300), Tick(3)})
        callAt(e, t, record);
    EXPECT_TRUE(e.run());
    EXPECT_EQ(fired, (std::vector<Tick>{3, 300, 70'000, 20'000'000, far}));
    EXPECT_EQ(e.now(), far);
}

TEST(Engine, TopWheelLevelTicksRunInOrder)
{
    // Ticks near the top of the 64-bit range. A limit below the first
    // event leaves every run queued. (The name predates the heap of
    // runs.)
    Engine e;
    std::vector<Tick> fired;
    auto record = [&fired, &e] { fired.push_back(e.now()); };
    const Tick top = (Tick(1) << 62) + 5;
    const Tick l6 = (Tick(1) << 50) + 9;
    for (Tick t : {top, l6, Tick(1) << 56, top + 1})
        callAt(e, t, record);
    EXPECT_FALSE(e.run(Tick(1) << 40));
    EXPECT_TRUE(fired.empty());
    EXPECT_TRUE(e.run());
    EXPECT_EQ(fired, (std::vector<Tick>{l6, Tick(1) << 56, top, top + 1}));
    EXPECT_EQ(e.now(), top + 1);
}

TEST(Engine, RunsAtAlternatingTicksKeepFifoOrderWithDispatchAppends)
{
    // Schedules at T, U, T, U, T start five runs (each one a new run,
    // since only the newest run grows); events dispatched earlier and at
    // T add more at both ticks. Every tick still runs in schedule order.
    const Tick S = 5, T = 10, U = 20;
    Engine e;
    std::vector<int> order;
    std::array<Mark, 12> m;
    for (int i = 0; i < 12; ++i)
        m[i] = Mark{&order, i};
    // Tags: 1-6 run at T, 7-11 at U, in the order each tick must run them.
    auto atS = [&] {
        order.push_back(0);
        e.callAt(T, Mark::fire, &m[4]);
        e.callAt(U, Mark::fire, &m[9]);
        e.callAt(T, Mark::fire, &m[5]);
        e.callAt(U, Mark::fire, &m[10]);
    };
    auto firstAtT = [&] {
        order.push_back(1);
        e.callAt(U, Mark::fire, &m[11]);
        e.callAt(T, Mark::fire, &m[6]);  // now-queue, behind tag 5
    };
    callAt(e, T, firstAtT);
    e.callAt(U, Mark::fire, &m[7]);
    e.callAt(T, Mark::fire, &m[2]);
    e.callAt(U, Mark::fire, &m[8]);
    e.callAt(T, Mark::fire, &m[3]);
    callAt(e, S, atS);
    EXPECT_TRUE(e.run());
    EXPECT_EQ(order,
              (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
    EXPECT_EQ(e.now(), U);
}

TEST(Engine, LimitStopsWithRunsPendingThenNewestRunGrows)
{
    // run(limit) leaves the runs beyond the limit queued as they were:
    // a schedule at the newest run's tick joins it, one at an older
    // run's tick starts a later run there, and both keep FIFO order.
    Engine e;
    std::vector<int> order;
    std::array<Mark, 6> m;
    for (int i = 0; i < 6; ++i)
        m[i] = Mark{&order, i};
    e.callAt(100, Mark::fire, &m[0]);
    e.callAt(300, Mark::fire, &m[4]);
    e.callAt(200, Mark::fire, &m[1]);  // the newest run
    EXPECT_FALSE(e.run(150));
    EXPECT_EQ(order, (std::vector<int>{0}));
    EXPECT_EQ(e.now(), 150u);
    e.callAt(200, Mark::fire, &m[2]);  // joins the newest run
    e.callAt(300, Mark::fire, &m[5]);  // a run behind tag 4's
    e.callAt(200, Mark::fire, &m[3]);  // a run behind tags 1-2
    EXPECT_EQ(e.pendingEvents(), 5u);
    EXPECT_TRUE(e.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(e.now(), 300u);
}

TEST(Engine, ResetEngineIsReusable)
{
    Engine e;
    std::vector<int> order;
    std::array<Mark, 4> m;
    for (int i = 0; i < 4; ++i)
        m[i] = Mark{&order, i};
    for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE(round);
        order.clear();
        if (round)
            e.reset();
        EXPECT_EQ(e.now(), 0u);
        EXPECT_EQ(e.eventsProcessed(), 0u);
        e.callAt(0, Mark::fire, &m[0]);
        e.callAt(40, Mark::fire, &m[3]);
        e.callAt(7, Mark::fire, &m[1]);
        e.callAt(7, Mark::fire, &m[2]);
        EXPECT_FALSE(e.run(20));
        EXPECT_TRUE(e.run());
        EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
        EXPECT_EQ(e.now(), 40u);
        EXPECT_EQ(e.eventsProcessed(), 4u);
    }
}

TEST(Engine, PendingEventsTracksQueueDepth)
{
    Engine e;
    EXPECT_EQ(e.pendingEvents(), 0u);
    for (int i = 0; i < 5; ++i)
        e.callAt(10, nop, nullptr);
    EXPECT_EQ(e.pendingEvents(), 5u);
    EXPECT_TRUE(e.run());
    EXPECT_EQ(e.pendingEvents(), 0u);
    EXPECT_TRUE(e.idle());
}

} // namespace
