#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hh"

namespace {

using rsn::Tick;
using rsn::sim::Engine;

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
    e.schedule(30, [&] { order.push_back(3); });
    e.schedule(10, [&] { order.push_back(1); });
    e.schedule(20, [&] { order.push_back(2); });
    EXPECT_TRUE(e.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, SameTickEventsRunInScheduleOrder)
{
    Engine e;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        e.schedule(7, [&order, i] { order.push_back(i); });
    EXPECT_TRUE(e.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, EventsMayScheduleMoreEvents)
{
    Engine e;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 10)
            e.schedule(5, chain);
    };
    e.schedule(0, chain);
    EXPECT_TRUE(e.run());
    EXPECT_EQ(count, 10);
    EXPECT_EQ(e.now(), 45u);
}

TEST(Engine, RunStopsAtTickLimit)
{
    Engine e;
    bool late = false;
    e.schedule(100, [&] { late = true; });
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
    e.schedule(42, [&] { e.schedule(0, [&] { seen = e.now(); }); });
    EXPECT_TRUE(e.run());
    EXPECT_EQ(seen, 42u);
}

TEST(Engine, EventCountIsTracked)
{
    Engine e;
    for (int i = 0; i < 17; ++i)
        e.schedule(i, [] {});
    e.run();
    EXPECT_EQ(e.eventsProcessed(), 17u);
}

TEST(Engine, TickLimitInPastDoesNotRewindTime)
{
    Engine e;
    bool fired = false;
    e.schedule(100, [&] { fired = true; });
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
    e.schedule(5, [&] {
        order.push_back(1);
        e.schedule(0, [&] { order.push_back(3); });  // behind event 2
    });
    e.schedule(5, [&] { order.push_back(2); });
    EXPECT_TRUE(e.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(e.now(), 5u);
}

TEST(Engine, TicksAcrossAllWheelLevelsRunInOrder)
{
    // One event on each of the timing wheel's lower levels, and one
    // beyond 2^32 (the one-queue description in engine.hh).
    Engine e;
    std::vector<Tick> fired;
    const Tick far = (Tick(1) << 33) + 7;
    for (Tick t : {far, Tick(20'000'000), Tick(70'000), Tick(300), Tick(3)})
        e.scheduleAt(t, [&fired, &e] { fired.push_back(e.now()); });
    EXPECT_TRUE(e.run());
    EXPECT_EQ(fired, (std::vector<Tick>{3, 300, 70'000, 20'000'000, far}));
    EXPECT_EQ(e.now(), far);
}

TEST(Engine, TopWheelLevelTicksRunInOrder)
{
    // Level 7 holds ticks whose top byte differs from the base; its
    // segment base is 0. A limit below the first event leaves it queued.
    Engine e;
    std::vector<Tick> fired;
    const Tick top = (Tick(1) << 62) + 5;
    const Tick l6 = (Tick(1) << 50) + 9;
    for (Tick t : {top, l6, Tick(1) << 56, top + 1})
        e.scheduleAt(t, [&fired, &e] { fired.push_back(e.now()); });
    EXPECT_FALSE(e.run(Tick(1) << 40));
    EXPECT_TRUE(fired.empty());
    EXPECT_TRUE(e.run());
    EXPECT_EQ(fired, (std::vector<Tick>{l6, Tick(1) << 56, top, top + 1}));
    EXPECT_EQ(e.now(), top + 1);
}

TEST(Engine, PendingEventsTracksQueueDepth)
{
    Engine e;
    EXPECT_EQ(e.pendingEvents(), 0u);
    for (int i = 0; i < 5; ++i)
        e.schedule(10, [] {});
    EXPECT_EQ(e.pendingEvents(), 5u);
    EXPECT_TRUE(e.run());
    EXPECT_EQ(e.pendingEvents(), 0u);
    EXPECT_TRUE(e.idle());
}

} // namespace
