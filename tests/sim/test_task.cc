#include <gtest/gtest.h>

#include "sim/engine.hh"
#include "sim/task.hh"

namespace {

using rsn::sim::Engine;
using rsn::sim::Task;

Task
delayTwice(Engine &e, int &stage)
{
    stage = 1;
    co_await e.delay(10);
    stage = 2;
    co_await e.delay(10);
    stage = 3;
}

TEST(Task, EagerStartRunsToFirstSuspension)
{
    Engine e;
    int stage = 0;
    Task t = delayTwice(e, stage);
    EXPECT_EQ(stage, 1);  // ran until first co_await before returning
    EXPECT_FALSE(t.done());
    e.run();
    EXPECT_EQ(stage, 3);
    EXPECT_TRUE(t.done());
}

TEST(Task, ZeroDelayDoesNotSuspend)
{
    Engine e;
    int stage = 0;
    auto body = [](Engine &eng, int &s) -> Task {
        co_await eng.delay(0);
        s = 1;
    };
    Task t = body(e, stage);
    EXPECT_EQ(stage, 1);
    EXPECT_TRUE(t.done());
}

Task
produceAfter(Engine &e, rsn::Tick d, int v, int &out)
{
    co_await e.delay(d);
    out = v;
}

TEST(Task, AwaitingCompletedTaskResumesImmediately)
{
    Engine e;
    int out = 0;
    bool resumed = false;
    auto parent = [](Engine &eng, int &o, bool &r) -> Task {
        // Child completes synchronously (no suspension).
        Task child = produceAfter(eng, 0, 7, o);
        EXPECT_TRUE(child.done());
        co_await child;
        r = true;
    };
    Task t = parent(e, out, resumed);
    EXPECT_EQ(out, 7);
    EXPECT_TRUE(resumed);
    EXPECT_TRUE(t.done());
}

TEST(Task, TwoEagerTasksOverlapInSimulatedTime)
{
    Engine e;
    rsn::Tick end_a = 0, end_b = 0, end_both = 0;
    auto piece = [](Engine &eng, rsn::Tick d, rsn::Tick &end) -> Task {
        co_await eng.delay(d);
        end = eng.now();
    };
    auto parent = [&](Engine &eng) -> Task {
        // Start both pieces, then await both: the paper's parallel
        // load/send inside one FU kernel (Fig. 7b).
        Task a = piece(eng, 100, end_a);
        Task b = piece(eng, 60, end_b);
        co_await a;
        co_await b;
        end_both = eng.now();
    };
    Task t = parent(e);
    e.run();
    EXPECT_EQ(end_a, 100u);
    EXPECT_EQ(end_b, 60u);
    EXPECT_EQ(end_both, 100u);  // max, not sum: they overlapped
    EXPECT_TRUE(t.done());
}

TEST(Task, MoveTransfersOwnership)
{
    Engine e;
    int stage = 0;
    Task t1 = delayTwice(e, stage);
    Task t2 = std::move(t1);
    EXPECT_TRUE(t1.done());  // moved-from is empty == done
    EXPECT_FALSE(t2.done());
    e.run();
    EXPECT_TRUE(t2.done());
    EXPECT_EQ(stage, 3);
}

} // namespace
