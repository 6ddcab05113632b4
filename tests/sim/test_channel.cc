#include <gtest/gtest.h>

#include <coroutine>
#include <stdexcept>
#include <vector>

#include "sim/channel.hh"
#include "sim/engine.hh"
#include "sim/task.hh"

namespace {

using rsn::Tick;
using rsn::sim::Channel;
using rsn::sim::Engine;
using rsn::sim::Task;

Task
sendN(Engine &e, Channel<int> &ch, int n, Tick gap)
{
    for (int i = 0; i < n; ++i) {
        co_await ch.send(i);
        if (gap)
            co_await e.delay(gap);
    }
}

Task
recvN(Engine &e, Channel<int> &ch, int n, Tick gap, std::vector<int> &out)
{
    for (int i = 0; i < n; ++i) {
        out.push_back(co_await ch.recv());
        if (gap)
            co_await e.delay(gap);
    }
}

TEST(Channel, FifoOrderPreserved)
{
    Engine e;
    Channel<int> ch(e, 3);
    std::vector<int> got;
    Task s = sendN(e, ch, 10, 0);
    Task r = recvN(e, ch, 10, 0, got);
    e.run();
    EXPECT_TRUE(s.done());
    EXPECT_TRUE(r.done());
    EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(Channel, SenderBlocksWhenFull)
{
    Engine e;
    Channel<int> ch(e, 1);
    std::vector<int> got;
    Task s = sendN(e, ch, 5, 0);
    // No receiver yet: sender must be parked after filling capacity 1.
    e.run();
    EXPECT_FALSE(s.done());
    EXPECT_TRUE(ch.hasBlockedSender());
    Task r = recvN(e, ch, 5, 0, got);
    e.run();
    EXPECT_TRUE(s.done());
    EXPECT_TRUE(r.done());
    EXPECT_EQ(got.size(), 5u);
}

TEST(Channel, ReceiverBlocksWhenEmpty)
{
    Engine e;
    Channel<int> ch(e, 4);
    std::vector<int> got;
    Task r = recvN(e, ch, 3, 0, got);
    e.run();
    EXPECT_FALSE(r.done());
    EXPECT_TRUE(ch.hasBlockedReceiver());
    Task s = sendN(e, ch, 3, 0);
    e.run();
    EXPECT_TRUE(r.done());
    EXPECT_EQ(got, (std::vector<int>{0, 1, 2}));
}

TEST(Channel, SlowConsumerThrottlesProducer)
{
    // Producer wants to send every tick; consumer pops every 10 ticks.
    // With capacity 2 the producer ends up rate-matched to the consumer.
    Engine e;
    Channel<int> ch(e, 2);
    std::vector<int> got;
    Task s = sendN(e, ch, 8, 1);
    Task r = recvN(e, ch, 8, 10, got);
    e.run();
    EXPECT_TRUE(s.done());
    EXPECT_TRUE(r.done());
    // Completion is dominated by the consumer: 8 pops, 10 ticks apart.
    EXPECT_GE(e.now(), 70u);
    EXPECT_EQ(got.size(), 8u);
}

TEST(Channel, SecondConcurrentSenderTrips)
{
    // One writer per channel: while the writer is parked on a full
    // channel, a second sender that would park too is a wiring bug.
    Engine e;
    Channel<int> ch(e, 1);
    Task s = sendN(e, ch, 2, 0);
    ASSERT_TRUE(ch.hasBlockedSender());
    auto second = ch.send(7);
    ASSERT_FALSE(second.await_ready());
    EXPECT_THROW(second.await_suspend(std::noop_coroutine()),
                 std::logic_error);
    // The first writer is still the parked one and finishes normally.
    std::vector<int> got;
    Task r = recvN(e, ch, 2, 0, got);
    e.run();
    EXPECT_TRUE(s.done());
    EXPECT_EQ(got, (std::vector<int>{0, 1}));
}

TEST(Channel, SecondConcurrentReceiverTrips)
{
    Engine e;
    Channel<int> ch(e, 2);
    std::vector<int> got;
    Task r = recvN(e, ch, 1, 0, got);
    ASSERT_TRUE(ch.hasBlockedReceiver());
    auto second = ch.recv();
    ASSERT_FALSE(second.await_ready());
    EXPECT_THROW(second.await_suspend(std::noop_coroutine()),
                 std::logic_error);
    Task s = sendN(e, ch, 1, 0);
    e.run();
    EXPECT_TRUE(r.done());
    EXPECT_EQ(got, (std::vector<int>{0}));
}

TEST(Channel, DeadlockLeavesEngineIdleWithWaiters)
{
    // A receiver with no producer: the run quiesces but the coroutine is
    // parked — the machine-level deadlock detector keys off this state.
    Engine e;
    Channel<int> ch(e, 1);
    std::vector<int> got;
    Task r = recvN(e, ch, 1, 0, got);
    EXPECT_TRUE(e.run());
    EXPECT_FALSE(r.done());
    EXPECT_TRUE(ch.hasBlockedReceiver());
}

} // namespace
