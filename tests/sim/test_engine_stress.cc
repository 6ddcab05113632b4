/**
 * @file
 * Determinism stress test for the timing-wheel event engine.
 *
 * Replays identical seeded scripts — interleaving near-tick callbacks,
 * callbacks spread across several wheel levels, coroutine resumes across
 * the wheel levels (including ticks beyond 2^32), same-tick bursts, and
 * zero-delay chains — on both the production Engine and a reference
 * engine that reproduces the seed implementation (single priority queue
 * ordered by (tick, sequence)). The production engine runs the script's
 * callbacks as raw `callAt` events and its coroutines through
 * `resumeAt`. The observable execution order must match bit-for-bit.
 */

#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <random>
#include <vector>

#include "sim/engine.hh"
#include "sim/task.hh"

namespace {

using rsn::Tick;
using rsn::sim::Engine;
using rsn::sim::Task;

/**
 * The seed engine, verbatim semantics: one heap-allocating priority queue
 * of (tick, sequence, std::function) events, FIFO within a tick.
 */
class RefEngine
{
  public:
    Tick now() const { return now_; }

    void
    enqueue(Tick when, std::function<void()> fn)
    {
        queue_.push(Event{when, next_seq_++, std::move(fn)});
    }

    void
    resumeAt(Tick when, std::coroutine_handle<> h)
    {
        enqueue(when, [h] { h.resume(); });
    }

    bool
    run(Tick max_ticks = rsn::kTickMax)
    {
        while (!queue_.empty()) {
            if (queue_.top().when > max_ticks) {
                // Seed semantics *except* the rewind bug: the production
                // engine's contract (never move now() backwards) is what
                // the scripts below rely on.
                if (max_ticks > now_)
                    now_ = max_ticks;
                return false;
            }
            Event ev = queue_.top();
            queue_.pop();
            now_ = ev.when;
            ev.fn();
        }
        return true;
    }

  private:
    struct Event {
        Tick when;
        std::uint64_t seq;
        std::function<void()> fn;
        bool operator>(const Event &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
};

/** Closures the script schedules. The production engine takes each as a
 *  raw callback whose argument is the stored closure; the deque keeps
 *  every entry's address stable until the script ends. */
using Closures = std::deque<std::function<void()>>;

void
post(RefEngine &e, Closures &, Tick when, std::function<void()> fn)
{
    e.enqueue(when, std::move(fn));
}

void
post(Engine &e, Closures &keep, Tick when, std::function<void()> fn)
{
    keep.push_back(std::move(fn));
    e.callAt(
        when,
        [](void *p) { (*static_cast<std::function<void()> *>(p))(); },
        &keep.back());
}

/** Engine-generic delay awaitable (Engine::delay is Engine-specific). */
template <typename E>
struct DelayOn {
    E &e;
    Tick when;
    bool await_ready() const noexcept { return when <= e.now(); }
    void await_suspend(std::coroutine_handle<> h) { e.resumeAt(when, h); }
    void await_resume() const noexcept {}
};

/** Suspends unconditionally; the driver resumes via Task::handle(). */
struct Park {
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) const noexcept {}
    void await_resume() const noexcept {}
};

/** Coroutine actor: logs, then hops through engine-timed delays. */
template <typename E>
Task
actor(E &e, std::vector<int> &log, unsigned seed, int id)
{
    std::mt19937 rng(seed);
    for (int i = 0; i < 6; ++i) {
        log.push_back(id + i);
        co_await DelayOn<E>{e, e.now() + rng() % 7};
    }
}

/** Parked coroutine, resumed explicitly through the engine. */
Task
parked(std::vector<int> &log, int tag)
{
    co_await Park{};
    log.push_back(tag);
}

template <typename E>
std::vector<int>
runScript(unsigned seed)
{
    E e;
    Closures keep;
    std::vector<int> log;
    std::mt19937 rng(seed);
    std::vector<Task> tasks;

    for (int op = 0; op < 400; ++op) {
        int tag = 100000 + op * 10;
        switch (rng() % 6) {
        case 0: {  // callback, near tick
            Tick d = rng() % 60;
            post(e, keep, e.now() + d, [&log, tag] { log.push_back(tag); });
            break;
        }
        case 1: {  // callback far enough out to cascade
            Tick d = rng() % 300000;  // spans several wheel levels
            post(e, keep, e.now() + d, [&log, tag] { log.push_back(tag); });
            break;
        }
        case 2: {  // same-tick burst
            Tick d = rng() % 40;
            for (int k = 0; k < 8; ++k)
                post(e, keep, e.now() + d,
                     [&log, tag, k] { log.push_back(tag + k); });
            break;
        }
        case 3: {  // coroutine actor with its own timed hops
            tasks.push_back(actor(e, log, seed ^ op, tag));
            break;
        }
        case 4: {  // parked coroutine resumed via raw handle
            tasks.push_back(parked(log, tag));
            Tick d = rng() % 4 == 0 ? (Tick(1) << 33) + rng() % 100  // level 4
                                    : rng() % 70000;
            e.resumeAt(e.now() + d, tasks.back().handle());
            break;
        }
        case 5: {  // zero-delay chain scheduled from inside an event
            Tick d = rng() % 25;
            post(e, keep, e.now() + d, [&e, &keep, &log, tag] {
                log.push_back(tag);
                post(e, keep, e.now(), [&log, tag] { log.push_back(tag + 1); });
            });
            break;
        }
        }
    }

    // Staged runs with increasing limits, then drain.
    EXPECT_FALSE(e.run(50));
    EXPECT_EQ(e.now(), 50u);
    e.run(100000);
    EXPECT_TRUE(e.run());
    return log;
}

TEST(EngineStress, MatchesReferenceEngineOrder)
{
    for (unsigned seed : {1u, 7u, 42u, 1234u, 987654u}) {
        std::vector<int> got = runScript<Engine>(seed);
        std::vector<int> want = runScript<RefEngine>(seed);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        ASSERT_EQ(got, want) << "seed " << seed;
    }
}

} // namespace
