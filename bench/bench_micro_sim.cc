/**
 * @file
 * Microbenchmarks of the simulation kernel (google-benchmark).
 *
 * These quantify the host-side cost of the event engine, channels, and
 * streams — the substrate every reproduced experiment runs on.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <vector>

#include "common/mix64.hh"
#include "sim/channel.hh"
#include "sim/engine.hh"
#include "sim/stream.hh"
#include "sim/task.hh"
#include "sim/tile_pool.hh"
#include "tests/alloc_count.hh"

namespace {

using rsn::Tick;
using rsn::sim::Channel;
using rsn::sim::Chunk;
using rsn::sim::Engine;
using rsn::sim::makeChunk;
using rsn::sim::makeTileChunk;
using rsn::sim::Stream;
using rsn::sim::Task;
using rsn::sim::TilePool;
using rsn::sim::TileRef;

void
nop(void *)
{
}

/** Raw callbacks on consecutive ticks, all scheduled up front: a queue
 *  range(0) distinct ticks deep, far deeper than the datapath's (see
 *  BM_EngineDatapathMix), so every dispatch pays a heap pop. */
void
BM_EngineEventDispatch(benchmark::State &state)
{
    for (auto _ : state) {
        Engine e;
        for (Tick i = 0; i < Tick(state.range(0)); ++i)
            e.callAt(i, nop, nullptr);
        e.run();
        benchmark::DoNotOptimize(e.eventsProcessed());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineEventDispatch)->Arg(1000)->Arg(100000);

Task
delayLoop(Engine &e, int n)
{
    for (int i = 0; i < n; ++i)
        co_await e.delay(1);
}

/** Coroutine-resume-only dispatch: the engine fast path, nothing but a
 *  suspended coroutine hopping one tick at a time. Reports allocs/event
 *  after warmup (must be ~0, pinned by test_engine_alloc.cc). */
void
BM_CoroResumeDispatch(benchmark::State &state)
{
    std::uint64_t allocs = 0;
    std::uint64_t events = 0;
    for (auto _ : state) {
        Engine e;
        Task t = delayLoop(e, int(state.range(0)));
        e.run(64);  // warmup: arena and run-heap growth happen here
        std::uint64_t warm = e.eventsProcessed();
        std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
        e.run();
        allocs += g_allocs.load(std::memory_order_relaxed) - before;
        events += e.eventsProcessed() - warm;
        benchmark::DoNotOptimize(t.done());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
    state.counters["allocs_per_event"] =
        events ? double(allocs) / double(events) : 0.0;
}
BENCHMARK(BM_CoroResumeDispatch)->Arg(1000)->Arg(100000);

/** Same-tick burst: n events on one tick, the per-tick FIFO batch path. */
void
BM_SameTickBurst(benchmark::State &state)
{
    for (auto _ : state) {
        Engine e;
        for (int i = 0; i < state.range(0); ++i)
            e.callAt(1, nop, nullptr);
        e.run();
        benchmark::DoNotOptimize(e.eventsProcessed());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SameTickBurst)->Arg(10000);

struct ZeroDelayChain {
    Engine *e;
    long remaining;

    static void
    step(void *p)
    {
        ZeroDelayChain *c = static_cast<ZeroDelayChain *>(p);
        if (--c->remaining > 0)
            c->e->callAt(c->e->now(), step, c);
    }
};

/** Zero-delay self-rescheduling chain: every event appends to the batch
 *  being drained via the now-queue fast path. */
void
BM_ZeroDelayNowQueue(benchmark::State &state)
{
    for (auto _ : state) {
        Engine e;
        ZeroDelayChain chain{&e, state.range(0)};
        e.callAt(0, ZeroDelayChain::step, &chain);
        e.run();
        benchmark::DoNotOptimize(chain.remaining);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ZeroDelayNowQueue)->Arg(10000);

/**
 * One delay of the datapath's event mix, drawn from @p r. The shares are
 * counted over a perfbench `sweep` run (1.38 events per dispatched tick,
 * 6.9 pending ticks on average): 22% zero-delay wakeups, 17% 2-7 ticks,
 * 21% 128-511, 7% 512-2047 and 32% 2048-8191 ticks (FU compute and link
 * latencies); the last 1% is spread over 8-127 ticks.
 */
Tick
datapathDelay(std::uint64_t r)
{
    const std::uint64_t pct = r % 100, u = r / 100;
    if (pct < 22)
        return 0;
    if (pct < 39)
        return 2 + u % 6;
    if (pct < 40)
        return 8 + u % 120;
    if (pct < 61)
        return 128 + u % 384;
    if (pct < 68)
        return 512 + u % 1536;
    return 2048 + u % 6144;
}

/** A fixed table of datapath delays, so the bench times no RNG. */
const std::array<Tick, 4096> &
datapathDelays()
{
    static const auto table = [] {
        std::array<Tick, 4096> t{};
        for (std::size_t i = 0; i < t.size(); ++i)
            t[i] = datapathDelay(rsn::mix64(i));
        return t;
    }();
    return table;
}

/** Suspend for @p d ticks; 0 resumes through the now-queue, the way a
 *  channel or stream wakeup does. */
struct Hop {
    Engine &e;
    Tick d;

    bool await_ready() const noexcept { return false; }
    void
    await_suspend(std::coroutine_handle<> h) const
    {
        if (d)
            e.resumeAt(e.now() + d, h);
        else
            e.resumeNow(h);
    }
    void await_resume() const noexcept {}
};

/** An FU-like coroutine: @p n hops through the delay table from @p at. */
Task
mixActor(Engine &e, std::size_t at, long n)
{
    const auto &delays = datapathDelays();
    for (long i = 0; i < n; ++i)
        co_await Hop{e, delays[(at + i) % delays.size()]};
}

/** A link-completion-like raw callback rescheduling itself @p n times. */
struct MixCallback {
    Engine *e;
    std::size_t at;
    long n;

    static void
    step(void *p)
    {
        MixCallback *c = static_cast<MixCallback *>(p);
        if (--c->n > 0) {
            const auto &delays = datapathDelays();
            c->e->callAt(c->e->now() + delays[c->at++ % delays.size()],
                         step, c);
        }
    }
};

/** The datapath's event shape: 8 coroutines and 4 raw callback chains
 *  (about 12 pending events) hopping by the measured delay mix. */
void
BM_EngineDatapathMix(benchmark::State &state)
{
    constexpr int kCoros = 8, kCallbacks = 4;
    const long per_actor = long(state.range(0)) / (kCoros + kCallbacks);
    std::uint64_t events = 0;
    for (auto _ : state) {
        Engine e;
        std::vector<Task> coros;
        coros.reserve(kCoros);
        // Tasks start eagerly: each schedules its first hop here.
        for (int i = 0; i < kCoros; ++i)
            coros.push_back(mixActor(e, 331 * std::size_t(i), per_actor));
        std::array<MixCallback, kCallbacks> cbs;
        for (int i = 0; i < kCallbacks; ++i) {
            cbs[i] = MixCallback{&e, 3001 + 97 * std::size_t(i), per_actor};
            e.callAt(Tick(i), MixCallback::step, &cbs[i]);
        }
        e.run();
        events += e.eventsProcessed();
    }
    state.SetItemsProcessed(std::int64_t(events));
}
BENCHMARK(BM_EngineDatapathMix)->Arg(120000);

Task
parkedCoro()
{
    struct Park {
        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<>) const noexcept {}
        void await_resume() const noexcept {}
    };
    co_await Park{};
}

/** Same-tick burst of raw coroutine resumes enqueued via Task::handle(). */
void
BM_CoroSameTickBurst(benchmark::State &state)
{
    for (auto _ : state) {
        Engine e;
        std::vector<Task> tasks;
        tasks.reserve(state.range(0));
        for (int i = 0; i < state.range(0); ++i) {
            tasks.push_back(parkedCoro());
            e.resumeAt(1, tasks.back().handle());
        }
        e.run();
        benchmark::DoNotOptimize(e.eventsProcessed());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CoroSameTickBurst)->Arg(10000);

Task
pingSender(Channel<int> &ch, int n)
{
    for (int i = 0; i < n; ++i)
        co_await ch.send(i);
}

Task
pingReceiver(Channel<int> &ch, int n, long &sum)
{
    for (int i = 0; i < n; ++i)
        sum += co_await ch.recv();
}

void
BM_ChannelPingPong(benchmark::State &state)
{
    for (auto _ : state) {
        Engine e;
        Channel<int> ch(e, 2);
        long sum = 0;
        Task s = pingSender(ch, state.range(0));
        Task r = pingReceiver(ch, state.range(0), sum);
        e.run();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChannelPingPong)->Arg(1000)->Arg(10000);

Task
streamSender(Stream &s, int n)
{
    for (int i = 0; i < n; ++i)
        co_await s.send(makeChunk(32, 32, i));
}

Task
streamReceiver(Stream &s, int n, long &bytes)
{
    for (int i = 0; i < n; ++i)
        bytes += (co_await s.recv()).bytes();
}

/** Timing-only chunk stream: the coroutine-free link-scheduler path.
 *  Reports allocs/chunk after warmup (must be ~0, pinned by
 *  tests/sim/test_stream_alloc.cc). */
void
BM_StreamChunkTransfer(benchmark::State &state)
{
    std::uint64_t allocs = 0;
    std::uint64_t chunks = 0;
    for (auto _ : state) {
        Engine e;
        Stream s(e, 64, 4, "bench");
        long bytes = 0;
        Task snd = streamSender(s, state.range(0));
        Task rcv = streamReceiver(s, state.range(0), bytes);
        e.run(2000);  // warmup: ring/arena growth
        std::uint64_t warm = s.chunksTransferred();
        std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
        e.run();
        allocs += g_allocs.load(std::memory_order_relaxed) - before;
        chunks += s.chunksTransferred() - warm;
        benchmark::DoNotOptimize(bytes);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
    state.counters["allocs_per_chunk"] =
        chunks ? double(allocs) / double(chunks) : 0.0;
}
BENCHMARK(BM_StreamChunkTransfer)->Arg(1000)->Arg(10000);

Task
pooledStreamSender(Stream &s, int n)
{
    for (int i = 0; i < n; ++i) {
        TileRef t = TilePool::instance().acquire(32 * 32);
        t.mutableData()[0] = float(i);
        co_await s.send(makeTileChunk(32, 32, std::move(t), i));
    }
}

Task
pooledStreamReceiver(Stream &s, int n, double &sum)
{
    for (int i = 0; i < n; ++i)
        sum += (co_await s.recv()).at(0, 0);
}

/** Functional-payload stream: pooled FP32 tiles recycle through the
 *  TilePool free list instead of shared_ptr<vector> churn. */
void
BM_StreamPooledPayloadTransfer(benchmark::State &state)
{
    std::uint64_t allocs = 0;
    std::uint64_t chunks = 0;
    for (auto _ : state) {
        Engine e;
        Stream s(e, 64, 4, "bench-pooled");
        double sum = 0;
        Task snd = pooledStreamSender(s, state.range(0));
        Task rcv = pooledStreamReceiver(s, state.range(0), sum);
        e.run(2000);
        std::uint64_t warm = s.chunksTransferred();
        std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
        e.run();
        allocs += g_allocs.load(std::memory_order_relaxed) - before;
        chunks += s.chunksTransferred() - warm;
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
    state.counters["allocs_per_chunk"] =
        chunks ? double(allocs) / double(chunks) : 0.0;
}
BENCHMARK(BM_StreamPooledPayloadTransfer)->Arg(1000)->Arg(10000);

Task
stagedSliceSender(Stream &s, int n)
{
    // The MemA/B/C staging pattern (fu/mem_fus.cc): one tile staged in
    // the scratchpad, row-slices leaving as refcount-aliased views — no
    // acquire, no copy per chunk.
    TileRef staged = TilePool::instance().acquire(256 * 64);
    float *d = staged.mutableData();
    for (int i = 0; i < 256 * 64; ++i)
        d[i] = float(i & 1023);
    constexpr std::uint64_t kSliceElems = 2 * 64;
    for (int i = 0; i < n; ++i) {
        std::uint64_t off = (std::uint64_t(i) % 128) * kSliceElems;
        co_await s.send(
            makeTileChunk(2, 64, staged.slice(off, kSliceElems), i));
    }
}

Task
stagedAssemblingReceiver(Stream &s, int n, double &sum)
{
    // The MemC side: gather arriving slices into one pooled staging
    // tile held across the whole stream.
    TileRef staging = TilePool::instance().acquire(256 * 64);
    float *dst = staging.mutableData();
    for (int i = 0; i < n; ++i) {
        Chunk c = co_await s.recv();
        std::copy_n(c.data.data(), c.elems(),
                    dst + (std::uint64_t(i) % 128) * c.elems());
        sum += dst[std::uint64_t(i) % 128 * c.elems()];
    }
}

/** The Mem FU staging path in isolation: slice-view publish, stream
 *  transfer, receive-and-assemble. Reports allocs/tile after warmup
 *  (must be ~0, pinned by tests/fu/test_mem_fus_alloc.cc). */
void
BM_MemStagingTransfer(benchmark::State &state)
{
    std::uint64_t allocs = 0;
    std::uint64_t tiles = 0;
    for (auto _ : state) {
        Engine e;
        Stream s(e, 256, 4, "bench-staging");
        double sum = 0;
        Task snd = stagedSliceSender(s, state.range(0));
        Task rcv = stagedAssemblingReceiver(s, state.range(0), sum);
        // Each 2x64 chunk holds the 256 B/tick link for 2 ticks, so this
        // warms up over ~128 chunks and leaves the bulk of the workload
        // (even at Arg(1000)) inside the measured window.
        e.run(256);
        std::uint64_t warm = s.chunksTransferred();
        std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
        e.run();
        allocs += g_allocs.load(std::memory_order_relaxed) - before;
        tiles += s.chunksTransferred() - warm;
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
    state.counters["allocs_per_tile"] =
        tiles ? double(allocs) / double(tiles) : 0.0;
}
BENCHMARK(BM_MemStagingTransfer)->Arg(1000)->Arg(10000);

} // namespace

BENCHMARK_MAIN();
