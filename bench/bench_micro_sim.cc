/**
 * @file
 * Microbenchmarks of the simulation kernel (google-benchmark).
 *
 * These quantify the host-side cost of the event engine, channels, and
 * streams — the substrate every reproduced experiment runs on.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/channel.hh"
#include "sim/engine.hh"
#include "sim/stream.hh"
#include "sim/task.hh"
#include "sim/tile_pool.hh"

// Global allocation counter so benchmarks can report allocs/event on the
// dispatch paths (the engine's allocation-free invariant, engine.hh).
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

// Aligned-allocation overloads: TilePool allocates its buffers with
// ::operator new(size, std::align_val_t{64}) (cache-line-aligned
// tiles), which does NOT route through the plain overload above — it
// must be intercepted separately or pooled-buffer traffic becomes
// invisible to the counter and the alloc-free pins go blind.
void *
operator new(std::size_t n, std::align_val_t al)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = nullptr;
    if (posix_memalign(&p, std::size_t(al), n ? n : 1) != 0)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return operator new(n, al);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    operator delete(p, std::align_val_t{1});
}

void
operator delete[](void *p, std::align_val_t al) noexcept
{
    operator delete(p, al);
}

void
operator delete[](void *p, std::size_t, std::align_val_t al) noexcept
{
    operator delete(p, al);
}


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

/** Raw callbacks on consecutive ticks: wheel insertion plus dispatch. */
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
        e.run(64);  // warmup: arena/wheel growth happens here
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
        Stream s(e, 64.0, 4, "bench");
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
        Stream s(e, 64.0, 4, "bench-pooled");
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
        Stream s(e, 256.0, 4, "bench-staging");
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
