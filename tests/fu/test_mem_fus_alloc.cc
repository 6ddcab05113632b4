/**
 * @file
 * Counting-allocator and pool-traffic verification of the zero-copy
 * Mem FU staging path (ISSUE 3), mirroring tests/sim/test_stream_alloc.cc
 * one level up: after warmup, the steady-state per-tile path through the
 * scratchpad FUs — load (adopt the pooled payload), slice (refcount-
 * aliased views), send, receive-and-assemble, fuse in place — performs
 * **zero heap allocations per tile**. Pool statistics additionally pin
 * the zero-*copy* properties: loads adopt instead of acquiring, slices
 * alias instead of copying.
 */

#include <gtest/gtest.h>

#include "alloc_count.hh"
#include "common/dtype.hh"
#include "fu/mem_fus.hh"
#include "fu_harness.hh"
#include "sim/tile_pool.hh"

namespace {

using namespace rsn;
using rsn::test::FuHarness;

std::uint64_t
news()
{
    return g_allocs.load(std::memory_order_relaxed);
}

/** Acquire-fill-publish one rows x cols tile into @p s (the DDR FU's
 *  producer pattern: the load lands straight in a pooled tile). */
sim::Task
feedTile(sim::Stream &s, std::uint32_t rows, std::uint32_t cols)
{
    sim::TileRef t =
        sim::TilePool::instance().acquire(std::uint64_t(rows) * cols);
    float *d = t.mutableData();
    for (std::uint64_t i = 0; i < std::uint64_t(rows) * cols; ++i)
        d[i] = float(i % 97) * 0.25f;
    co_await s.send(sim::makeTileChunk(rows, cols, std::move(t)));
}

/** Drain @p n chunks without storing them (no vector growth). */
sim::Task
drainChunks(sim::Stream &s, int n, double &sink)
{
    for (int i = 0; i < n; ++i) {
        sim::Chunk c = co_await s.recv();
        if (c.hasData())
            sink += c.data.data()[0];
        sink += double(c.bytes());
    }
}

/** Step the engine until @p s has delivered @p target chunks. */
void
runUntilTransferred(sim::Engine &eng, sim::Stream &s,
                    std::uint64_t target)
{
    while (s.chunksTransferred() < target && !eng.idle())
        eng.run(eng.now() + 32);
    ASSERT_GE(s.chunksTransferred(), target) << "pipeline stalled";
}

/**
 * The full staging pipeline: a pooled tile is loaded into MemA, leaves
 * as 128 row-slice views toward "the mesh", is assembled and
 * softmax-fused by MemC (wired to receive MemA's output the way it
 * receives its partner MME's), and stored as 64 slices toward DDR.
 * Two steady-state windows are measured: mid slice/send/recv/assemble,
 * and mid store. Both must be allocation-free.
 */
TEST(MemStagingAlloc, LoadSliceSendRecvFuseStoreIsAllocationFree)
{
    constexpr std::uint32_t kRows = 256, kCols = 64;
    FuHarness h;
    fu::MemAFu ma(h.eng, {FuType::MemA, 0}, kMeshA);
    fu::MemCFu mc(h.eng, {FuType::MemC, 0}, /*mme_src=*/kMeshA,
                  /*ddr=*/kDdr, 277.0);
    sim::Stream &feed = h.input(ma, kDdr, 4096, 4);
    sim::Stream &link = h.output(ma, kMeshA, 256, 4);
    mc.addInput(kMeshA, &link);
    sim::Stream &store = h.output(mc, kDdr, 256, 4);

    isa::MemAUop a_load;
    a_load.rows = kRows;
    a_load.cols = kCols;
    a_load.src = kDdr;
    a_load.load = true;
    isa::MemAUop a_send;
    a_send.rows = kRows;
    a_send.cols = kCols;
    a_send.slices = 128;
    a_send.send = true;

    isa::MemCUop c_recv;
    c_recv.rows = kRows;
    c_recv.cols = kCols;
    c_recv.recv = true;
    c_recv.recv_chunks = 128;
    c_recv.softmax = true;
    isa::MemCUop c_store;
    c_store.store = true;
    c_store.send_chunks = 64;

    sim::Task prog_a = h.program(ma, {a_load, a_send});
    sim::Task prog_c = h.program(mc, {c_recv, c_store});
    sim::Task feeder = feedTile(feed, kRows, kCols);
    double sink = 0;
    sim::Task drain = drainChunks(store, 64, sink);
    ma.start();
    mc.start();

    std::uint64_t pool_buffers_before =
        sim::TilePool::instance().buffersAllocated();

    // Window 1: the slice -> send -> recv -> assemble loop. Warmup (FU
    // kernel frames, MemC's staging-tile acquire at the first chunk) is
    // over once a handful of slices crossed the link.
    runUntilTransferred(h.eng, link, 16);
    std::uint64_t before = news();
    runUntilTransferred(h.eng, link, 112);
    EXPECT_EQ(news(), before)
        << "slice/send/recv/assemble path allocated per tile";

    // Window 2: the store path — row-slice views of the fused tile
    // leaving toward DDR. The store kernel's frames are part of its
    // warmup; mid-store must be allocation-free.
    runUntilTransferred(h.eng, store, 8);
    before = news();
    runUntilTransferred(h.eng, store, 56);
    EXPECT_EQ(news(), before) << "store path allocated per tile";

    ASSERT_TRUE(h.run());
    EXPECT_EQ(link.chunksTransferred(), 128u);
    EXPECT_EQ(store.chunksTransferred(), 64u);
    EXPECT_GT(sink, 0.0);
    EXPECT_TRUE(prog_a.done() && prog_c.done());

    // Pool growth across the whole run: the feeder's input tile plus
    // MemC's one staging tile — slicing 128 + 64 chunks added nothing.
    EXPECT_LE(sim::TilePool::instance().buffersAllocated() -
                  pool_buffers_before,
              2u);
}

/**
 * MemB's per-tile work is one whole-tile send per kernel, so frames
 * dominate an operator-new count; the zero-copy property is pinned via
 * pool statistics instead: across N tiles, only the producer acquires —
 * loads adopt the payload and sends alias it, so pool acquires do not
 * scale with MemB's work (the old staging code paid one acquire+copy
 * per send on top).
 */
TEST(MemStagingAlloc, MemBLoadAdoptsAndSendAliasesWithoutPoolTraffic)
{
    constexpr int kTiles = 8;
    FuHarness h;
    fu::MemBFu mb(h.eng, {FuType::MemB, 0}, kMeshB);
    sim::Stream &feed = h.input(mb, kLpddr, 1024, 2);
    sim::Stream &out = h.output(mb, kMeshB, 1024, 2);

    std::vector<isa::Uop> uops;
    for (int i = 0; i < kTiles; ++i) {
        isa::MemBUop load;
        load.rows = 32;
        load.cols = 32;
        load.src = kLpddr;
        load.load = true;
        uops.emplace_back(load);
        isa::MemBUop send;
        send.send = true;
        uops.emplace_back(send);
    }
    sim::Task prog = h.program(mb, std::move(uops));

    std::vector<sim::Chunk> feed_chunks;
    for (int i = 0; i < kTiles; ++i)
        feed_chunks.push_back(
            sim::makeDataChunk(32, 32, rsn::test::iotaData(32, 32), i));
    sim::Task feeder = h.feedChunks(feed, std::move(feed_chunks));
    double sink = 0;
    sim::Task drain = drainChunks(out, kTiles, sink);

    // All producer-side acquires (makeDataChunk above) already happened;
    // from here on the pool must see no traffic at all.
    std::uint64_t acquires_before = sim::TilePool::instance().acquires();
    mb.start();
    ASSERT_TRUE(h.run());
    EXPECT_TRUE(prog.done());
    EXPECT_EQ(out.chunksTransferred(), std::uint64_t(kTiles));
    // MemB did zero pool traffic for kTiles load->send round trips:
    // loads adopted the fed tiles, sends aliased them (the old staging
    // code paid one acquire+copy per send on top of the copy-in).
    EXPECT_EQ(sim::TilePool::instance().acquires() - acquires_before, 0u);
}

/**
 * A multi-chunk MemC receive (legal in the ISA, never emitted by
 * codegen) copies every arriving payload, in arrival order, into one
 * pooled staging tile of the uOP's rows x cols: one pool acquire per
 * receive, the stored rows equal the fed rows, and nothing that scales
 * with the chunk count is allocated.
 */
TEST(MemStagingAlloc, MultiChunkAssemblyCopiesIntoOneStagingTile)
{
    constexpr std::uint32_t kChunks = 8, kRows = 16, kCols = 32;
    FuHarness h;
    fu::MemCFu mc(h.eng, {FuType::MemC, 0}, /*mme_src=*/kMeshA,
                  /*ddr=*/kDdr, 277.0);
    sim::Stream &feed = h.input(mc, kMeshA, 4096, 8);
    sim::Stream &store = h.output(mc, kDdr, 4096, 8);

    isa::MemCUop recv;
    recv.rows = kChunks * kRows;
    recv.cols = kCols;
    recv.recv = true;
    recv.recv_chunks = kChunks;
    isa::MemCUop st;
    st.store = true;
    st.send_chunks = kChunks;
    sim::Task prog = h.program(mc, {recv, st});

    // Distinct producer tiles (the MME pattern: one fresh output tile
    // per chunk), each row holding its global row index.
    std::vector<sim::Chunk> to_feed;
    for (std::uint32_t i = 0; i < kChunks; ++i) {
        sim::TileRef t =
            sim::TilePool::instance().acquire(kRows * kCols);
        float *d = t.mutableData();
        for (std::uint32_t e = 0; e < kRows * kCols; ++e)
            d[e] = float(i * kRows + e / kCols);
        to_feed.push_back(sim::makeTileChunk(kRows, kCols, std::move(t),
                                             i));
    }
    sim::Task feeder = h.feedChunks(feed, std::move(to_feed));
    std::vector<sim::Chunk> got;
    got.reserve(kChunks);
    sim::Task col = h.collect(store, kChunks, got);

    const std::uint64_t acquires_before =
        sim::TilePool::instance().acquires();
    const std::uint64_t news_before = news();
    mc.start();
    ASSERT_TRUE(h.run());
    ASSERT_EQ(got.size(), std::size_t(kChunks));
    // One staging acquire for the whole receive; the store slices alias
    // that one tile.
    EXPECT_EQ(sim::TilePool::instance().acquires() - acquires_before,
              1u);
    for (std::uint32_t i = 0; i < kChunks; ++i) {
        ASSERT_EQ(got[i].rows, kRows);
        EXPECT_EQ(got[i].data.data(), got[0].data.data() + i * kRows * kCols)
            << "store chunk " << i << " is not a slice of the staging tile";
        for (std::uint32_t r = 0; r < kRows; ++r)
            EXPECT_EQ(got[i].at(r, kCols - 1), float(i * kRows + r))
                << "stored row " << i * kRows + r << " out of order";
    }
    // The whole pipeline allocates only warmup state (kernel coroutine
    // frames, the staging tile's pool buffer) — nothing that scales
    // with the kChunks tiles that flowed through. The bound is the
    // measured warmup cost with headroom that would still catch 1
    // alloc/tile.
    EXPECT_LE(news() - news_before, 16u);
}

/**
 * The typed-tile variant of the full staging pipeline (ISSUE 10): a
 * bf16 tile is loaded, sliced (byte-window views — still zero-copy),
 * assembled by MemC, upconverted once for the fused softmax (the
 * accumulate-in-FP32 contract), and stored back as bf16 slices. Every
 * conversion temporary is a pooled tile, so after one full tile has
 * warmed the pool's buckets, a second identical tile must flow through
 * load -> slice -> send -> recv -> upconvert -> fuse -> downconvert ->
 * store with **zero heap allocations**.
 */
TEST(MemStagingAlloc, TypedLoadSliceFuseStorePipelineIsAllocFreeWarm)
{
    constexpr std::uint32_t kRows = 256, kCols = 64;
    constexpr std::uint64_t kElems = std::uint64_t(kRows) * kCols;
    FuHarness h;
    fu::MemAFu ma(h.eng, {FuType::MemA, 0}, kMeshA);
    fu::MemCFu mc(h.eng, {FuType::MemC, 0}, /*mme_src=*/kMeshA,
                  /*ddr=*/kDdr, 277.0);
    sim::Stream &feed = h.input(ma, kDdr, 4096, 4);
    sim::Stream &link = h.output(ma, kMeshA, 256, 4);
    mc.addInput(kMeshA, &link);
    sim::Stream &store = h.output(mc, kDdr, 256, 4);

    isa::MemAUop a_load;
    a_load.rows = kRows;
    a_load.cols = kCols;
    a_load.src = kDdr;
    a_load.load = true;
    isa::MemAUop a_send;
    a_send.rows = kRows;
    a_send.cols = kCols;
    a_send.slices = 128;
    a_send.send = true;

    isa::MemCUop c_recv;
    c_recv.rows = kRows;
    c_recv.cols = kCols;
    c_recv.recv = true;
    c_recv.recv_chunks = 128;
    c_recv.softmax = true;  // forces the FP32 upconvert pass
    isa::MemCUop c_store;
    c_store.store = true;
    c_store.send_chunks = 64;
    c_store.out_dtype = Dtype::Bf16;  // downconvert on the way out

    sim::Task prog_a = h.program(ma, {a_load, a_send});
    sim::Task prog_c = h.program(mc, {c_recv, c_store});

    std::vector<sim::Chunk> to_feed;
    {
        sim::TileRef t =
            sim::TilePool::instance().acquire(kElems, Dtype::Bf16);
        auto *d = static_cast<std::uint16_t *>(t.mutableRaw());
        for (std::uint64_t i = 0; i < kElems; ++i)
            d[i] = rsn::f32ToBf16(float(i % 97) * 0.25f);
        to_feed.push_back(
            sim::makeTileChunk(kRows, kCols, std::move(t)));
    }
    sim::Task feeder = h.feedChunks(feed, std::move(to_feed));

    // Drain inline (no chunk retention: held refs would pin the
    // conversion tiles on the pool's live side), checking the stored
    // chunks really are byte-true bf16.
    std::uint64_t stored_bytes = 0;
    int wrong_dtype = 0;
    double sink = 0;
    auto drain = [&](int n) -> sim::Task {
        for (int i = 0; i < n; ++i) {
            sim::Chunk c = co_await store.recv();
            if (c.dtype != Dtype::Bf16)
                ++wrong_dtype;
            stored_bytes += c.bytes();
            if (c.hasData())
                sink += c.at(0, 0);  // upconverting read
        }
    };
    sim::Task dr = drain(64);
    ma.start();
    mc.start();

    // Window 1: bf16 slice -> send -> recv -> assemble. The slices are
    // byte-window views of the loaded tile, copied into MemC's bf16
    // staging tile (acquired at the first chunk), so the warm loop is as
    // allocation-free as the FP32 pipeline's.
    runUntilTransferred(h.eng, link, 16);
    std::uint64_t before = news();
    runUntilTransferred(h.eng, link, 112);
    EXPECT_EQ(news(), before)
        << "typed slice/send/recv/assemble path allocated per tile";

    // Between the windows: the one FP32 upconvert pass for the fused
    // softmax (a single pool acquire).
    // Window 2: the store path, where every slice downconverts to bf16
    // through a pooled conversion tile. The first few slices warm that
    // bucket (in-flight depth); mid-store must then reuse, not allocate.
    runUntilTransferred(h.eng, store, 8);
    before = news();
    runUntilTransferred(h.eng, store, 56);
    EXPECT_EQ(news(), before)
        << "typed downconverting store path allocated per tile";

    ASSERT_TRUE(h.run());
    EXPECT_TRUE(prog_a.done() && prog_c.done());
    EXPECT_EQ(store.chunksTransferred(), 64u);
    EXPECT_EQ(wrong_dtype, 0) << "store emitted a non-bf16 chunk";
    // Byte-true wire accounting: 256x64 elements x 2 bytes.
    EXPECT_EQ(stored_bytes, kElems * 2);
    EXPECT_GT(sink, 0.0);  // softmax output, all finite positives
}

/**
 * A single-chunk MemC receive adopts the producer's tile outright: the
 * bytes the store emits live in the very buffer the producer filled
 * (full zero-copy through MemC when no operator fuses).
 */
TEST(MemStagingAlloc, MemCSingleChunkAdoptionIsZeroCopyEndToEnd)
{
    FuHarness h;
    fu::MemCFu mc(h.eng, {FuType::MemC, 0}, /*mme_src=*/kMeshA,
                  /*ddr=*/kDdr, 277.0);
    sim::Stream &feed = h.input(mc, kMeshA, 1024, 2);
    sim::Stream &store = h.output(mc, kDdr, 1024, 2);

    isa::MemCUop recv;
    recv.recv = true;
    recv.recv_chunks = 1;
    isa::MemCUop st;
    st.store = true;
    st.send_chunks = 2;
    sim::Task prog = h.program(mc, {recv, st});

    sim::TileRef t = sim::TilePool::instance().acquire(16 * 8);
    const float *fed_payload = t.data();
    float *d = t.mutableData();
    for (int i = 0; i < 16 * 8; ++i)
        d[i] = float(i);
    std::vector<sim::Chunk> to_feed;
    to_feed.push_back(sim::makeTileChunk(16, 8, std::move(t)));
    sim::Task feeder = h.feedChunks(feed, std::move(to_feed));

    std::vector<sim::Chunk> got;
    sim::Task col = h.collect(store, 2, got);
    std::uint64_t acquires_before = sim::TilePool::instance().acquires();
    mc.start();
    ASSERT_TRUE(h.run());
    ASSERT_EQ(got.size(), 2u);
    // The store slices alias the producer's buffer directly.
    EXPECT_EQ(got[0].data.data(), fed_payload);
    EXPECT_EQ(got[1].data.data(), fed_payload + 8 * 8);
    EXPECT_FLOAT_EQ(got[1].at(0, 0), 64.f);
    // And MemC acquired nothing on the way.
    EXPECT_EQ(sim::TilePool::instance().acquires() - acquires_before, 0u);
}

} // namespace
