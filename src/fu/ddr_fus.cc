#include "fu/ddr_fus.hh"

#include "common/log.hh"
#include "fu/kernel_registry.hh"

namespace rsn::fu {

namespace {

/**
 * Functional load at the DRAM boundary: host memory is FP32 truth; a
 * typed load models tensors stored pre-quantized off-chip, so the
 * downconversion is free in time (it happens at DRAM-write time in
 * hardware) and only the typed bytes cross the channel. Reads the
 * block into a scratch FP32 tile, then converts into a fresh typed
 * tile. Both tiles come from the pool, so steady state allocates
 * nothing (pinned by tests/fu/test_mem_fus_alloc.cc).
 */
sim::TileRef
loadTypedBlock(mem::HostMemory &host, Addr addr, std::uint32_t pitch,
               std::uint32_t rows, std::uint32_t cols, Dtype dtype)
{
    const std::uint64_t elems = std::uint64_t(rows) * cols;
    auto &pool = sim::TilePool::instance();
    if (dtype == Dtype::F32) {
        auto t = pool.acquire(elems);
        host.readBlockInto(addr, pitch, rows, cols, t.mutableData());
        return t;
    }
    auto f32 = pool.acquire(elems);
    host.readBlockInto(addr, pitch, rows, cols, f32.mutableData());
    auto typed = pool.acquire(elems, dtype);
    kernel::active().convert_rows_from_f32(typed.mutableRaw(), dtype,
                                           f32.data(), elems);
    return typed;
}

} // namespace

// ----------------------------------------------------------------- DDR --

DdrFu::DdrFu(sim::Engine &eng, FuId id, mem::DramChannel &chan,
             mem::HostMemory &host, mem::LayoutKind layout,
             std::size_t uop_depth)
    : Fu(eng, id, uop_depth), chan_(chan), host_(host), layout_(layout)
{
}

sim::Task
DdrFu::runKernel(const isa::Uop &uop)
{
    const auto &u = std::get<isa::DdrUop>(uop);
    rsn_assert(u.load != u.store,
               "DDR uOP must be exactly one of load/store");

    for (std::uint32_t i = 0; i < u.stride_count; ++i) {
        Addr addr = u.addr + std::uint64_t(i) * u.stride_offset;
        if (u.load) {
            mem::DramRequest req{mem::Dir::Read,
                                 Bytes(u.rows) * u.cols *
                                     dtypeBytes(u.dtype),
                                 mem::blockBursts(u.rows, u.cols, u.pitch,
                                                  layout_)};
            co_await chan_.access(req);
            sim::Chunk c;
            if (host_.functional()) {
                // F32 loads go straight into a pooled tile (strided
                // memcpy fast path); typed loads convert at the DRAM
                // boundary (see loadTypedBlock).
                c = sim::makeTileChunk(
                    u.rows, u.cols,
                    loadTypedBlock(host_, addr, u.pitch, u.rows, u.cols,
                                   u.dtype),
                    i);
            } else {
                c = sim::makeChunk(u.rows, u.cols, i, u.dtype);
            }
            stampEgress(c);
            countOut(c);
            co_await out(u.dest).send(std::move(c));
        } else {
            sim::Chunk c = co_await in(u.src).recv();
            countIn(c);
            mem::DramRequest req{mem::Dir::Write, c.bytes(),
                                 mem::blockBursts(c.rows, c.cols, u.pitch,
                                                  layout_)};
            co_await chan_.access(req);
            if (c.hasData()) {
                if (c.dtype == Dtype::F32) {
                    host_.writeBlock(addr, u.pitch, c.rows, c.cols,
                                     c.data.data(), c.elems());
                } else {
                    // Host truth stays FP32: upconvert through a
                    // scratch pool tile before the write-back. DRAM
                    // traffic above is the typed byte count.
                    auto f32 =
                        sim::TilePool::instance().acquire(c.elems());
                    kernel::active().convert_rows_to_f32(
                        f32.mutableData(), c.data.raw(), c.dtype,
                        c.elems());
                    host_.writeBlock(addr, u.pitch, c.rows, c.cols,
                                     f32.data(), c.elems());
                }
            }
        }
    }
}

// --------------------------------------------------------------- LPDDR --

LpddrFu::LpddrFu(sim::Engine &eng, FuId id, mem::DramChannel &chan,
                 mem::HostMemory &host, mem::LayoutKind layout,
                 std::size_t uop_depth)
    : Fu(eng, id, uop_depth), chan_(chan), host_(host), layout_(layout)
{
}

sim::Task
LpddrFu::runKernel(const isa::Uop &uop)
{
    const auto &u = std::get<isa::LpddrUop>(uop);
    for (std::uint32_t i = 0; i < u.stride_count; ++i) {
        Addr addr = u.addr + std::uint64_t(i) * u.stride_offset;
        rsn_assert(!u.load_bias || u.dtype == Dtype::F32,
                   "bias / LN-parameter loads must stay FP32");
        mem::DramRequest req{mem::Dir::Read,
                             Bytes(u.rows) * u.cols * dtypeBytes(u.dtype),
                             mem::blockBursts(u.rows, u.cols, u.pitch,
                                              layout_)};
        co_await chan_.access(req);
        sim::Chunk c;
        if (host_.functional()) {
            c = sim::makeTileChunk(
                u.rows, u.cols,
                loadTypedBlock(host_, addr, u.pitch, u.rows, u.cols,
                               u.dtype),
                i);
        } else {
            c = sim::makeChunk(u.rows, u.cols, i, u.dtype);
        }
        stampEgress(c);
        countOut(c);
        co_await out(u.dest).send(std::move(c));
    }
}

} // namespace rsn::fu
