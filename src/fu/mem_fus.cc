#include "fu/mem_fus.hh"

#include <cmath>
#include <cstring>

#include "common/log.hh"
#include "fu/kernel_registry.hh"
#include "fu/nonlinear.hh"

namespace rsn::fu {

RowSlices::RowSlices(std::uint32_t total, std::uint32_t slices)
{
    rsn_assert(slices > 0 && total > 0, "bad row slicing");
    count_ = std::min(slices, total);
    base_ = total / count_;
    rem_ = total % count_;
}

namespace {

/**
 * Publish a row-slice of a staged tile (functional runs only). This is a
 * refcount-aliased view of the staged tile — no acquire, no copy:
 * consumers read [row_off*cols, (row_off+rows)*cols) of the staged data
 * directly.
 */
sim::Chunk
sliceChunk(const TileBuffer &buf, std::uint32_t row_off, std::uint32_t rows,
           std::uint32_t tag)
{
    if (!buf.hasData())
        return sim::makeChunk(rows, buf.cols, tag, buf.dtype);
    return sim::makeTileChunk(
        rows, buf.cols,
        buf.tile.slice(std::uint64_t(row_off) * buf.cols,
                       std::uint64_t(rows) * buf.cols),
        tag);
}

/**
 * MemC's typed emit: slice the staged tile and convert the slice to
 * @p out_dtype when it differs from the buffer's element type. The
 * conversion fills a fresh pooled tile (the staged slice may be shared
 * and stays immutable); matching dtypes keep the zero-copy window
 * path. Conversion is free in simulated time — in hardware it rides
 * the send pipeline the same way the fused operators do.
 */
sim::Chunk
sliceChunkAs(const TileBuffer &buf, std::uint32_t row_off, std::uint32_t rows,
             std::uint32_t tag, Dtype out_dtype)
{
    if (!buf.hasData() || buf.dtype == out_dtype) {
        sim::Chunk c = sliceChunk(buf, row_off, rows, tag);
        c.dtype = out_dtype;
        return c;
    }
    const std::uint64_t elems = std::uint64_t(rows) * buf.cols;
    sim::TileRef window =
        buf.tile.slice(std::uint64_t(row_off) * buf.cols, elems);
    sim::TileRef t = sim::TilePool::instance().acquire(elems, out_dtype);
    if (out_dtype == Dtype::F32)
        kernel::active().bf16_to_f32(t.mutableData(), window.data16(), elems);
    else
        kernel::active().f32_to_bf16(t.mutableData16(), window.data(), elems);
    return sim::makeTileChunk(rows, buf.cols, std::move(t), tag);
}

/**
 * Upconvert a typed staged buffer to FP32 ahead of the fused operators
 * (accuracy policy: MemC's non-MM operators always compute in FP32 —
 * docs/datapath.md), into a fresh pooled tile, so steady state
 * allocates nothing.
 */
void
upconvertBuffer(TileBuffer &buf)
{
    if (buf.dtype == Dtype::F32)
        return;
    if (buf.hasData()) {
        const std::uint64_t n = std::uint64_t(buf.rows) * buf.cols;
        sim::TileRef t = sim::TilePool::instance().acquire(n);
        kernel::active().bf16_to_f32(t.mutableData(), buf.tile.data16(), n);
        buf.tile = std::move(t);
    }
    buf.dtype = Dtype::F32;
}

} // namespace

template <typename Fill, typename Drain>
sim::Task
PingPong::run(bool do_fill, bool do_drain, Fill fill, Drain drain)
{
    TileBuffer &fill_buf = fill_ping_ ? ping_ : pong_;
    TileBuffer &drain_buf = fill_ping_ ? pong_ : ping_;
    if (do_fill)
        fill_ping_ = !fill_ping_;

    // Fill and drain run in parallel when both are enabled (Fig. 7b;
    // MemC's RECV plus its fused operator overlaps SEND, Fig. 11).
    if (do_fill && do_drain) {
        sim::Task f = fill(fill_buf);
        sim::Task d = drain(drain_buf);
        co_await f;
        co_await d;
    } else if (do_fill) {
        co_await fill(fill_buf);
    } else if (do_drain) {
        co_await drain(drain_buf);
    }
}

// ---------------------------------------------------------------- MemA --

MemAFu::MemAFu(sim::Engine &eng, FuId id, FuId mesh_dst,
               std::size_t uop_depth)
    : Fu(eng, id, uop_depth), mesh_dst_(mesh_dst)
{
}

sim::Task
MemAFu::loadPart(const isa::MemAUop &u, TileBuffer &buf)
{
    sim::Chunk c = co_await in(u.src).recv();
    countIn(c);
    checkIngress(c);
    buf.rows = c.rows;
    buf.cols = c.cols;
    buf.dtype = c.dtype;
    // Adopt the payload tile by reference: the DDR FU loaded it straight
    // from host memory into a pooled tile, so staging is a pointer move.
    buf.tile = std::move(c.data);
}

sim::Task
MemAFu::sendPart(const isa::MemAUop &u, TileBuffer &buf)
{
    rsn_assert(buf.rows > 0, "%s sending before any load", name().c_str());
    sim::Stream &o = out(mesh_dst_);
    auto slices = sliceRows(buf.rows, u.slices);
    for (std::uint32_t i = 0; i < slices.size(); ++i) {
        sim::Chunk c = sliceChunk(buf, slices[i].first, slices[i].second,
                                  i);
        countOut(c);
        co_await o.send(std::move(c));
    }
}

sim::Task
MemAFu::runKernel(isa::UopRef uop)
{
    const auto &u = std::get<isa::MemAUop>(*uop.mop);
    return buffers_.run(
        u.load, u.send,
        [this, &u](TileBuffer &b) { return loadPart(u, b); },
        [this, &u](TileBuffer &b) { return sendPart(u, b); });
}

void
MemAFu::resetKernelState()
{
    buffers_.reset();
}

// ---------------------------------------------------------------- MemB --

MemBFu::MemBFu(sim::Engine &eng, FuId id, FuId mesh_dst,
               std::size_t uop_depth)
    : Fu(eng, id, uop_depth), mesh_dst_(mesh_dst)
{
}

sim::Task
MemBFu::loadPart(const isa::MemBUop &u, TileBuffer &buf)
{
    sim::Chunk c = co_await in(u.src).recv();
    countIn(c);
    checkIngress(c);
    buf.tile.release();
    buf.dtype = c.dtype;
    if (u.transpose) {
        buf.rows = c.cols;
        buf.cols = c.rows;
        if (c.hasData()) {
            // Transposition is a transform: fill a fresh pooled tile
            // (the incoming chunk may be shared and stays immutable).
            sim::TileRef t =
                sim::TilePool::instance().acquire(c.elems(), c.dtype);
            // Layout conversion through the active kernel table; every
            // table's transpose (both widths) is bit-identical (pure
            // data movement), so the ISA choice cannot move payload
            // values here. bf16 tiles take the u16 transpose.
            if (c.dtype == Dtype::F32)
                kernel::active().transpose(t.mutableData(),
                                           c.data.data(), c.rows,
                                           c.cols);
            else
                kernel::active().transpose_u16(t.mutableData16(),
                                               c.data.data16(), c.rows,
                                               c.cols);
            buf.tile = std::move(t);
        }
    } else {
        buf.rows = c.rows;
        buf.cols = c.cols;
        buf.tile = std::move(c.data);
    }
}

sim::Task
MemBFu::sendPart(const isa::MemBUop &u, TileBuffer &buf)
{
    (void)u;
    rsn_assert(buf.rows > 0, "%s sending before any load", name().c_str());
    sim::Chunk c = sliceChunk(buf, 0, buf.rows, 0);
    countOut(c);
    co_await out(mesh_dst_).send(std::move(c));
}

sim::Task
MemBFu::runKernel(isa::UopRef uop)
{
    const auto &u = std::get<isa::MemBUop>(*uop.mop);
    return buffers_.run(
        u.load, u.send,
        [this, &u](TileBuffer &b) { return loadPart(u, b); },
        [this, &u](TileBuffer &b) { return sendPart(u, b); });
}

void
MemBFu::resetKernelState()
{
    buffers_.reset();
}

// ---------------------------------------------------------------- MemC --

MemCFu::MemCFu(sim::Engine &eng, FuId id, FuId mme_src, FuId ddr,
               double flops_per_tick, std::size_t uop_depth)
    : Fu(eng, id, uop_depth), mme_src_(mme_src), ddr_(ddr),
      flops_per_tick_(flops_per_tick)
{
    rsn_assert(flops_per_tick > 0, "bad MemC rate");
}

sim::Task
MemCFu::recvPart(const isa::MemCUop &u, TileBuffer &buf)
{
    // Receive the tile from the partner MME. One chunk (the only
    // receive codegen emits) is adopted by move. Several are copied, in
    // arrival order, into one pooled staging tile of the uOP's
    // rows x cols, acquired at the first chunk that carries data.
    buf.tile.release();
    if (u.recv_chunks == 1) {
        sim::Chunk c = co_await in(mme_src_).recv();
        countIn(c);
        buf.rows = c.rows;
        buf.cols = c.cols;
        buf.dtype = c.dtype;
        buf.tile = std::move(c.data);
    } else {
        buf.cols = u.cols;
        std::uint32_t row_fill = 0;
        for (std::uint32_t i = 0; i < u.recv_chunks; ++i) {
            sim::Chunk c = co_await in(mme_src_).recv();
            countIn(c);
            if (i == 0)
                buf.dtype = c.dtype;
            rsn_assert(c.cols == u.cols && c.dtype == buf.dtype,
                       "%s multi-chunk receive: chunk %u is %u %s wide, "
                       "its tile %u %s",
                       name().c_str(), i, c.cols, dtypeName(c.dtype),
                       u.cols, dtypeName(buf.dtype));
            rsn_assert(row_fill + c.rows <= u.rows,
                       "%s multi-chunk receive overflows its %ux%u tile "
                       "at chunk %u",
                       name().c_str(), u.rows, u.cols, i);
            if (c.hasData()) {
                if (!buf.hasData())
                    buf.tile = sim::TilePool::instance().acquire(
                        std::uint64_t(u.rows) * u.cols, buf.dtype);
                const std::uint64_t esize = dtypeBytes(buf.dtype);
                std::memcpy(static_cast<std::byte *>(buf.tile.mutableRaw()) +
                                std::uint64_t(row_fill) * u.cols * esize,
                            c.data.raw(), c.elems() * esize);
            }
            row_fill += c.rows;
        }
        rsn_assert(row_fill == u.rows,
                   "%s multi-chunk receive filled %u of its %u rows",
                   name().c_str(), row_fill, u.rows);
        buf.rows = row_fill;
    }

    // Accuracy policy: the fused non-MM operators always compute in
    // FP32. A typed staged tile is upconverted once, before the first
    // fused op; sendPart downconverts to the uOP's out_dtype on the way
    // out. Conversions are free in simulated time (they ride the same
    // pipeline as the operators themselves) — see docs/datapath.md.
    if (u.add_residual || u.softmax || u.gelu || u.layernorm ||
        u.scale_shift) {
        upconvertBuffer(buf);
    }

    double flops = 0;
    const double elems = double(buf.rows) * buf.cols;
    const std::uint64_t n = std::uint64_t(buf.rows) * buf.cols;

    // Each fused operator runs once over the staged tile: copy-on-write
    // when a producer still shares it (TileRef::ensureUnique), in place
    // in the steady state where this MemC solely owns the MME's output.
    // Softmax/GELU/LayerNorm go through the active kernel table
    // (fu/kernel_registry.hh): vectorized approximate kernels under the
    // probed default, the exact scalar reference when the `scalar`
    // table is selected. Residual add and scale-shift are called
    // directly — they have no approximate variant and are bit-identical
    // under every table (fu/nonlinear.cc).

    if (u.add_residual) {
        sim::Chunk res = co_await in(ddr_).recv();
        countIn(res);
        checkIngress(res);
        if (res.hasData() && buf.hasData()) {
            rsn_assert(res.elems() == n, "residual shape mismatch");
            // A typed residual (previous layer stored at activation
            // dtype) is upconverted through a scratch pool tile; the
            // add itself is FP32 like every fused operator.
            sim::TileRef res_f32;
            const float *rp;
            if (res.dtype == Dtype::F32) {
                rp = res.data.data();
            } else {
                res_f32 = sim::TilePool::instance().acquire(n);
                kernel::active().bf16_to_f32(res_f32.mutableData(),
                                             res.data.data16(), n);
                rp = res_f32.data();
            }
            addInplace(buf.tile.ensureUnique(n), rp, n);
        }
        flops += elems * kResidualFlopsPerElem;
    }
    // Gamma/beta arrive as a 2 x cols block from the LPDDR FU; the chunk
    // is kept alive so the parameters are read in place, no copies.
    sim::Chunk params;
    if (u.scale_shift) {
        params = co_await in(FuId{FuType::Lpddr, 0}).recv();
        countIn(params);
        checkIngress(params);
        flops += elems * kScaleShiftFlopsPerElem;
    }

    if (u.softmax) {
        if (buf.hasData())
            kernel::active().softmax_rows(buf.tile.ensureUnique(n),
                                          buf.rows, buf.cols);
        flops += elems * kSoftmaxFlopsPerElem;
    }
    if (u.gelu) {
        if (buf.hasData())
            kernel::active().gelu_inplace(buf.tile.ensureUnique(n), n);
        flops += elems * kGeluFlopsPerElem;
    }
    if (u.layernorm) {
        if (buf.hasData())
            kernel::active().layernorm_rows(buf.tile.ensureUnique(n),
                                            buf.rows, buf.cols);
        flops += elems * kLayernormFlopsPerElem;
    }
    if (u.scale_shift && buf.hasData() && params.hasData()) {
        // scaleShiftRows' raw-pointer form has no size to check against
        // (contract in fu/nonlinear.hh), so the zero-copy path validates
        // the in-place LPDDR chunk here: gamma is row 0 and beta row 1
        // of a 2 x cols block, and the adopted payload window must
        // actually hold both rows before the pointers are formed.
        rsn_assert(params.cols >= buf.cols,
                   "%s gamma/beta block narrower than tile (%u < %u)",
                   name().c_str(), params.cols, buf.cols);
        rsn_assert(params.rows >= 2,
                   "%s gamma/beta block needs 2 rows, got %u",
                   name().c_str(), params.rows);
        rsn_assert(params.dtype == Dtype::F32,
                   "%s gamma/beta must be FP32 (precision policy)",
                   name().c_str());
        rsn_assert(params.data.capacity() >=
                       2 * std::uint64_t(params.cols),
                   "%s gamma/beta payload window too short: %llu < %llu",
                   name().c_str(),
                   static_cast<unsigned long long>(
                       params.data.capacity()),
                   static_cast<unsigned long long>(
                       2 * std::uint64_t(params.cols)));
        const float *gamma = params.data.data();
        scaleShiftRows(buf.tile.ensureUnique(n), buf.rows, buf.cols, gamma,
                       gamma + params.cols);
    }

    if (flops > 0) {
        countFlops(static_cast<std::uint64_t>(flops));
        co_await eng_.delay(
            static_cast<Tick>(std::ceil(flops / flops_per_tick_)));
    }
}

sim::Task
MemCFu::sendPart(const isa::MemCUop &u, TileBuffer &buf)
{
    rsn_assert(buf.rows > 0, "%s sending before any recv", name().c_str());
    // Store first, then the mesh: the order is part of the schedule.
    const std::pair<bool, FuId> dests[] = {{u.store, ddr_},
                                           {u.send_mme, u.send_dest}};
    auto pieces = sliceRows(buf.rows, u.send_chunks);
    for (const auto &[enabled, dst] : dests) {
        if (!enabled)
            continue;
        sim::Stream &o = out(dst);
        for (std::uint32_t i = 0; i < pieces.size(); ++i) {
            sim::Chunk c = sliceChunkAs(buf, pieces[i].first,
                                        pieces[i].second, i, u.out_dtype);
            countOut(c);
            co_await o.send(std::move(c));
        }
    }
}

sim::Task
MemCFu::runKernel(isa::UopRef uop)
{
    const auto &u = std::get<isa::MemCUop>(*uop.mop);
    return buffers_.run(
        u.recv, u.store || u.send_mme,
        [this, &u](TileBuffer &b) { return recvPart(u, b); },
        [this, &u](TileBuffer &b) { return sendPart(u, b); });
}

void
MemCFu::resetKernelState()
{
    buffers_.reset();
}

} // namespace rsn::fu
