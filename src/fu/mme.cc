#include "fu/mme.hh"

#include <algorithm>

#include "common/log.hh"

namespace rsn::fu {

namespace {

/**
 * Publish the FP32 accumulator at the uOP's output dtype: a refcount
 * move for F32, otherwise a downconversion into a fresh pooled tile
 * (free in simulated time — it happens on the drain path that
 * chunkTicks already covers). The accumulator itself always stays FP32
 * across the whole k loop.
 */
sim::TileRef
emitAccumulator(sim::TileRef acc, std::uint64_t elems, Dtype out_dtype)
{
    if (out_dtype == Dtype::F32)
        return acc;
    sim::TileRef t = sim::TilePool::instance().acquire(elems, out_dtype);
    kernel::active().f32_to_bf16(t.mutableData16(), acc.data(), elems);
    return t;
}

/**
 * Typed-operand tile product: acc(m x n) += lhs(m x k) @ rhs(k x n),
 * accumulating in FP32 whatever the operand dtypes. Both-bf16 hits the
 * fused bf16 microkernel (packs and converts in one pass); a mixed
 * f32 x bf16 pair upconverts the bf16 operand into its scratch
 * conversion panel and runs the FP32 kernel.
 */
void
gemmAccumulateTyped(GemmScratch &scratch, float *acc,
                    const sim::Chunk &lhs, const sim::Chunk &rhs,
                    std::uint32_t m, std::uint32_t k, std::uint32_t n)
{
    if (lhs.dtype == Dtype::F32 && rhs.dtype == Dtype::F32) {
        gemmAccumulate(scratch, acc, lhs.data.data(), rhs.data.data(), m,
                       k, n);
        return;
    }
    if (lhs.dtype == Dtype::Bf16 && rhs.dtype == Dtype::Bf16) {
        kernel::active().gemm_accumulate_bf16(scratch, acc,
                                              lhs.data.data16(),
                                              rhs.data.data16(), m, k, n);
        return;
    }
    const float *lp;
    if (lhs.dtype == Dtype::F32) {
        lp = lhs.data.data();
    } else {
        float *panel = scratch.cvtLhsPanel(std::uint64_t(m) * k);
        kernel::active().bf16_to_f32(panel, lhs.data.data16(),
                                     std::uint64_t(m) * k);
        lp = panel;
    }
    const float *rp;
    if (rhs.dtype == Dtype::F32) {
        rp = rhs.data.data();
    } else {
        float *panel = scratch.cvtRhsPanel(std::uint64_t(k) * n);
        kernel::active().bf16_to_f32(panel, rhs.data.data16(),
                                     std::uint64_t(k) * n);
        rp = panel;
    }
    gemmAccumulate(scratch, acc, lp, rp, m, k, n);
}

} // namespace

MmeFu::MmeFu(sim::Engine &eng, FuId id, AieModel model, FuId lhs_src,
             FuId rhs_src, FuId out_dst, std::size_t uop_depth)
    : Fu(eng, id, uop_depth), model_(model), lhs_src_(lhs_src),
      rhs_src_(rhs_src), out_dst_(out_dst)
{
}

sim::Task
MmeFu::runKernel(isa::UopRef uop)
{
    const auto &u = std::get<isa::MmeUop>(*uop.mop);
    sim::Stream &lhs_in = in(lhs_src_);
    sim::Stream &rhs_in = in(rhs_src_);
    sim::Stream &out_s = out(out_dst_);

    for (std::uint32_t rep = 0; rep < u.reps; ++rep) {
        // Bias (if any) arrives ahead of the RHS tiles on the RHS stream.
        sim::Chunk bias;
        if (u.add_bias) {
            bias = co_await rhs_in.recv();
            countIn(bias);
        }

        std::uint32_t out_rows = 0, out_cols = 0;
        // Output-stationary accumulator: a pooled tile, uniquely owned
        // until it is published inside the outgoing chunk.
        sim::TileRef acc;
        for (std::uint32_t ks = 0; ks < u.k_steps; ++ks) {
            sim::Chunk lhs = co_await lhs_in.recv();
            sim::Chunk rhs = co_await rhs_in.recv();
            countIn(lhs);
            countIn(rhs);
            rsn_assert(lhs.cols == rhs.rows,
                       "MME chunk K mismatch: %u vs %u", lhs.cols,
                       rhs.rows);
            out_rows = lhs.rows;
            out_cols = rhs.cols;

            co_await eng_.delay(
                model_.chunkTicks(lhs.rows, lhs.cols, rhs.cols));
            countFlops(2ull * lhs.rows * lhs.cols * rhs.cols);

            if (lhs.hasData() && rhs.hasData()) {
                std::size_t out_elems = std::size_t(out_rows) * out_cols;
                if (!acc) {
                    acc = sim::TilePool::instance().acquire(out_elems);
                    std::fill_n(acc.mutableData(), out_elems, 0.f);
                }
                // Accumulating tile product (output-stationary) through
                // the blocked microkernel (fu/gemm_kernel.hh). The
                // operands are often refcount-aliased views of a Mem FU's
                // staging tile; the kernel packs them into this FU's
                // scratch panels, so views need no special handling.
                // Typed operands accumulate in FP32 (gemmAccumulateTyped).
                gemmAccumulateTyped(scratch_, acc.mutableData(), lhs,
                                    rhs, lhs.rows, lhs.cols, rhs.cols);
            }

            if (!u.accum_k) {
                // Emit a partial product per k-step instead of reducing.
                sim::Chunk partial;
                if (acc) {
                    const std::uint64_t out_elems =
                        std::uint64_t(out_rows) * out_cols;
                    partial = sim::makeTileChunk(
                        out_rows, out_cols,
                        emitAccumulator(std::move(acc), out_elems,
                                        u.out_dtype),
                        ks);
                } else {
                    partial = sim::makeChunk(out_rows, out_cols, ks,
                                             u.out_dtype);
                }
                countOut(partial);
                co_await out_s.send(std::move(partial));
            }
        }

        if (u.accum_k) {
            sim::Chunk result;
            if (acc) {
                if (bias.hasData()) {
                    rsn_assert(bias.cols == out_cols, "bias width");
                    rsn_assert(bias.dtype == Dtype::F32,
                               "bias must be FP32 (precision policy)");
                    float *accp = acc.mutableData();
                    const float *bp = bias.data.data();
                    for (std::uint32_t i = 0; i < out_rows; ++i)
                        for (std::uint32_t j = 0; j < out_cols; ++j)
                            accp[std::size_t(i) * out_cols + j] += bp[j];
                    countFlops(std::uint64_t(out_rows) * out_cols);
                }
                const std::uint64_t out_elems =
                    std::uint64_t(out_rows) * out_cols;
                result = sim::makeTileChunk(
                    out_rows, out_cols,
                    emitAccumulator(std::move(acc), out_elems,
                                    u.out_dtype),
                    rep);
            } else {
                result = sim::makeChunk(out_rows, out_cols, rep,
                                        u.out_dtype);
            }
            countOut(result);
            co_await out_s.send(std::move(result));
        }
    }
}

void
MmeFu::resetKernelState()
{
    scratch_.release();
}

} // namespace rsn::fu
