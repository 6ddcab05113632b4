/**
 * @file
 * Scratchpad FUs: MemA (LHS), MemB (RHS), MemC (output).
 *
 * All three are ping-pong buffered so a kernel can load one buffer while
 * sending the other (paper Fig. 7b / Fig. 11). MemB additionally supports
 * input transposition (attention K^T) and bias forwarding; MemC hosts the
 * fused non-MM operators (Softmax, GELU, LayerNorm, scale & shift,
 * residual add) and can re-inject results into the network as the next
 * layer's operand (dynamic pipeline chaining).
 *
 * Staging is zero-copy on every path a program takes: a TileBuffer
 * holds one pooled sim::TileRef, loads and MemC's one-chunk receive
 * adopt the incoming chunk's tile by move, and row-slices leave as
 * offset/length views aliasing it (sim/tile_pool.hh). MemC, the only
 * writer, fuses its operators in place under the usual copy-on-write
 * rule (TileRef::ensureUnique). A MemC receive of several chunks (legal
 * in the ISA, never emitted by codegen) copies them, in arrival order,
 * into one pooled staging tile of the uOP's rows x cols. Ownership rules
 * are documented in docs/datapath.md.
 */

#ifndef RSN_FU_MEM_FUS_HH
#define RSN_FU_MEM_FUS_HH

#include <algorithm>
#include <utility>

#include "fu/fu.hh"

namespace rsn::fu {

/** One side of a ping-pong buffer pair. */
struct TileBuffer {
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    sim::TileRef tile;  ///< Empty in timing-only runs.
    /** Element type of the staged tile. Tracked on the buffer (not just
     *  the tile) so timing-only runs slice byte-true chunks. */
    Dtype dtype = Dtype::F32;

    bool hasData() const { return static_cast<bool>(tile); }
};

/**
 * The ping-pong buffer pair behind every Mem FU kernel: one side fills
 * (load / recv) while the other drains (send / store), and each fill
 * flips the side the next fill lands in.
 */
class PingPong
{
  public:
    /**
     * One kernel: `fill(TileBuffer &)` when @p do_fill, `drain(TileBuffer
     * &)` when @p do_drain, each returning a sim::Task. With both, the
     * fill task is created before the drain task (tasks start eagerly,
     * so the order is part of the schedule) and the two run in parallel.
     */
    template <typename Fill, typename Drain>
    sim::Task run(bool do_fill, bool do_drain, Fill fill, Drain drain);

    void reset() { *this = {}; }

  private:
    TileBuffer ping_, pong_;
    bool fill_ping_ = true;
};

/** LHS scratchpad. Sends row-slices of the buffered tile toward MeshA. */
class MemAFu : public Fu
{
  public:
    MemAFu(sim::Engine &eng, FuId id, FuId mesh_dst,
           std::size_t uop_depth = kDefaultUopDepth);

  protected:
    sim::Task runKernel(isa::UopRef uop) override;
    void resetKernelState() override;

  private:
    sim::Task loadPart(const isa::MemAUop &u, TileBuffer &buf);
    sim::Task sendPart(const isa::MemAUop &u, TileBuffer &buf);

    FuId mesh_dst_;
    PingPong buffers_;
};

/** RHS scratchpad. Broadcasts the buffered tile toward MeshB. */
class MemBFu : public Fu
{
  public:
    MemBFu(sim::Engine &eng, FuId id, FuId mesh_dst,
           std::size_t uop_depth = kDefaultUopDepth);

  protected:
    sim::Task runKernel(isa::UopRef uop) override;
    void resetKernelState() override;

  private:
    sim::Task loadPart(const isa::MemBUop &u, TileBuffer &buf);
    sim::Task sendPart(const isa::MemBUop &u, TileBuffer &buf);

    FuId mesh_dst_;
    PingPong buffers_;
};

/** Output scratchpad with fused non-MM operators. */
class MemCFu : public Fu
{
  public:
    /**
     * @param mme_src the partner MME feeding this MemC
     * @param ddr the DDR FU this MemC stores through
     * @param flops_per_tick non-MM processing rate (Fig. 16: 0.072
     *        TFLOPS at 260 MHz = ~277 FLOP/tick)
     */
    MemCFu(sim::Engine &eng, FuId id, FuId mme_src, FuId ddr,
           double flops_per_tick, std::size_t uop_depth = kDefaultUopDepth);

  protected:
    sim::Task runKernel(isa::UopRef uop) override;
    void resetKernelState() override;

  private:
    sim::Task recvPart(const isa::MemCUop &u, TileBuffer &buf);
    sim::Task sendPart(const isa::MemCUop &u, TileBuffer &buf);

    FuId mme_src_;
    FuId ddr_;
    double flops_per_tick_;
    PingPong buffers_;
};

/**
 * @p total rows split into near-equal row slices, the first ones one
 * row longer when the split is uneven: an indexable, iterable range of
 * (offset, extent) pairs, computed on access (nothing is stored). Fewer
 * rows than requested slices fall back to one row per slice; codegen
 * applies the same clamp, so producer and consumer agree on the piece
 * count.
 */
class RowSlices
{
  public:
    using Slice = std::pair<std::uint32_t, std::uint32_t>;

    RowSlices(std::uint32_t total, std::uint32_t slices);

    std::uint32_t size() const { return count_; }
    Slice
    operator[](std::uint32_t i) const
    {
        return {i * base_ + std::min(i, rem_), base_ + (i < rem_ ? 1 : 0)};
    }

    struct Iterator {
        const RowSlices *s;
        std::uint32_t i;
        Slice operator*() const { return (*s)[i]; }
        Iterator &
        operator++()
        {
            ++i;
            return *this;
        }
        bool operator==(const Iterator &) const = default;
    };
    Iterator begin() const { return {this, 0}; }
    Iterator end() const { return {this, count_}; }

  private:
    std::uint32_t count_, base_, rem_;
};

/** Split @p total rows into @p slices row slices (see RowSlices). */
inline RowSlices
sliceRows(std::uint32_t total, std::uint32_t slices)
{
    return {total, slices};
}

} // namespace rsn::fu

#endif // RSN_FU_MEM_FUS_HH
