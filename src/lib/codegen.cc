#include "lib/codegen.hh"

#include <algorithm>
#include <array>
#include <deque>
#include <initializer_list>
#include <map>
#include <utility>

#include "common/log.hh"
#include "fu/mem_fus.hh"

namespace rsn::lib {

const TensorInfo &
CompiledModel::tensor(const std::string &name) const
{
    for (const auto &t : tensors)
        if (t.name == name)
            return t;
    rsn_fatal("unknown tensor '%s'", name.c_str());
}

bool
CompiledModel::hasTensor(const std::string &name) const
{
    for (const auto &t : tensors)
        if (t.name == name)
            return true;
    return false;
}

namespace {

constexpr std::uint32_t kMmes = core::kNumMme;
constexpr std::uint8_t kAllMmes = (1u << kMmes) - 1;
/** Pipelined attention runs PV on MME l + kPv (core/config.hh). */
constexpr std::uint32_t kPv = kMmes / 2;
/** Scratchpad s serves attention lanes s, s + kSpads, ... */
constexpr std::uint32_t kSpads = core::kNumMemA;  // == kNumMemB

std::uint32_t
ceilDiv(std::uint32_t a, std::uint32_t b)
{
    return (a + b - 1) / b;
}

/**
 * The DDR uOP (LPDDR for U = isa::LpddrUop) that moves the @p rows x
 * @p cols block of @p t whose first element is (@p row0, @p col0); the
 * tensor's placement gives its address and row pitch. @p fu is the
 * on-chip end of the transfer: a load's destination, which
 * queueDdrStore() turns into a store's source.
 */
template <class U = isa::DdrUop>
U
block(const TensorInfo &t, std::uint64_t row0, std::uint64_t col0,
      std::uint32_t rows, std::uint32_t cols, FuId fu,
      Dtype dtype = Dtype::F32)
{
    return {.addr = t.addr + (row0 * t.cols + col0) * sizeof(float),
            .dest = fu, .rows = rows, .cols = cols, .pitch = t.cols,
            .dtype = dtype};
}

/** Byte span a DDR block uOP touches (bounding range). */
std::pair<Addr, Addr>
blockSpan(const isa::DdrUop &u)
{
    Addr end = u.addr +
               (Addr(u.rows ? u.rows - 1 : 0) * u.pitch + u.cols) *
                   sizeof(float);
    return {u.addr, end};
}

bool
spansOverlap(std::pair<Addr, Addr> a, std::pair<Addr, Addr> b)
{
    return a.first < b.second && b.first < a.second;
}

/** @{ A ping-pong scratchpad's load+drain uOP: the load-side uOP with
 *  the drain side's output flags. */
template <class U>
U
loadAndDrain(U u, const U &drain)
{
    u.send = drain.send;
    return u;
}

isa::MemCUop
loadAndDrain(isa::MemCUop u, const isa::MemCUop &drain)
{
    u.store = drain.store;
    u.send_mme = drain.send_mme;
    u.send_dest = drain.send_dest;
    return u;
}
/** @} */

/**
 * How an attention block's heads spread over its lanes. Head h runs on
 * lane h % lanes. Lane l's first matmul runs on MME l, fed through the
 * meshes by MemA and MemB l % kSpads; a pipelined lane runs its second
 * matmul on MME l + kPv, fed the probabilities by MemC l and V by MemB
 * l. Both attention generators take their lane masks, head blocks and
 * mesh routes from here.
 */
struct LanePlan {
    const AttentionBlock &a;
    std::uint32_t lanes;
    Dtype act;  ///< Q/K/V, score and context tiles' dtype.

    /** Heads lane @p l runs (0 past the last lane). */
    std::uint32_t
    heads(std::uint32_t l) const
    {
        return l < lanes ? a.heads / lanes + (l < a.heads % lanes) : 0;
    }

    /** Lane masks grouped by the number of heads their lanes run. */
    std::map<std::uint32_t, std::uint8_t>
    groups() const
    {
        std::map<std::uint32_t, std::uint8_t> g;
        for (std::uint32_t l = 0; l < lanes; ++l)
            g[heads(l)] |= std::uint8_t(1u << l);
        return g;
    }

    /** Head @p h's seq x dhead block of @p t, whose heads sit side by
     *  side from column @p col_off, moving to or from @p fu. */
    isa::DdrUop
    head(const TensorInfo &t, std::uint32_t col_off, std::uint32_t h,
         FuId fu) const
    {
        return block(t, std::uint64_t(h / a.heads_per_batch) * a.seq,
                     col_off + std::uint64_t(h % a.heads_per_batch) *
                                   a.dhead,
                     a.seq, a.dhead, fu, act);
    }

    /** The MeshA and MeshB routes of lanes [0, @p upto), grouped by
     *  source scratchpad. */
    std::pair<isa::MeshUop, isa::MeshUop>
    meshes(std::uint32_t upto, std::uint32_t repeats, bool pipelined) const
    {
        isa::MeshUop ma{.repeats = repeats, .mode = isa::MeshMode::Parallel,
                        .routes = {}};
        isa::MeshUop mb = ma;
        for (std::uint32_t s = 0; s < kSpads; ++s) {
            for (std::uint32_t l = s; l < upto; l += kSpads) {
                ma.routes.push_back({memA(s), mme(l)});  // Q / probs
                mb.routes.push_back({memB(s), mme(l)});  // K^T / V
                if (pipelined) {
                    ma.routes.push_back({memC(l), mme(kPv + l)});  // probs
                    mb.routes.push_back({memB(l), mme(kPv + l)});  // V
                }
            }
        }
        return {ma, mb};
    }
};

class ProgramBuilder
{
  public:
    ProgramBuilder(core::RsnMachine &machine, ScheduleOptions opts)
        : mach_(machine), opts_(opts)
    {
        rsn_assert(opts.store_split >= 1, "store_split must be >= 1");
    }

    CompiledModel compile(const Model &model);

  private:
    struct Entry {
        FuType op;
        std::uint8_t mask;
        isa::Uop uop;
    };

    /** A uOP sequence destined for the FU instances in @c mask. */
    struct UopStream {
        std::uint8_t mask;
        std::vector<isa::Uop> uops;
    };

    /** @{ Raw-stream emission. */
    void emit(FuType op, std::uint8_t mask, isa::Uop u);
    void emitDdrLoad(isa::DdrUop u, std::uint32_t drain);
    void queueDdrStore(isa::DdrUop u);
    void drainStores(std::size_t n);
    void flushStores() { drainStores(pending_stores_.size()); }
    /** @} */

    /** @{ Tensor table. */
    TensorInfo declareTensor(const std::string &name, std::uint32_t rows,
                             std::uint32_t cols, bool weight);
    TensorInfo tensor(const std::string &name) const;
    /** @} */

    /** @{ Per-segment generators. */
    void genLinear(const LinearLayer &l);
    void genAttention(const AttentionBlock &a);
    void genAttentionPipelined(const LanePlan &p);
    void genAttentionSequential(const LanePlan &p);
    /** @} */

    /**
     * The prolog / steady / epilog uOP stream of a ping-pong scratchpad
     * processing @p chunks chunks: with double buffering [load]
     * [load+drain] x (chunks - 1) [drain]; without it, [load][drain] per
     * chunk. Chunk c loads with loads[c % loads.size()] (MemB's K^T / V
     * alternation).
     */
    template <class U>
    UopStream
    pingPong(std::uint8_t mask, std::initializer_list<U> loads,
             const U &drain, std::uint64_t chunks) const
    {
        UopStream s{mask, {}};
        auto load = [&](std::uint64_t c) {
            return loads.begin()[c % loads.size()];
        };
        if (opts_.double_buffer && chunks > 1) {
            s.uops.push_back(load(0));
            for (std::uint64_t c = 1; c < chunks; ++c)
                s.uops.push_back(loadAndDrain(load(c), drain));
            s.uops.push_back(drain);
        } else {
            for (std::uint64_t c = 0; c < chunks; ++c) {
                s.uops.push_back(load(c));
                s.uops.push_back(drain);
            }
        }
        return s;
    }

    /**
     * Emit several same-FU-type streams round-robin in blocks that stay
     * below the per-FU uOP FIFO depth: delivering one group's whole
     * stream before the next would fill the first group's queues, stall
     * the shared second-level decoder, and starve the sibling FUs — the
     * deadlock scenario of Sec. 3.3.
     */
    void emitInterleaved(FuType op, std::vector<UopStream> streams);

    /** Emit the attention meshes: one Parallel uOP per mesh covers every
     *  lane; the lanes with an extra head get one more pass. */
    void emitMeshes(const LanePlan &p, bool pipelined);

    /** Pack the raw stream into packets with window/reuse compression. */
    isa::RsnProgram pack() const;

    /** Mark the start of a segment's entries. */
    void beginSegment() { segment_start_ = entries_.size(); }

    /**
     * Reorder the just-generated segment so control and data-movement
     * entries interleave in bounded per-type blocks. Fetching a long run
     * of one FU type's packets while another type's data supplier has no
     * instructions yet is exactly the fetch-stall deadlock of Sec. 3.3;
     * interleaving in program order keeps every type's FIFO fed. Within
     * one FU type the entry order is preserved.
     */
    void endSegment();

    core::RsnMachine &mach_;
    ScheduleOptions opts_;
    std::vector<Entry> entries_;
    std::deque<isa::DdrUop> pending_stores_;
    /** Store pieces held back until their producing tile has computed. */
    std::size_t store_lag_ = 0;
    std::vector<TensorInfo> tensors_;
    std::uint64_t mm_flops_ = 0;
    std::size_t segment_start_ = 0;
};

void
ProgramBuilder::emit(FuType op, std::uint8_t mask, isa::Uop u)
{
    rsn_assert(mask != 0, "empty mask");
    rsn_assert(isa::uopMatchesFuType(u, op), "uop/op mismatch");
    entries_.push_back(Entry{op, mask, std::move(u)});
}

void
ProgramBuilder::emitDdrLoad(isa::DdrUop u, std::uint32_t drain)
{
    u.load = true;
    u.store = false;
    // True data dependencies override overlap: any pending store whose
    // range intersects this load must land first (DDR executes in
    // program order, so ordering the uOPs is sufficient). Queue order is
    // preserved, so everything up to the last conflicting piece drains.
    auto load_span = blockSpan(u);
    std::size_t drain_to = 0;
    for (std::size_t i = 0; i < pending_stores_.size(); ++i)
        if (spansOverlap(load_span, blockSpan(pending_stores_[i])))
            drain_to = i + 1;
    drainStores(drain_to);
    emit(FuType::Ddr, 1, u);
    // Drain queued store pieces into this load's gap (Sec. 4.4) — but
    // keep `store_lag_` pieces pending: a tile's results only exist once
    // its compute finishes, one tile behind the load front. Draining too
    // eagerly would block the in-order DDR FU on data that is not ready
    // yet and serialize the pipeline.
    if (opts_.interleave_load_store && pending_stores_.size() > store_lag_)
        drainStores(std::min<std::size_t>(
            drain, pending_stores_.size() - store_lag_));
}

void
ProgramBuilder::queueDdrStore(isa::DdrUop u)
{
    u.load = false;
    u.store = true;
    u.src = std::exchange(u.dest, kNoFu);  // the block's on-chip end
    if (opts_.interleave_load_store)
        pending_stores_.push_back(std::move(u));
    else
        emit(FuType::Ddr, 1, std::move(u));
}

/** Emit the oldest @p n queued store pieces. */
void
ProgramBuilder::drainStores(std::size_t n)
{
    for (; n > 0; --n) {
        emit(FuType::Ddr, 1, pending_stores_.front());
        pending_stores_.pop_front();
    }
}

TensorInfo
ProgramBuilder::declareTensor(const std::string &name, std::uint32_t rows,
                              std::uint32_t cols, bool weight)
{
    for (auto &t : tensors_) {
        if (t.name == name) {
            rsn_assert(t.rows == rows && t.cols == cols,
                       "tensor '%s' redeclared with new shape",
                       name.c_str());
            return t;
        }
    }
    TensorInfo t;
    t.name = name;
    t.rows = rows;
    t.cols = cols;
    t.is_weight = weight;
    t.addr = mach_.host().alloc(std::uint64_t(rows) * cols, name);
    tensors_.push_back(t);
    return t;
}

TensorInfo
ProgramBuilder::tensor(const std::string &name) const
{
    for (const auto &t : tensors_)
        if (t.name == name)
            return t;
    rsn_fatal("tensor '%s' used before declaration", name.c_str());
}

void
ProgramBuilder::emitInterleaved(FuType op, std::vector<UopStream> streams)
{
    const std::size_t block = std::max<std::size_t>(
        1, std::min<std::size_t>(4, mach_.config().uop_fifo_depth - 1));
    std::vector<std::size_t> pos(streams.size(), 0);
    bool more = true;
    while (more) {
        more = false;
        for (std::size_t s = 0; s < streams.size(); ++s) {
            std::size_t n = std::min(block,
                                     streams[s].uops.size() - pos[s]);
            for (std::size_t i = 0; i < n; ++i)
                emit(op, streams[s].mask, streams[s].uops[pos[s] + i]);
            pos[s] += n;
            if (pos[s] < streams[s].uops.size())
                more = true;
        }
    }
}

void
ProgramBuilder::emitMeshes(const LanePlan &p, bool pipelined)
{
    auto emit_pair = [&](std::uint32_t upto, std::uint32_t repeats) {
        auto [ma, mb] = p.meshes(upto, repeats, pipelined);
        emit(FuType::MeshA, 1, std::move(ma));
        emit(FuType::MeshB, 1, std::move(mb));
    };
    emit_pair(p.lanes, p.a.heads / p.lanes);
    if (p.a.heads % p.lanes > 0)
        emit_pair(p.a.heads % p.lanes, 1);
}

void
ProgramBuilder::endSegment()
{
    // Partition the segment's entries per FU type (order preserved).
    std::array<std::vector<Entry>, kNumFuTypes> lanes;
    for (std::size_t i = segment_start_; i < entries_.size(); ++i)
        lanes[static_cast<int>(entries_[i].op)].push_back(
            std::move(entries_[i]));
    entries_.resize(segment_start_);

    // MME and mesh control is a handful of long-running uOPs (reps /
    // repeats cover the whole segment): they must reach their FUs before
    // any data flows, so they lead the segment.
    for (FuType t : {FuType::Mme, FuType::MeshA, FuType::MeshB}) {
        auto &lane = lanes[static_cast<int>(t)];
        for (auto &e : lane)
            entries_.push_back(std::move(e));
        lane.clear();
    }

    // Pace every other type's stream proportionally so control uOPs
    // arrive in lockstep with the data movement they direct. Instruction
    // consumption is data-paced: emitting one type's stream faster than
    // its data flows would pile unconsumed packets into its FIFO and
    // eventually stall the shared fetch unit ahead of the DDR packets the
    // whole pipeline depends on.
    auto cap_for = [&](FuType t) -> std::size_t {
        return (t == FuType::Ddr || t == FuType::Lpddr) ? 8 : 4;
    };
    std::size_t rounds = 1;
    for (int t = 0; t < kNumFuTypes; ++t) {
        std::size_t need = (lanes[t].size() + cap_for(FuType(t)) - 1) /
                           cap_for(FuType(t));
        rounds = std::max(rounds, need);
    }
    // Bresenham pacing: after round r, exactly floor((r+1) * len / rounds)
    // entries of each type have been emitted, so no stream runs ahead of
    // the others by more than one entry per round.
    std::array<std::size_t, kNumFuTypes> pos{};
    for (std::size_t r = 0; r < rounds; ++r) {
        for (int t = 0; t < kNumFuTypes; ++t) {
            auto &lane = lanes[t];
            std::size_t target = (r + 1) * lane.size() / rounds;
            while (pos[t] < target)
                entries_.push_back(std::move(lane[pos[t]++]));
        }
    }
    for (int t = 0; t < kNumFuTypes; ++t)
        rsn_assert(pos[t] == lanes[t].size(), "pacing left entries behind");
}

// -------------------------------------------------------------- Linear --

void
ProgramBuilder::genLinear(const LinearLayer &l)
{
    // Precision policy (core/config.hh): weights and activations may be
    // typed; bias and LN gamma/beta always load as FP32. Host tensors
    // stay FP32 truth — the DDR/LPDDR FUs convert at the boundary.
    const Dtype act = mach_.config().precision.linear_activations;
    const Dtype wgt = mach_.config().precision.linear_weights;

    const TensorInfo in_t = tensor(l.in_src.empty() ? "input" : l.in_src);
    rsn_assert(in_t.rows >= l.m && in_t.cols == l.k,
               "linear '%s': input shape mismatch", l.name.c_str());
    const TensorInfo w_t = declareTensor("W." + l.name, l.k, l.n, true);
    TensorInfo b_t, ln_t, res_t;
    if (l.bias)
        b_t = declareTensor("b." + l.name, 1, l.n, true);
    if (l.layernorm)
        ln_t = declareTensor("ln." + l.name, 2, l.n, true);
    if (l.residual) {
        res_t = tensor(l.residual_src);
        rsn_assert(res_t.rows >= l.m && res_t.cols == l.n,
                   "linear '%s': residual shape mismatch", l.name.c_str());
    }
    const TensorInfo out_t = declareTensor(l.out_name, l.m, l.n, false);

    const std::uint32_t TM = std::min(opts_.out_tile_m, l.m);
    const std::uint32_t TN = std::min(opts_.out_tile_n, l.n);
    const std::uint32_t KS = std::min(opts_.k_step, l.k);
    rsn_assert(TM >= kMmes, "linear '%s': m too small for the M-split",
               l.name.c_str());
    if (l.layernorm)
        rsn_assert(TN == l.n, "LayerNorm needs full-width output tiles");

    const std::uint32_t k_steps = ceilDiv(l.k, KS);
    const std::uint32_t tiles = ceilDiv(l.m, TM) * ceilDiv(l.n, TN);
    mm_flops_ += 2ull * l.m * l.k * l.n;

    // --- Control plane for the on-chip FUs (few compressed packets). ---
    emit(FuType::Mme, kAllMmes,
         isa::MmeUop{.reps = tiles, .k_steps = k_steps, .tile_m = TM,
                     .tile_k = KS, .tile_n = TN, .add_bias = l.bias,
                     .out_dtype = act});

    const std::uint64_t lhs_chunks = std::uint64_t(tiles) * k_steps;
    emitInterleaved(
        FuType::MemA,
        {pingPong(1,
                  {isa::MemAUop{.rows = TM, .cols = KS, .slices = kMmes,
                                .src = kDdr, .load = true}},
                  {.rows = TM, .cols = KS, .slices = kMmes, .send = true},
                  lhs_chunks)});
    const std::uint64_t rhs_chunks =
        std::uint64_t(tiles) * (k_steps + (l.bias ? 1 : 0));
    emitInterleaved(
        FuType::MemB,
        {pingPong(1,
                  {isa::MemBUop{.rows = KS, .cols = TN, .src = kLpddr,
                                .load = true}},
                  {.rows = KS, .cols = TN, .send = true}, rhs_chunks)});
    emitInterleaved(
        FuType::MemC,
        {pingPong(kAllMmes,
                  {isa::MemCUop{.rows = TM / kMmes, .cols = TN,
                                .send_chunks = opts_.store_split,
                                .recv = true, .gelu = l.gelu,
                                .layernorm = l.layernorm,
                                .scale_shift = l.layernorm,
                                .add_residual = l.residual,
                                .out_dtype = act}},
                  {.rows = TM / kMmes, .cols = TN,
                   .send_chunks = opts_.store_split, .store = true,
                   .out_dtype = act},
                  tiles)});

    isa::MeshUop ma{.repeats = static_cast<std::uint32_t>(lhs_chunks),
                    .mode = isa::MeshMode::Distribute, .routes = {}};
    isa::MeshUop mb{.repeats = static_cast<std::uint32_t>(rhs_chunks),
                    .mode = isa::MeshMode::Broadcast, .routes = {}};
    for (std::uint32_t i = 0; i < kMmes; ++i) {
        ma.routes.push_back({memA(0), mme(i)});
        mb.routes.push_back({memB(0), mme(i)});
    }
    emit(FuType::MeshA, 1, ma);
    emit(FuType::MeshB, 1, mb);

    // --- Off-chip movement: the fine-grained DDR/LPDDR order. ---
    const std::uint32_t pieces_per_tile = kMmes * opts_.store_split;
    const std::uint32_t loads_per_tile = k_steps + (l.residual ? kMmes : 0);
    const std::uint32_t drain = std::max<std::uint32_t>(
        1, ceilDiv(pieces_per_tile, loads_per_tile));
    store_lag_ = pieces_per_tile;
    // Bias and LN gamma/beta rows: FP32 vectors on the LPDDR channel.
    auto load_params = [&](const TensorInfo &t, std::uint32_t n0,
                           std::uint32_t tn, FuId fu) {
        auto u = block<isa::LpddrUop>(t, 0, n0, t.rows, tn, fu);
        u.load_bias = true;
        emit(FuType::Lpddr, 1, u);
    };

    for (std::uint32_t n0 = 0; n0 < l.n; n0 += TN) {
        const std::uint32_t tn = std::min(TN, l.n - n0);
        for (std::uint32_t m0 = 0; m0 < l.m; m0 += TM) {
            const std::uint32_t tm = std::min(TM, l.m - m0);
            if (l.bias)
                load_params(b_t, n0, tn, memB(0));
            for (std::uint32_t k0 = 0; k0 < l.k; k0 += KS) {
                const std::uint32_t kk = std::min(KS, l.k - k0);
                emit(FuType::Lpddr, 1,
                     block<isa::LpddrUop>(w_t, k0, n0, kk, tn, memB(0),
                                          wgt));
                emitDdrLoad(block(in_t, m0, k0, tm, kk, memA(0), act),
                            drain);
            }
            const auto slices = fu::sliceRows(tm, kMmes);
            for (std::uint32_t i = 0; l.residual && i < kMmes; ++i)
                emitDdrLoad(block(res_t, m0 + slices[i].first, n0,
                                  slices[i].second, tn, memC(i), act),
                            drain);
            for (std::uint32_t i = 0; l.layernorm && i < kMmes; ++i)
                load_params(ln_t, n0, tn, memC(i));
            // Stores take their byte count from the arriving chunk; the
            // dtype is stamped for stride-merge uniformity and tracing.
            for (std::uint32_t i = 0; i < kMmes; ++i)
                for (const auto &[off, rows] :
                     fu::sliceRows(slices[i].second, opts_.store_split))
                    queueDdrStore(block(out_t, m0 + slices[i].first + off,
                                        n0, rows, tn, memC(i), act));
        }
    }
}

// ----------------------------------------------------------- Attention --

void
ProgramBuilder::genAttention(const AttentionBlock &a)
{
    mm_flops_ += 4ull * a.heads * a.seq * a.dhead * a.seq;
    const Dtype act = mach_.config().precision.attention_activations;
    if (opts_.pipeline_attention)
        genAttentionPipelined({a, std::min(kPv, a.heads), act});
    else
        genAttentionSequential({a, std::min(kMmes, a.heads), act});
}

void
ProgramBuilder::genAttentionPipelined(const LanePlan &p)
{
    const AttentionBlock &a = p.a;
    const std::uint32_t S = a.seq;
    const std::uint32_t D = a.dhead;
    const TensorInfo q_t = tensor(a.q_src);
    const TensorInfo k_t = tensor(a.k_src);
    const TensorInfo v_t = tensor(a.v_src);
    const TensorInfo out_t =
        declareTensor(a.out_name, a.heads / a.heads_per_batch * S,
                      a.heads_per_batch * D, false);

    // Control per group of lanes with equal head counts. Streams for one
    // FU type are emitted interleaved so no sibling FU starves behind a
    // full uOP FIFO (Sec. 3.3).
    std::vector<UopStream> mema, memb, memc;
    for (const auto &[count, mask] : p.groups()) {
        const auto pv_mask = std::uint8_t(mask << kPv);
        emit(FuType::Mme, mask,
             isa::MmeUop{.reps = count, .tile_m = S, .tile_k = D,
                         .tile_n = S, .out_dtype = p.act});
        emit(FuType::Mme, pv_mask,
             isa::MmeUop{.reps = count, .tile_m = S, .tile_k = S,
                         .tile_n = D, .out_dtype = p.act});
        // MemA: one Q tile per head.
        mema.push_back(pingPong(
            mask,
            {isa::MemAUop{.rows = S, .cols = D, .src = kDdr, .load = true}},
            {.rows = S, .cols = D, .send = true}, count));
        // MemB: K (transposed) then V per head.
        memb.push_back(pingPong(
            mask,
            {isa::MemBUop{.rows = S, .cols = D, .src = kDdr, .load = true,
                          .transpose = true},
             isa::MemBUop{.rows = S, .cols = D, .src = kDdr, .load = true}},
            {.rows = S, .cols = D, .send = true}, 2ull * count));
        // MemC of the QK^T MMEs: softmax, re-injected through MeshA.
        memc.push_back(pingPong(
            mask,
            {isa::MemCUop{.rows = S, .cols = S, .recv = true,
                          .softmax = true, .out_dtype = p.act}},
            {.rows = S, .cols = S, .send_mme = true, .send_dest = kMeshA,
             .out_dtype = p.act},
            count));
        // MemC of the PV MMEs: context tiles draining to DDR.
        memc.push_back(pingPong(
            pv_mask,
            {isa::MemCUop{.rows = S, .cols = D, .recv = true,
                          .out_dtype = p.act}},
            {.rows = S, .cols = D, .store = true, .out_dtype = p.act},
            count));
    }
    emitInterleaved(FuType::MemA, std::move(mema));
    emitInterleaved(FuType::MemB, std::move(memb));
    emitInterleaved(FuType::MemC, std::move(memc));
    emitMeshes(p, true);

    // Off-chip movement per head, in head order. Context stores lag the
    // load front by a pipeline depth of two heads per lane.
    store_lag_ = 2 * p.lanes;
    for (std::uint32_t h = 0; h < a.heads; ++h) {
        const std::uint32_t lane = h % p.lanes;
        emitDdrLoad(p.head(q_t, a.q_col_off, h, memA(lane)), 1);
        emitDdrLoad(p.head(k_t, a.k_col_off, h, memB(lane)), 1);
        emitDdrLoad(p.head(v_t, a.v_col_off, h, memB(lane)), 1);
        queueDdrStore(p.head(out_t, 0, h, memC(kPv + lane)));
    }
}

void
ProgramBuilder::genAttentionSequential(const LanePlan &p)
{
    const AttentionBlock &a = p.a;
    const std::uint32_t S = a.seq;
    const std::uint32_t D = a.dhead;
    const std::uint32_t score_split = 4;
    const TensorInfo q_t = tensor(a.q_src);
    const TensorInfo k_t = tensor(a.k_src);
    const TensorInfo v_t = tensor(a.v_src);
    const TensorInfo sc_t =
        declareTensor("scores." + a.name, a.heads * S, S, false);
    const TensorInfo out_t =
        declareTensor(a.out_name, a.heads / a.heads_per_batch * S,
                      a.heads_per_batch * D, false);

    // Pass 1: scores = Q K^T, softmax, spilled to DDR. Pass 2: ctx = P V.
    auto gen_pass = [&](bool first) {
        const std::uint32_t k_dim = first ? D : S;  // MemA tile cols
        const std::uint32_t n_dim = first ? S : D;  // MemC tile cols
        const std::uint32_t split = first ? score_split : 1;
        std::vector<UopStream> mema, memb, memc;
        for (const auto &[count, mask] : p.groups()) {
            emit(FuType::Mme, mask,
                 isa::MmeUop{.reps = count, .tile_m = S, .tile_k = k_dim,
                             .tile_n = n_dim, .out_dtype = p.act});
            memc.push_back(pingPong(
                mask,
                {isa::MemCUop{.rows = S, .cols = n_dim,
                              .send_chunks = split, .recv = true,
                              .softmax = first, .out_dtype = p.act}},
                {.rows = S, .cols = n_dim, .send_chunks = split,
                 .store = true, .out_dtype = p.act},
                count));
        }
        // MemA/MemB chunk counts per scratchpad; an idle one gets none.
        // MemA's send-only uOP keeps src = kDdr.
        for (std::uint32_t s = 0; s < kSpads; ++s) {
            const std::uint32_t cnt = p.heads(s) + p.heads(s + kSpads);
            if (cnt == 0)
                continue;
            const auto mask = std::uint8_t(1u << s);
            mema.push_back(pingPong(
                mask,
                {isa::MemAUop{.rows = S, .cols = k_dim, .src = kDdr,
                              .load = true}},
                {.rows = S, .cols = k_dim, .src = kDdr, .send = true},
                cnt));
            memb.push_back(pingPong(
                mask,
                {isa::MemBUop{.rows = S, .cols = D, .src = kDdr,
                              .load = true, .transpose = first}},
                {.rows = S, .cols = D, .send = true}, cnt));
        }
        emitInterleaved(FuType::MemA, std::move(mema));
        emitInterleaved(FuType::MemB, std::move(memb));
        emitInterleaved(FuType::MemC, std::move(memc));
        emitMeshes(p, false);

        // DDR traffic in head order.
        store_lag_ = p.lanes * split;
        for (std::uint32_t h = 0; h < a.heads; ++h) {
            const std::uint32_t lane = h % p.lanes;
            const FuId lhs = memA(lane % kSpads);
            const FuId rhs = memB(lane % kSpads);
            const std::uint64_t score_row = std::uint64_t(h) * S;
            if (first) {
                emitDdrLoad(p.head(q_t, a.q_col_off, h, lhs), 2);
                emitDdrLoad(p.head(k_t, a.k_col_off, h, rhs), 2);
                for (const auto &[off, rows] : fu::sliceRows(S, split))
                    queueDdrStore(block(sc_t, score_row + off, 0, rows, S,
                                        memC(lane), p.act));
            } else {
                emitDdrLoad(block(sc_t, score_row, 0, S, S, lhs, p.act), 1);
                emitDdrLoad(p.head(v_t, a.v_col_off, h, rhs), 1);
                queueDdrStore(p.head(out_t, 0, h, memC(lane)));
            }
        }
    };

    gen_pass(true);
    // All score tiles must land in DDR before the second pass reads them.
    flushStores();
    // The two passes have different control/data ratios; pace each one
    // separately.
    endSegment();
    beginSegment();
    gen_pass(false);
}

// ---------------------------------------------------------------- Pack --

isa::RsnProgram
ProgramBuilder::pack() const
{
    // Stride-merge pre-pass over the raw stream: runs of single-block
    // DDR/LPDDR uOPs whose addresses advance by a constant delta become
    // one strided mOP, which the second-level decoder unrolls back
    // (Sec. 3.3's "stride size and stride count" customization). This
    // is where the off-chip FUs get their (modest) Fig. 9 compression.
    std::vector<Entry> merged;
    merged.reserve(entries_.size());
    for (const Entry &e : entries_) {
        if (!merged.empty() && merged.back().op == e.op &&
            merged.back().mask == e.mask) {
            isa::Uop &acc = merged.back().uop;
            if (e.op == FuType::Ddr &&
                isa::mergeStride(std::get<isa::DdrUop>(acc),
                                 std::get<isa::DdrUop>(e.uop)))
                continue;
            if (e.op == FuType::Lpddr &&
                isa::mergeStride(std::get<isa::LpddrUop>(acc),
                                 std::get<isa::LpddrUop>(e.uop)))
                continue;
        }
        merged.push_back(e);
    }

    isa::RsnProgram prog;
    const std::size_t n = merged.size();
    std::size_t i = 0;

    auto same = [&](std::size_t x, std::size_t y) {
        return merged[x].op == merged[y].op &&
               merged[x].mask == merged[y].mask &&
               merged[x].uop == merged[y].uop;
    };

    while (i < n) {
        // Find the repeating window (period p, r repetitions) that covers
        // the most entries, bounded by the header's field widths.
        std::size_t best_p = 1, best_r = 1;
        const std::size_t max_p = std::min<std::size_t>(8, n - i);
        for (std::size_t p = 1; p <= max_p; ++p) {
            bool uniform = true;
            for (std::size_t j = 0; j < p && uniform; ++j)
                uniform = merged[i + j].op == merged[i].op &&
                          merged[i + j].mask == merged[i].mask;
            if (!uniform)
                break;
            std::size_t r = 1;
            while (r < isa::kMaxReuse && i + (r + 1) * p <= n) {
                bool match = true;
                for (std::size_t j = 0; j < p && match; ++j)
                    match = same(i + j, i + r * p + j);
                if (!match)
                    break;
                ++r;
            }
            if (r >= 2 && p * r > best_p * best_r) {
                best_p = p;
                best_r = r;
            }
        }

        isa::RsnPacket pkt;
        pkt.opcode = merged[i].op;
        pkt.mask = merged[i].mask;
        if (best_r >= 2) {
            pkt.reuse = static_cast<std::uint16_t>(best_r);
            for (std::size_t j = 0; j < best_p; ++j)
                pkt.mops.push_back(merged[i + j].uop);
            i += best_p * best_r;
        } else {
            // Non-repeating run: batch consecutive same-op/mask uops.
            pkt.reuse = 1;
            while (i < n && merged[i].op == pkt.opcode &&
                   merged[i].mask == pkt.mask &&
                   pkt.mops.size() < isa::kMaxWindow) {
                // Stop if a compressible repetition starts here.
                if (!pkt.mops.empty() && i + 1 < n && same(i, i + 1))
                    break;
                pkt.mops.push_back(merged[i].uop);
                ++i;
            }
        }
        prog.append(std::move(pkt));
    }

    std::array<int, kNumFuTypes> counts{};
    counts[static_cast<int>(FuType::Mme)] = core::kNumMme;
    counts[static_cast<int>(FuType::MemA)] = core::kNumMemA;
    counts[static_cast<int>(FuType::MemB)] = core::kNumMemB;
    counts[static_cast<int>(FuType::MemC)] = core::kNumMemC;
    counts[static_cast<int>(FuType::MeshA)] = 1;
    counts[static_cast<int>(FuType::MeshB)] = 1;
    counts[static_cast<int>(FuType::Ddr)] = 1;
    counts[static_cast<int>(FuType::Lpddr)] = 1;
    prog.appendHalts(counts);
    prog.validate();
    return prog;
}

CompiledModel
ProgramBuilder::compile(const Model &model)
{
    declareTensor("input", model.input_rows, model.input_cols, false);

    for (const auto &seg : model.segments) {
        beginSegment();
        if (const auto *l = std::get_if<LinearLayer>(&seg))
            genLinear(*l);
        else if (const auto *a = std::get_if<AttentionBlock>(&seg))
            genAttention(*a);
        if (!opts_.overlap_prolog_epilog)
            flushStores();
        endSegment();
    }
    beginSegment();
    flushStores();
    endSegment();

    CompiledModel out;
    out.program = pack();
    out.tensors = tensors_;
    out.mm_flops = mm_flops_;
    return out;
}

} // namespace

CompiledModel
compileModel(core::RsnMachine &machine, const Model &model,
             ScheduleOptions opts)
{
    return ProgramBuilder(machine, opts).compile(model);
}

} // namespace rsn::lib
