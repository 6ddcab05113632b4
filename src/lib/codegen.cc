#include "lib/codegen.hh"

#include <algorithm>
#include <array>
#include <map>

#include "common/log.hh"
#include "fu/mem_fus.hh"

namespace rsn::lib {

namespace {

std::uint32_t
ceilDiv(std::uint32_t a, std::uint32_t b)
{
    return (a + b - 1) / b;
}

} // namespace

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

ProgramBuilder::ProgramBuilder(core::RsnMachine &machine,
                               ScheduleOptions opts)
    : mach_(machine), opts_(opts)
{
    rsn_assert(opts.store_split >= 1, "store_split must be >= 1");
}

void
ProgramBuilder::emit(FuType op, std::uint8_t mask, isa::Uop u)
{
    rsn_assert(mask != 0, "empty mask");
    rsn_assert(isa::uopMatchesFuType(u, op), "uop/op mismatch");
    entries_.push_back(Entry{op, mask, std::move(u)});
}

namespace {

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

} // namespace

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
    for (std::size_t i = 0; i < drain_to; ++i) {
        emit(FuType::Ddr, 1, pending_stores_.front());
        pending_stores_.pop_front();
    }
    emit(FuType::Ddr, 1, u);
    if (!opts_.interleave_load_store)
        return;
    // Drain queued store pieces into this load's gap (Sec. 4.4) — but
    // keep `store_lag_` pieces pending: a tile's results only exist once
    // its compute finishes, one tile behind the load front. Draining too
    // eagerly would block the in-order DDR FU on data that is not ready
    // yet and serialize the pipeline.
    for (std::uint32_t i = 0;
         i < drain && pending_stores_.size() > store_lag_; ++i) {
        emit(FuType::Ddr, 1, pending_stores_.front());
        pending_stores_.pop_front();
    }
}

void
ProgramBuilder::queueDdrStore(isa::DdrUop u)
{
    u.load = false;
    u.store = true;
    if (opts_.interleave_load_store) {
        pending_stores_.push_back(std::move(u));
    } else {
        emit(FuType::Ddr, 1, std::move(u));
    }
}

void
ProgramBuilder::flushStores()
{
    while (!pending_stores_.empty()) {
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

std::vector<isa::Uop>
ProgramBuilder::buildPingPong(
    const std::function<isa::Uop(std::uint64_t)> &load_uop,
    const std::function<isa::Uop(std::uint64_t)> &both_uop,
    isa::Uop send_uop, std::uint64_t chunks) const
{
    std::vector<isa::Uop> out;
    if (chunks == 0)
        return out;
    if (opts_.double_buffer && chunks > 1) {
        out.push_back(load_uop(0));
        for (std::uint64_t i = 1; i < chunks; ++i)
            out.push_back(both_uop(i));
        out.push_back(send_uop);
    } else {
        for (std::uint64_t i = 0; i < chunks; ++i) {
            out.push_back(load_uop(i));
            out.push_back(send_uop);
        }
    }
    return out;
}

ProgramBuilder::UopStream
ProgramBuilder::pingPongStream(std::uint8_t mask, isa::Uop first,
                               isa::Uop both, isa::Uop second,
                               std::uint64_t chunks) const
{
    return UopStream{
        mask, buildPingPong([&](std::uint64_t) { return first; },
                            [&](std::uint64_t) { return both; },
                            std::move(second), chunks)};
}

void
ProgramBuilder::emitInterleaved(FuType op, std::vector<UopStream> streams,
                                std::size_t block)
{
    // Auto block size: stay below the per-FU uOP FIFO so one stream's
    // block never wedges the shared second-level decoder.
    if (block == 0)
        block = std::max<std::size_t>(
            1, std::min<std::size_t>(4,
                                     mach_.config().uop_fifo_depth - 1));
    rsn_assert(block < std::max<std::size_t>(
                   2, mach_.config().uop_fifo_depth),
               "interleave block must fit the uOP FIFO");
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
ProgramBuilder::beginSegment()
{
    segment_start_ = entries_.size();
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
    const auto &cfg = mach_.config();
    const int n_mme = core::kNumMme;
    // Precision policy (core/config.hh): weights and activations may be
    // typed; bias and LN gamma/beta always load as FP32. Host tensors
    // stay FP32 truth — the DDR/LPDDR FUs convert at the boundary.
    const Dtype act = cfg.precision.linear_activations;
    const Dtype wgt = cfg.precision.linear_weights;

    const TensorInfo in_t = tensor(l.in_src.empty() ? "input" : l.in_src);
    rsn_assert(in_t.rows >= l.m && in_t.cols == l.k,
               "linear '%s': input shape mismatch", l.name.c_str());
    const TensorInfo w_t = declareTensor("W." + l.name, l.k, l.n, true);
    TensorInfo b_t, ln_t, res_t;
    if (l.bias)
        b_t = declareTensor("b." + l.name, 1, l.n, true);
    if (l.layernorm)
        ln_t = declareTensor("ln." + l.name, 2, l.n, true);
    if (l.residual)
        res_t = tensor(l.residual_src);
    const TensorInfo out_t = declareTensor(l.out_name, l.m, l.n, false);

    const std::uint32_t TM = std::min(opts_.out_tile_m, l.m);
    const std::uint32_t TN = std::min(opts_.out_tile_n, l.n);
    const std::uint32_t KS = std::min(opts_.k_step, l.k);
    rsn_assert(TM >= std::uint32_t(n_mme),
               "linear '%s': m too small for the M-split", l.name.c_str());
    if (l.layernorm)
        rsn_assert(TN == l.n, "LayerNorm needs full-width output tiles");

    const std::uint32_t m_tiles = ceilDiv(l.m, TM);
    const std::uint32_t n_tiles = ceilDiv(l.n, TN);
    const std::uint32_t k_steps = ceilDiv(l.k, KS);
    const std::uint32_t tiles = m_tiles * n_tiles;

    mm_flops_ += 2ull * l.m * l.k * l.n;

    // --- Control plane for the on-chip FUs (few compressed packets). ---
    isa::MmeUop mu;
    mu.reps = tiles;
    mu.k_steps = k_steps;
    mu.tile_m = TM;
    mu.tile_k = KS;
    mu.tile_n = TN;
    mu.add_bias = l.bias;
    mu.accum_k = true;
    mu.out_dtype = act;
    emit(FuType::Mme, std::uint8_t((1u << n_mme) - 1), mu);

    const std::uint64_t lhs_chunks = std::uint64_t(tiles) * k_steps;
    isa::MemAUop al;
    al.rows = TM;
    al.cols = KS;
    al.slices = static_cast<std::uint8_t>(n_mme);
    al.src = kDdr;
    al.load = true;
    isa::MemAUop ab = al;
    ab.send = true;
    isa::MemAUop as;
    as.rows = TM;
    as.cols = KS;
    as.slices = al.slices;
    as.send = true;
    emitInterleaved(
        FuType::MemA,
        {UopStream{0x1, buildPingPong([&](std::uint64_t) {
                                          return isa::Uop{al};
                                      },
                                      [&](std::uint64_t) {
                                          return isa::Uop{ab};
                                      },
                                      isa::Uop{as}, lhs_chunks)}});

    const std::uint64_t rhs_chunks =
        std::uint64_t(tiles) * (k_steps + (l.bias ? 1 : 0));
    isa::MemBUop bl;
    bl.rows = KS;
    bl.cols = TN;
    bl.src = kLpddr;
    bl.load = true;
    isa::MemBUop bb = bl;
    bb.send = true;
    isa::MemBUop bs;
    bs.rows = KS;
    bs.cols = TN;
    bs.send = true;
    emitInterleaved(
        FuType::MemB,
        {UopStream{0x1, buildPingPong([&](std::uint64_t) {
                                          return isa::Uop{bl};
                                      },
                                      [&](std::uint64_t) {
                                          return isa::Uop{bb};
                                      },
                                      isa::Uop{bs}, rhs_chunks)}});

    isa::MeshUop ma;
    ma.repeats = static_cast<std::uint32_t>(lhs_chunks);
    ma.mode = isa::MeshMode::Distribute;
    for (int i = 0; i < n_mme; ++i)
        ma.routes.push_back({memA(0), mme(i)});
    emit(FuType::MeshA, 0x1, ma);

    isa::MeshUop mb;
    mb.repeats = static_cast<std::uint32_t>(rhs_chunks);
    mb.mode = isa::MeshMode::Broadcast;
    for (int i = 0; i < n_mme; ++i)
        mb.routes.push_back({memB(0), mme(i)});
    emit(FuType::MeshB, 0x1, mb);

    isa::MemCUop cr;
    cr.rows = TM / n_mme;
    cr.cols = TN;
    cr.recv_chunks = 1;
    cr.send_chunks = static_cast<std::uint16_t>(opts_.store_split);
    cr.recv = true;
    cr.gelu = l.gelu;
    cr.layernorm = l.layernorm;
    cr.scale_shift = l.layernorm;
    cr.add_residual = l.residual;
    cr.out_dtype = act;
    isa::MemCUop cb = cr;
    cb.store = true;
    isa::MemCUop cs = cb;
    cs.recv = false;
    cs.gelu = false;
    cs.layernorm = false;
    cs.scale_shift = false;
    cs.add_residual = false;
    emitInterleaved(FuType::MemC,
                    {pingPongStream(std::uint8_t((1u << n_mme) - 1), cr,
                                    cb, cs, tiles)});

    // --- Off-chip movement: the fine-grained DDR/LPDDR order. ---
    const std::uint32_t pieces_per_tile = n_mme * opts_.store_split;
    const std::uint32_t loads_per_tile =
        k_steps + (l.residual ? n_mme : 0);
    const std::uint32_t drain =
        std::max<std::uint32_t>(1, ceilDiv(pieces_per_tile,
                                           loads_per_tile));
    store_lag_ = pieces_per_tile;

    for (std::uint32_t nt = 0; nt < n_tiles; ++nt) {
        const std::uint32_t n0 = nt * TN;
        const std::uint32_t tn = std::min(TN, l.n - n0);
        for (std::uint32_t mt = 0; mt < m_tiles; ++mt) {
            const std::uint32_t m0 = mt * TM;
            const std::uint32_t tm = std::min(TM, l.m - m0);

            if (l.bias) {
                isa::LpddrUop lb;
                lb.addr = b_t.addr + Addr(n0) * sizeof(float);
                lb.rows = 1;
                lb.cols = tn;
                lb.pitch = l.n;
                lb.dest = memB(0);
                lb.load_bias = true;
                emit(FuType::Lpddr, 0x1, lb);
            }
            for (std::uint32_t ks = 0; ks < k_steps; ++ks) {
                const std::uint32_t k0 = ks * KS;
                const std::uint32_t kk = std::min(KS, l.k - k0);

                isa::LpddrUop lw;
                lw.addr = w_t.addr +
                          (Addr(k0) * l.n + n0) * sizeof(float);
                lw.rows = kk;
                lw.cols = tn;
                lw.pitch = l.n;
                lw.dest = memB(0);
                lw.dtype = wgt;
                emit(FuType::Lpddr, 0x1, lw);

                isa::DdrUop dl;
                dl.addr = in_t.addr +
                          (Addr(m0) * l.k + k0) * sizeof(float);
                dl.rows = tm;
                dl.cols = kk;
                dl.pitch = l.k;
                dl.dest = memA(0);
                dl.dtype = act;
                emitDdrLoad(dl, drain);
            }

            auto slices = fu::sliceRows(tm, n_mme);
            if (l.residual) {
                for (int i = 0; i < n_mme; ++i) {
                    isa::DdrUop dr;
                    dr.addr = res_t.addr +
                              (Addr(m0 + slices[i].first) * l.n + n0) *
                                  sizeof(float);
                    dr.rows = slices[i].second;
                    dr.cols = tn;
                    dr.pitch = l.n;
                    dr.dest = memC(i);
                    dr.dtype = act;
                    emitDdrLoad(dr, drain);
                }
            }
            if (l.layernorm) {
                for (int i = 0; i < n_mme; ++i) {
                    isa::LpddrUop lp;
                    lp.addr = ln_t.addr + Addr(n0) * sizeof(float);
                    lp.rows = 2;
                    lp.cols = tn;
                    lp.pitch = l.n;
                    lp.dest = memC(i);
                    lp.load_bias = true;
                    emit(FuType::Lpddr, 0x1, lp);
                }
            }

            for (int i = 0; i < n_mme; ++i) {
                auto pieces =
                    fu::sliceRows(slices[i].second, opts_.store_split);
                for (const auto &[poff, prows] : pieces) {
                    isa::DdrUop ds;
                    ds.addr =
                        out_t.addr +
                        (Addr(m0 + slices[i].first + poff) * l.n + n0) *
                            sizeof(float);
                    ds.rows = prows;
                    ds.cols = tn;
                    ds.pitch = l.n;
                    ds.src = memC(i);
                    // Stores take their byte count from the arriving
                    // chunk; the tag is stamped for stride-merge
                    // uniformity and tracing.
                    ds.dtype = act;
                    queueDdrStore(ds);
                }
            }
        }
    }
}

// ----------------------------------------------------------- Attention --

void
ProgramBuilder::genAttention(const AttentionBlock &a)
{
    mm_flops_ += 4ull * a.heads * a.seq * a.dhead * a.seq;
    if (opts_.pipeline_attention)
        genAttentionPipelined(a);
    else
        genAttentionSequential(a);
}

namespace {

/** Heads handled by lane l when @p heads round-robin over @p lanes. */
std::uint32_t
laneCount(std::uint32_t heads, std::uint32_t lanes, std::uint32_t l)
{
    if (l >= lanes)
        return 0;
    return heads / lanes + (l < heads % lanes ? 1 : 0);
}

/** Lane masks grouped by identical head counts. */
std::map<std::uint32_t, std::uint8_t>
lanesByCount(std::uint32_t heads, std::uint32_t lanes)
{
    std::map<std::uint32_t, std::uint8_t> groups;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        std::uint32_t c = laneCount(heads, lanes, l);
        if (c > 0)
            groups[c] |= std::uint8_t(1u << l);
    }
    return groups;
}

} // namespace

void
ProgramBuilder::genAttentionPipelined(const AttentionBlock &a)
{
    const std::uint32_t S = a.seq;
    const std::uint32_t D = a.dhead;
    const std::uint32_t H = a.heads;
    // Lane l runs QK^T on MME l and PV on MME l + pv, each feeding its
    // partner MemC; one lane per MemA/MemB pair (core/config.hh).
    const std::uint32_t pv = core::kNumMme / 2;
    const std::uint32_t lanes = std::min<std::uint32_t>(pv, H);
    const std::uint32_t batch = H / a.heads_per_batch;

    const TensorInfo q_t = tensor(a.q_src);
    const TensorInfo k_t = tensor(a.k_src);
    const TensorInfo v_t = tensor(a.v_src);
    const TensorInfo out_t = declareTensor(
        a.out_name, batch * S, a.heads_per_batch * D, false);
    // Q/K/V, score and context tiles all carry the attention
    // activation dtype; softmax itself runs in FP32 inside MemC.
    const Dtype act = mach_.config().precision.attention_activations;

    // MME and MemC control, per group of lanes with equal head counts.
    // Streams for one FU type are emitted interleaved so no sibling FU
    // starves behind a full uOP FIFO (Sec. 3.3).
    std::vector<UopStream> mema_streams, memb_streams, memc_streams;
    for (const auto &[count, mask] : lanesByCount(H, lanes)) {
        isa::MmeUop m1;
        m1.reps = static_cast<std::uint16_t>(count);
        m1.k_steps = 1;
        m1.tile_m = S;
        m1.tile_k = D;
        m1.tile_n = S;
        m1.out_dtype = act;
        emit(FuType::Mme, mask, m1);

        isa::MmeUop m2;
        m2.reps = static_cast<std::uint16_t>(count);
        m2.k_steps = 1;
        m2.tile_m = S;
        m2.tile_k = S;
        m2.tile_n = D;
        m2.out_dtype = act;
        emit(FuType::Mme, std::uint8_t(mask << pv), m2);

        // MemA: one Q tile per head.
        isa::MemAUop al;
        al.rows = S;
        al.cols = D;
        al.slices = 1;
        al.src = kDdr;
        al.load = true;
        isa::MemAUop ab = al;
        ab.send = true;
        isa::MemAUop as;
        as.rows = S;
        as.cols = D;
        as.slices = 1;
        as.send = true;
        mema_streams.push_back(pingPongStream(mask, al, ab, as, count));

        // MemB: K (transposed) then V per head -> alternating pattern.
        isa::MemBUop kload;
        kload.rows = S;
        kload.cols = D;
        kload.src = kDdr;
        kload.load = true;
        kload.transpose = true;
        isa::MemBUop vload = kload;
        vload.transpose = false;
        isa::MemBUop send_only;
        send_only.rows = S;
        send_only.cols = D;
        send_only.send = true;
        auto kv_load = [&](std::uint64_t c) -> isa::Uop {
            return c % 2 == 0 ? kload : vload;
        };
        auto kv_both = [&](std::uint64_t c) -> isa::Uop {
            isa::MemBUop u = (c % 2 == 0) ? kload : vload;
            u.send = true;
            return u;
        };
        memb_streams.push_back(UopStream{
            mask, buildPingPong(kv_load, kv_both, isa::Uop{send_only},
                                2ull * count)});

        // MemC lane-0 group: softmax and re-injection into MeshA.
        isa::MemCUop c1r;
        c1r.rows = S;
        c1r.cols = S;
        c1r.recv_chunks = 1;
        c1r.send_chunks = 1;
        c1r.recv = true;
        c1r.softmax = true;
        c1r.out_dtype = act;
        isa::MemCUop c1b = c1r;
        c1b.send_mme = true;
        c1b.send_dest = kMeshA;
        isa::MemCUop c1s = c1b;
        c1s.recv = false;
        c1s.softmax = false;
        memc_streams.push_back(pingPongStream(mask, c1r, c1b, c1s,
                                              count));

        // MemC PV group: context tiles draining to DDR.
        isa::MemCUop c2r;
        c2r.rows = S;
        c2r.cols = D;
        c2r.recv_chunks = 1;
        c2r.send_chunks = 1;
        c2r.recv = true;
        c2r.out_dtype = act;
        isa::MemCUop c2b = c2r;
        c2b.store = true;
        isa::MemCUop c2s = c2b;
        c2s.recv = false;
        memc_streams.push_back(pingPongStream(std::uint8_t(mask << pv),
                                              c2r, c2b, c2s, count));
    }
    emitInterleaved(FuType::MemA, std::move(mema_streams));
    emitInterleaved(FuType::MemB, std::move(memb_streams));
    emitInterleaved(FuType::MemC, std::move(memc_streams));

    // Meshes: one Parallel uop with per-lane route cycles; lanes with an
    // extra head get one more pass.
    const std::uint32_t base = H / lanes;
    const std::uint32_t rem = H % lanes;
    auto emit_mesh = [&](std::uint32_t upto_lane, std::uint32_t repeats) {
        isa::MeshUop ma;
        ma.repeats = repeats;
        ma.mode = isa::MeshMode::Parallel;
        isa::MeshUop mb = ma;
        for (std::uint32_t l = 0; l < upto_lane; ++l) {
            ma.routes.push_back({memA(l), mme(l)});           // Q
            ma.routes.push_back({memC(l), mme(pv + l)});      // probs
            mb.routes.push_back({memB(l), mme(l)});           // K^T
            mb.routes.push_back({memB(l), mme(pv + l)});      // V
        }
        emit(FuType::MeshA, 0x1, ma);
        emit(FuType::MeshB, 0x1, mb);
    };
    if (base > 0)
        emit_mesh(lanes, base);
    if (rem > 0)
        emit_mesh(rem, 1);

    // Off-chip movement per head, in head order. Context stores lag the
    // load front by a pipeline depth of two heads per lane.
    store_lag_ = 2 * lanes;
    for (std::uint32_t h = 0; h < H; ++h) {
        const std::uint32_t lane = h % lanes;
        const std::uint32_t b = h / a.heads_per_batch;
        const std::uint32_t j = h % a.heads_per_batch;

        auto head_block = [&](const TensorInfo &t, std::uint32_t col_off) {
            return t.addr +
                   (Addr(b) * S * t.cols + col_off + Addr(j) * D) *
                       sizeof(float);
        };

        isa::DdrUop q;
        q.addr = head_block(q_t, a.q_col_off);
        q.rows = S;
        q.cols = D;
        q.pitch = q_t.cols;
        q.dest = memA(lane);
        q.dtype = act;
        emitDdrLoad(q, 1);

        isa::DdrUop kk;
        kk.addr = head_block(k_t, a.k_col_off);
        kk.rows = S;
        kk.cols = D;
        kk.pitch = k_t.cols;
        kk.dest = memB(lane);
        kk.dtype = act;
        emitDdrLoad(kk, 1);

        isa::DdrUop v;
        v.addr = head_block(v_t, a.v_col_off);
        v.rows = S;
        v.cols = D;
        v.pitch = v_t.cols;
        v.dest = memB(lane);
        v.dtype = act;
        emitDdrLoad(v, 1);

        isa::DdrUop ctx;
        ctx.addr = out_t.addr +
                   (Addr(b) * S * out_t.cols + Addr(j) * D) *
                       sizeof(float);
        ctx.rows = S;
        ctx.cols = D;
        ctx.pitch = out_t.cols;
        ctx.src = memC(pv + lane);
        ctx.dtype = act;
        queueDdrStore(ctx);
    }
}

void
ProgramBuilder::genAttentionSequential(const AttentionBlock &a)
{
    const std::uint32_t S = a.seq;
    const std::uint32_t D = a.dhead;
    const std::uint32_t H = a.heads;
    const std::uint32_t lanes = std::min<std::uint32_t>(core::kNumMme, H);
    const std::uint32_t batch = H / a.heads_per_batch;
    const std::uint32_t n_mem = core::kNumMemA;  // == kNumMemB
    const std::uint32_t score_split = 4;

    const TensorInfo &q_t = tensor(a.q_src);
    const TensorInfo &k_t = tensor(a.k_src);
    const TensorInfo &v_t = tensor(a.v_src);
    const TensorInfo sc_t =
        declareTensor("scores." + a.name, H * S, S, false);
    const TensorInfo out_t = declareTensor(
        a.out_name, batch * S, a.heads_per_batch * D, false);
    const Dtype act = mach_.config().precision.attention_activations;

    auto head_block = [&](const TensorInfo &t, std::uint32_t col_off,
                          std::uint32_t h) {
        const std::uint32_t b = h / a.heads_per_batch;
        const std::uint32_t j = h % a.heads_per_batch;
        return t.addr +
               (Addr(b) * S * t.cols + col_off + Addr(j) * D) *
                   sizeof(float);
    };

    // Mesh routes shared by both passes: MemA_i feeds MME_i and
    // MME_{i+n_mem} alternately; same for MemB.
    auto emit_meshes = [&](std::uint32_t upto_lane,
                           std::uint32_t repeats) {
        isa::MeshUop ma;
        ma.repeats = repeats;
        ma.mode = isa::MeshMode::Parallel;
        isa::MeshUop mb = ma;
        for (std::uint32_t l = 0; l < upto_lane; ++l) {
            ma.routes.push_back({memA(l % n_mem), mme(l)});
            mb.routes.push_back({memB(l % n_mem), mme(l)});
        }
        // Reorder so routes sharing a source are adjacent in lane order.
        std::stable_sort(ma.routes.begin(), ma.routes.end(),
                         [](const isa::MeshRoute &x,
                            const isa::MeshRoute &y) {
                             return x.src.index < y.src.index;
                         });
        std::stable_sort(mb.routes.begin(), mb.routes.end(),
                         [](const isa::MeshRoute &x,
                            const isa::MeshRoute &y) {
                             return x.src.index < y.src.index;
                         });
        emit(FuType::MeshA, 0x1, ma);
        emit(FuType::MeshB, 0x1, mb);
    };

    auto gen_pass = [&](bool first_pass) {
        std::vector<UopStream> mema_streams, memb_streams, memc_streams;
        // MME control.
        for (const auto &[count, mask] : lanesByCount(H, lanes)) {
            isa::MmeUop mm;
            mm.reps = static_cast<std::uint16_t>(count);
            mm.k_steps = 1;
            mm.tile_m = S;
            mm.tile_k = first_pass ? D : S;
            mm.tile_n = first_pass ? S : D;
            mm.out_dtype = act;
            emit(FuType::Mme, mask, mm);
        }
        // MemA/MemB: chunk counts per scratchpad instance (a scratchpad
        // serves lanes l and l+n_mem).
        for (std::uint32_t i = 0; i < n_mem; ++i) {
            std::uint32_t cnt = laneCount(H, lanes, i) +
                                (lanes > n_mem
                                     ? laneCount(H, lanes, i + n_mem)
                                     : 0);
            if (cnt == 0)
                continue;
            isa::MemAUop al;
            al.rows = S;
            al.cols = first_pass ? D : S;
            al.slices = 1;
            al.src = kDdr;
            al.load = true;
            isa::MemAUop ab = al;
            ab.send = true;
            isa::MemAUop as = al;
            as.load = false;
            as.send = true;
            mema_streams.push_back(pingPongStream(
                std::uint8_t(1u << i), al, ab, as, cnt));

            isa::MemBUop bl;
            bl.rows = S;
            bl.cols = D;
            bl.src = kDdr;
            bl.load = true;
            bl.transpose = first_pass;
            isa::MemBUop bb = bl;
            bb.send = true;
            isa::MemBUop bs;
            bs.rows = S;
            bs.cols = D;
            bs.send = true;
            memb_streams.push_back(pingPongStream(
                std::uint8_t(1u << i), bl, bb, bs, cnt));
        }
        // MemC: per lane.
        for (const auto &[count, mask] : lanesByCount(H, lanes)) {
            isa::MemCUop cr;
            cr.rows = S;
            cr.cols = first_pass ? S : D;
            cr.recv_chunks = 1;
            cr.send_chunks = static_cast<std::uint16_t>(
                first_pass ? score_split : 1);
            cr.recv = true;
            cr.softmax = first_pass;
            cr.out_dtype = act;
            isa::MemCUop cb = cr;
            cb.store = true;
            isa::MemCUop cs = cb;
            cs.recv = false;
            cs.softmax = false;
            memc_streams.push_back(pingPongStream(mask, cr, cb, cs,
                                                  count));
        }
        emitInterleaved(FuType::MemA, std::move(mema_streams));
        emitInterleaved(FuType::MemB, std::move(memb_streams));
        emitInterleaved(FuType::MemC, std::move(memc_streams));
        const std::uint32_t base = H / lanes;
        const std::uint32_t rem = H % lanes;
        if (base > 0)
            emit_meshes(lanes, base);
        if (rem > 0)
            emit_meshes(rem, 1);

        // DDR traffic in head order.
        store_lag_ = lanes * (first_pass ? score_split : 1);
        for (std::uint32_t h = 0; h < H; ++h) {
            const std::uint32_t lane = h % lanes;
            if (first_pass) {
                isa::DdrUop q;
                q.addr = head_block(q_t, a.q_col_off, h);
                q.rows = S;
                q.cols = D;
                q.pitch = q_t.cols;
                q.dest = memA(lane % n_mem);
                q.dtype = act;
                emitDdrLoad(q, 2);

                isa::DdrUop kk;
                kk.addr = head_block(k_t, a.k_col_off, h);
                kk.rows = S;
                kk.cols = D;
                kk.pitch = k_t.cols;
                kk.dest = memB(lane % n_mem);
                kk.dtype = act;
                emitDdrLoad(kk, 2);

                auto pieces = fu::sliceRows(S, score_split);
                for (const auto &[poff, prows] : pieces) {
                    isa::DdrUop ds;
                    ds.addr = sc_t.addr +
                              (Addr(h) * S + poff) * S * sizeof(float);
                    ds.rows = prows;
                    ds.cols = S;
                    ds.pitch = S;
                    ds.src = memC(lane);
                    ds.dtype = act;
                    queueDdrStore(ds);
                }
            } else {
                isa::DdrUop sc;
                sc.addr = sc_t.addr + Addr(h) * S * S * sizeof(float);
                sc.rows = S;
                sc.cols = S;
                sc.pitch = S;
                sc.dest = memA(lane % n_mem);
                sc.dtype = act;
                emitDdrLoad(sc, 1);

                isa::DdrUop v;
                v.addr = head_block(v_t, a.v_col_off, h);
                v.rows = S;
                v.cols = D;
                v.pitch = v_t.cols;
                v.dest = memB(lane % n_mem);
                v.dtype = act;
                emitDdrLoad(v, 1);

                isa::DdrUop ctx;
                ctx.addr = out_t.addr +
                           (Addr(h / a.heads_per_batch) * S * out_t.cols +
                            Addr(h % a.heads_per_batch) * D) *
                               sizeof(float);
                ctx.rows = S;
                ctx.cols = D;
                ctx.pitch = out_t.cols;
                ctx.src = memC(lane);
                ctx.dtype = act;
                queueDdrStore(ctx);
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

namespace {

/**
 * Merge runs of consecutive single-block DDR/LPDDR uOPs whose addresses
 * advance by a constant delta into one strided mOP — the second-level
 * decoder unrolls them back (Sec. 3.3's "stride size and stride count"
 * customization). This is where the off-chip FUs get their (modest)
 * Fig. 9 compression.
 */
template <typename T>
bool
tryMergeStride(isa::Uop &acc_uop, const isa::Uop &next)
{
    auto *acc = std::get_if<T>(&acc_uop);
    const auto *nxt = std::get_if<T>(&next);
    if (!acc || !nxt || nxt->stride_count != 1)
        return false;
    // Geometry and flow must match exactly (only addr may differ).
    T a = *acc, b = *nxt;
    a.addr = b.addr = 0;
    a.stride_count = b.stride_count = 1;
    a.stride_offset = b.stride_offset = 0;
    if (!(a == b))
        return false;
    if (acc->stride_count == 1) {
        if (nxt->addr <= acc->addr ||
            nxt->addr - acc->addr > 0xffffffffull)
            return false;
        acc->stride_offset =
            static_cast<std::uint32_t>(nxt->addr - acc->addr);
        acc->stride_count = 2;
        return true;
    }
    Addr expected = acc->addr +
                    Addr(acc->stride_count) * acc->stride_offset;
    if (nxt->addr != expected || acc->stride_count >= 0xfff0)
        return false;
    ++acc->stride_count;
    return true;
}

} // namespace

isa::RsnProgram
ProgramBuilder::pack() const
{
    // Stride-merge pre-pass over the raw stream.
    std::vector<Entry> merged;
    merged.reserve(entries_.size());
    for (const Entry &e : entries_) {
        if (!merged.empty() && merged.back().op == e.op &&
            merged.back().mask == e.mask) {
            if (e.op == FuType::Ddr &&
                tryMergeStride<isa::DdrUop>(merged.back().uop, e.uop))
                continue;
            if (e.op == FuType::Lpddr &&
                tryMergeStride<isa::LpddrUop>(merged.back().uop, e.uop))
                continue;
        }
        merged.push_back(e);
    }
    const auto &entries_ref = merged;

    isa::RsnProgram prog;
    const std::size_t n = entries_ref.size();
    std::size_t i = 0;

    auto same = [&](std::size_t x, std::size_t y) {
        return entries_ref[x].op == entries_ref[y].op &&
               entries_ref[x].mask == entries_ref[y].mask &&
               entries_ref[x].uop == entries_ref[y].uop;
    };

    while (i < n) {
        // Find the repeating window (period p, r repetitions) that covers
        // the most entries, bounded by the header's field widths.
        std::size_t best_p = 1, best_r = 1;
        const std::size_t max_p = std::min<std::size_t>(8, n - i);
        for (std::size_t p = 1; p <= max_p; ++p) {
            bool uniform = true;
            for (std::size_t j = 0; j < p && uniform; ++j)
                uniform = entries_ref[i + j].op == entries_ref[i].op &&
                          entries_ref[i + j].mask == entries_ref[i].mask;
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
        pkt.opcode = entries_ref[i].op;
        pkt.mask = entries_ref[i].mask;
        if (best_r >= 2) {
            pkt.reuse = static_cast<std::uint16_t>(best_r);
            for (std::size_t j = 0; j < best_p; ++j)
                pkt.mops.push_back(entries_ref[i + j].uop);
            i += best_p * best_r;
        } else {
            // Non-repeating run: batch consecutive same-op/mask uops.
            pkt.reuse = 1;
            while (i < n && entries_ref[i].op == pkt.opcode &&
                   entries_ref[i].mask == pkt.mask &&
                   pkt.mops.size() < isa::kMaxWindow) {
                // Stop if a compressible repetition starts here.
                if (!pkt.mops.empty() && i + 1 < n && same(i, i + 1))
                    break;
                pkt.mops.push_back(entries_ref[i].uop);
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
    rsn_assert(entries_.empty(), "ProgramBuilder::compile is single-use");
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

CompiledModel
compileModel(core::RsnMachine &machine, const Model &model,
             ScheduleOptions opts)
{
    ProgramBuilder b(machine, opts);
    return b.compile(model);
}

} // namespace rsn::lib
