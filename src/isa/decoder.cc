#include "isa/decoder.hh"

#include "common/log.hh"
#include "core/config.hh"

namespace rsn::isa {

DecoderUnit::DecoderUnit(sim::Engine &eng, std::size_t fetch_fifo_depth)
    : eng_(eng)
{
    for (int t = 0; t < kNumFuTypes; ++t)
        pkt_ch_[t] = std::make_unique<PktChannel>(
            eng_, fetch_fifo_depth,
            std::string(fuTypeName(static_cast<FuType>(t))) + ".pktq");
}

void
DecoderUnit::attach(fu::Fu *f)
{
    const FuId id = f->id();
    rsn_assert(id.valid() && id.index < kMaxMaskBits,
               "FU %s has no mask bit", f->name().c_str());
    fu::Fu *&slot = fus_[static_cast<int>(id.type)][id.index];
    rsn_assert(slot == nullptr, "duplicate FU %s", f->name().c_str());
    slot = f;
}

void
DecoderUnit::start(const RsnProgram &prog)
{
    rsn_assert(prog_ == nullptr, "decoder started twice");
    prog_ = &prog;
    for (int t = 0; t < kNumFuTypes; ++t)
        type_tasks_[t] = typeLoop(static_cast<FuType>(t));
    fetch_task_ = fetchLoop();
}

void
DecoderUnit::reset()
{
    rsn_assert(prog_ == nullptr || done(),
               "decoder reset while still issuing");
    prog_ = nullptr;
    fetch_task_ = {};
    fetch_done_ = false;
    for (int t = 0; t < kNumFuTypes; ++t) {
        type_tasks_[t] = {};
        type_done_[t] = false;
    }
    packets_fetched_ = 0;
    uops_issued_ = 0;
    bytes_fetched_ = 0;
}

sim::Task
DecoderUnit::fetchLoop()
{
    for (const RsnPacket &p : prog_->packets()) {
        co_await eng_.delay(core::kDecoderTicksPerPacket);
        ++packets_fetched_;
        bytes_fetched_ += p.wireBytes();
        co_await pkt_ch_[static_cast<int>(p.opcode)]->send(&p);
    }
    // End-of-program sentinels.
    for (int t = 0; t < kNumFuTypes; ++t)
        co_await pkt_ch_[t]->send(nullptr);
    fetch_done_ = true;
}

sim::Task
DecoderUnit::typeLoop(FuType t)
{
    PktChannel &ch = *pkt_ch_[static_cast<int>(t)];
    const auto &fus = fus_[static_cast<int>(t)];
    while (true) {
        const RsnPacket *p = co_await ch.recv();
        if (!p)
            break;
        // The window's uOPs are its mOPs' blocks in order; the `reuse`
        // replay passes (Fig. 8) issue the same blocks again, each by
        // reference into the packet, so issuing copies no uOP.
        for (std::uint32_t pass = 0; pass < p->reuse; ++pass) {
            for (const Uop &mop : p->mops) {
                const std::uint32_t blocks = mopBlocks(mop);
                for (std::uint32_t b = 0; b < blocks; ++b) {
                    for (std::uint32_t i = 0; i < kMaxMaskBits; ++i) {
                        if (!(p->mask & (1u << i)))
                            continue;
                        fu::Fu *f = fus[i];
                        rsn_assert(f, "packet targets missing %s%u",
                                   fuTypeName(t), i);
                        co_await eng_.delay(core::kDecoderTicksPerUop);
                        co_await f->uopQueue().send(UopRef{&mop, b});
                        ++uops_issued_;
                    }
                }
            }
        }
        if (p->last) {
            for (std::uint32_t i = 0; i < kMaxMaskBits; ++i) {
                if (!(p->mask & (1u << i)))
                    continue;
                fu::Fu *f = fus[i];
                rsn_assert(f, "halt targets missing %s%u", fuTypeName(t),
                           i);
                co_await f->uopQueue().send(UopRef{&kHaltUop});
                ++uops_issued_;
            }
        }
    }
    type_done_[static_cast<int>(t)] = true;
}

bool
DecoderUnit::done() const
{
    if (!fetch_done_)
        return false;
    for (bool d : type_done_)
        if (!d)
            return false;
    return true;
}

std::string
DecoderUnit::stateString() const
{
    std::string s;
    if (!fetch_done_)
        s += "fetch unit stalled; ";
    for (int t = 0; t < kNumFuTypes; ++t) {
        if (!type_done_[t]) {
            s += std::string(fuTypeName(static_cast<FuType>(t))) +
                 " decoder pending (fifo=" +
                 std::to_string(pkt_ch_[t]->size()) + "); ";
        }
    }
    return s.empty() ? "decoder drained" : s;
}

} // namespace rsn::isa
