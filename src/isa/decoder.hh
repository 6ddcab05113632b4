/**
 * @file
 * The three-level instruction decoder (paper Sec. 3.3, Fig. 8).
 *
 * Level 1 (fetch / top-level): reads the single RSN packet stream and
 * forwards each packet to the second-level decoder selected by its opcode.
 * The fetch unit issues continuously until a downstream FIFO back-pressures
 * it — which is also how the paper's deadlock scenario arises when FIFOs
 * are too shallow (depth 6 is reported deadlock-free).
 *
 * Level 2 (per FU type): replays each packet's mOP window `reuse` times and
 * expands mOPs into uOPs (strided DDR/LPDDR mOPs unroll per block). A uOP
 * is issued by reference: the FU queue carries an isa::UopRef naming the
 * mOP inside the program's packet and the block, and the FU forms that
 * block's address itself. So issuing copies no Uop and allocates
 * nothing, and the program must outlive the run (start()). Issue order
 * and per-uOP decode delays are those of expanding every block into its
 * own uOP.
 *
 * The fetch FIFOs between levels 1 and 2 are fixed hardware: they are
 * built once with the decoder and survive reset(). Decode costs are
 * core::kDecoderTicksPerPacket / kDecoderTicksPerUop.
 *
 * Level 3 (per FU): the bounded uOP queue inside each Fu.
 */

#ifndef RSN_ISA_DECODER_HH
#define RSN_ISA_DECODER_HH

#include <array>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "fu/fu.hh"
#include "isa/packet.hh"
#include "sim/channel.hh"
#include "sim/task.hh"

namespace rsn::isa {

class DecoderUnit
{
  public:
    /** @param fetch_fifo_depth packet FIFO depth between fetch and each
     *  type decoder. */
    DecoderUnit(sim::Engine &eng, std::size_t fetch_fifo_depth);

    /** Register an FU instance as a uOP sink. Call before start(). */
    void attach(fu::Fu *f);

    /**
     * Begin fetching @p prog (which must outlive the run) and issuing
     * uOPs. Spawns the fetch and second-level decoder coroutines.
     */
    void start(const RsnProgram &prog);

    /** All packets fetched, expanded, and delivered. */
    bool done() const;

    /**
     * Return to the pre-start state so a fresh program can be fetched
     * (RsnMachine::reset). Only legal before start() or once done():
     * the fetch/type coroutines must have finished before their frames
     * are destroyed.
     */
    void reset();

    /** @{ Stats for the overhead analysis (Sec. 5.1). */
    std::uint64_t packetsFetched() const { return packets_fetched_; }
    std::uint64_t uopsIssued() const { return uops_issued_; }
    Bytes instructionBytesFetched() const { return bytes_fetched_; }
    /** @} */

    /** Describe stalled decoder stages (deadlock diagnostics). */
    std::string stateString() const;

  private:
    sim::Task fetchLoop();
    sim::Task typeLoop(FuType t);

    sim::Engine &eng_;
    const RsnProgram *prog_ = nullptr;
    /** Attached FUs by (type, index): the uOP sink of each mask bit. */
    std::array<std::array<fu::Fu *, kMaxMaskBits>, kNumFuTypes> fus_{};

    /** nullptr packet = end-of-program sentinel. */
    using PktChannel = sim::Channel<const RsnPacket *>;
    std::array<std::unique_ptr<PktChannel>, kNumFuTypes> pkt_ch_;
    std::array<sim::Task, kNumFuTypes> type_tasks_;
    std::array<bool, kNumFuTypes> type_done_{};
    sim::Task fetch_task_;
    bool fetch_done_ = false;

    std::uint64_t packets_fetched_ = 0;
    std::uint64_t uops_issued_ = 0;
    Bytes bytes_fetched_ = 0;
};

} // namespace rsn::isa

#endif // RSN_ISA_DECODER_HH
