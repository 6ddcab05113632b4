/**
 * @file
 * Functional-unit base class (paper Sec. 3.1, Fig. 4).
 *
 * An FU comprises a uOP decoder (the bounded uOP queue fed by the
 * instruction decoder — the "third-level decoder"), input and output ports
 * (streams), and customized modules that transform and hold state. Each FU
 * maintains its own uOP sequence, executes one kernel at a time, fetches
 * the next uOP when a kernel completes, and stalls when none is available.
 *
 * The queue carries isa::UopRef: a reference into the running program
 * plus, for a strided DDR/LPDDR mOP, the block to run, which the FU
 * forms itself (docs/datapath.md, "uOP issue path"). Ports are looked
 * up by the (type, index) of the FU at their other end in a fixed
 * table, so neither issuing a uOP nor finding a port allocates.
 */

#ifndef RSN_FU_FU_HH
#define RSN_FU_FU_HH

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "isa/uop.hh"
#include "sim/channel.hh"
#include "sim/engine.hh"
#include "sim/stream.hh"
#include "sim/task.hh"

namespace rsn::sim {
class FaultInjector;
}

namespace rsn::fu {

/** Execution statistics every FU tracks. */
struct FuStats {
    std::uint64_t uops = 0;       ///< Kernels executed (excl. halt).
    Tick busy_ticks = 0;          ///< Ticks spent inside kernels.
    Bytes bytes_in = 0;           ///< Bytes received on input ports.
    Bytes bytes_out = 0;          ///< Bytes sent on output ports.
    std::uint64_t flops = 0;      ///< Arithmetic work performed.
};

/**
 * One executed kernel: ticks [begin, end) of the FU's timeline. The
 * uOP kind is the isa::Uop variant index (0 mme ... 6 memc); it becomes
 * a name only at export (core/tracer.hh).
 */
struct KernelSpan {
    std::uint8_t kind = 0;
    Tick begin = 0;
    Tick end = 0;
};

class Fu
{
  public:
    /** Default uOP FIFO depth; depth 6 is deadlock-free per Sec. 3.3. */
    static constexpr std::size_t kDefaultUopDepth = 6;

    Fu(sim::Engine &eng, FuId id, std::size_t uop_depth = kDefaultUopDepth);
    virtual ~Fu() = default;

    Fu(const Fu &) = delete;
    Fu &operator=(const Fu &) = delete;

    FuId id() const { return id_; }
    const std::string &name() const { return name_; }
    sim::Engine &engine() { return eng_; }

    /** The uOP queue the instruction decoder pushes into. Each entry
     *  refers to a uOP that must stay alive until the kernel it starts
     *  has finished (the decoder's program outlives the run). */
    sim::Channel<isa::UopRef> &uopQueue() { return uop_q_; }

    /** Spawn the kernel main loop. Call once per run, before Engine::run. */
    void start();

    /**
     * Return the FU to its pre-start state so the owning machine can run
     * another program: destroys the finished kernel-loop frame, zeroes
     * stats, clears recorded spans (recording stays on or off), and
     * drops subclass kernel state (staged tiles, ping-pong
     * phase). Only legal before start() or after the loop halted — a
     * suspended kernel must never be destroyed under a live engine.
     */
    void reset();

    /** True once a Halt uOP terminated the kernel loop. */
    bool halted() const { return halted_; }

    const FuStats &stats() const { return stats_; }

    /**
     * Record one KernelSpan per executed kernel (off by default). The
     * spans are exact — one per FuStats::uops, summing to busy_ticks —
     * and recording adds no engine events, so ticks do not move.
     */
    void recordSpans(bool on) { record_spans_ = on; }
    const std::vector<KernelSpan> &spans() const { return spans_; }

    /** @{ Port wiring (done by the machine builder). */
    void addInput(FuId from, sim::Stream *s);
    void addOutput(FuId to, sim::Stream *s);
    sim::Stream &in(FuId from);
    sim::Stream &out(FuId to);
    bool hasInput(FuId from) const { return port(in_ports_, from); }
    bool hasOutput(FuId to) const { return port(out_ports_, to); }
    /** @} */

    /** Human-readable blocked/stall state for deadlock reports. */
    std::string stateString() const;

    /**
     * Arm payload-integrity fault injection (docs/robustness.md). Egress
     * chunks produced by DDR/LPDDR load kernels are checksummed; ingress
     * chunks consumed by Mem FUs are (maybe) bit-flipped and verified.
     */
    void setFaultInjector(sim::FaultInjector *fi);

  protected:
    /** Execute one kernel for the uOP @p u refers to; implemented per
     *  FU type. */
    virtual sim::Task runKernel(isa::UopRef u) = 0;

    /** Subclass hook for reset(): drop state kernels carry across uOPs. */
    virtual void resetKernelState() {}

    /** @{ Stats helpers used by kernels. */
    void countIn(const sim::Chunk &c) { stats_.bytes_in += c.bytes(); }
    void countOut(const sim::Chunk &c) { stats_.bytes_out += c.bytes(); }
    void countFlops(std::uint64_t f) { stats_.flops += f; }
    /** @} */

    /** @{ Chaos hooks: no-ops unless a FaultInjector is attached. */
    void stampEgress(sim::Chunk &c);
    void checkIngress(sim::Chunk &c);
    /** @} */

    sim::Engine &eng_;

  private:
    /** Ports by (type, index) of the FU at their other end, like the
     *  decoder's FU table; no FU type has more than kMaxPorts
     *  instances. */
    static constexpr std::size_t kMaxPorts = 8;
    using PortTable =
        std::array<std::array<sim::Stream *, kMaxPorts>, kNumFuTypes>;
    static sim::Stream *port(const PortTable &t, FuId id);

    sim::Task mainLoop();

    FuId id_;
    std::string name_;
    sim::Channel<isa::UopRef> uop_q_;
    /** In wiring order, for stateString(). */
    std::vector<std::pair<FuId, sim::Stream *>> inputs_;
    std::vector<std::pair<FuId, sim::Stream *>> outputs_;
    PortTable in_ports_{};
    PortTable out_ports_{};
    sim::Task loop_;
    FuStats stats_;
    std::vector<KernelSpan> spans_;
    sim::FaultInjector *fault_ = nullptr;  ///< Null unless chaos is armed.
    std::uint32_t fault_site_ = 0;
    bool started_ = false;
    bool halted_ = false;
    bool in_kernel_ = false;
    bool record_spans_ = false;
};

} // namespace rsn::fu

#endif // RSN_FU_FU_HH
