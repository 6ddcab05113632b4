/**
 * @file
 * Off-chip memory channel model.
 *
 * The VCK190 carries one 8 GB DDR4 channel (25.6 GB/s peak) and one 8 GB
 * LPDDR4 channel (32 GB/s peak). The paper reports *achieved* bandwidths of
 * 21 GB/s (DDR reads), 23.5 GB/s (DDR writes), and 20.5 GB/s (LPDDR reads)
 * (Sec. 5.3); this model uses the achieved numbers as its service rates.
 *
 * Requests are served strictly in arrival order: the paper's key bandwidth
 * optimization (Sec. 4.4) is that *software* chooses the load/store
 * interleaving by ordering DDR-FU uOPs, rather than trusting a hardware
 * arbiter. Arrival order here is the order in which FU coroutines call
 * access(), which is exactly uOP program order.
 *
 * Strided (non-contiguous) accesses pay a penalty factor; the blocked
 * 128x64 off-chip layout (Sec. 5.3, src/mem/layout.hh) exists to avoid it.
 */

#ifndef RSN_MEM_DRAM_HH
#define RSN_MEM_DRAM_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "sim/engine.hh"
#include "sim/task.hh"

namespace rsn::sim {
class FaultInjector;
}

namespace rsn::mem {

/** Direction of an off-chip access. */
enum class Dir : std::uint8_t { Read, Write };

/** One off-chip request (a burst of contiguous or strided rows). */
struct DramRequest {
    Dir dir = Dir::Read;
    Bytes bytes = 0;
    /**
     * Number of separate row bursts the request touches. 1 means fully
     * contiguous; each extra burst pays the per-burst overhead, which is how
     * strided row-major access becomes slower than the blocked layout.
     */
    std::uint32_t bursts = 1;
};

/** Row-activation / turnaround cost of one burst, in PL ticks. */
inline constexpr Tick kPerBurstOverhead = 16;

/** Configuration of one DRAM channel. */
struct DramConfig {
    std::string name = "DRAM";
    double read_gbps = 21.0;        ///< Achieved read bandwidth.
    double write_gbps = 23.5;       ///< Achieved write bandwidth.

    bool operator==(const DramConfig &) const = default;
};

/**
 * A single serialized DRAM channel. Coroutines co_await access() and resume
 * when their request completes service.
 */
class DramChannel
{
  public:
    DramChannel(sim::Engine &eng, DramConfig cfg);

    const std::string &name() const { return cfg_.name; }
    const DramConfig &config() const { return cfg_; }

    /** Service time in ticks for @p req (excluding queueing). */
    Tick serviceTicks(const DramRequest &req) const;

    /** Perform @p req, blocking until service completes. */
    sim::Task access(DramRequest req);

    /**
     * Arm transaction-fault injection (docs/robustness.md). Transient
     * errors are retried with exponential backoff in simulated ticks —
     * the retry burst occupies the channel like real traffic — and a
     * request whose retries are exhausted flags an unrecoverable fault
     * (the injector stops the run; the access itself still completes so
     * the calling kernel stays well-formed).
     */
    void attachFaultInjector(sim::FaultInjector *fi);

    /**
     * Clear stats and queueing state for a fresh run on a rewound engine
     * (RsnMachine::reset). The configured rates are not run state and
     * survive.
     */
    void
    reset()
    {
        busy_until_ = 0;
        busy_ticks_ = 0;
        bytes_read_ = 0;
        bytes_written_ = 0;
        requests_ = 0;
        retries_ = 0;
    }

    /** Stats. */
    Bytes bytesRead() const { return bytes_read_; }
    Bytes bytesWritten() const { return bytes_written_; }
    Tick busyTicks() const { return busy_ticks_; }
    std::uint64_t requests() const { return requests_; }
    /** Injected transient errors that were successfully retried. */
    std::uint64_t retries() const { return retries_; }

    /** Achieved utilization of the busier direction over @p total ticks. */
    double utilization(Tick total) const;

  private:
    sim::Engine &eng_;
    DramConfig cfg_;
    double read_bpt_;   ///< bytes per tick, reads
    double write_bpt_;  ///< bytes per tick, writes

    Tick busy_until_ = 0;
    Tick busy_ticks_ = 0;
    Bytes bytes_read_ = 0;
    Bytes bytes_written_ = 0;
    std::uint64_t requests_ = 0;

    sim::FaultInjector *fault_ = nullptr;  ///< Null unless chaos is armed.
    std::uint32_t fault_site_ = 0;
    std::uint64_t retries_ = 0;
};

} // namespace rsn::mem

#endif // RSN_MEM_DRAM_HH
