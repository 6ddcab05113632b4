/**
 * @file
 * RsnMachine: the assembled RSN-XNN computer (paper Fig. 10).
 *
 * Instantiates the datapath — 6 MME, 3 MemA, 3 MemB, 6 MemC, MeshA/B,
 * DDR and LPDDR mover FUs — wires the stream network from the topology,
 * attaches the three-level instruction decoder, and runs RSN programs.
 *
 * A machine runs one program at a time (simulated time is monotonic
 * within a run). After a *completed* run, reset() rewinds the machine to
 * a pristine state — clock at 0, FU/stream/DRAM stats cleared, host
 * memory empty — so sweeps can reuse one machine per configuration
 * instead of rebuilding the full datapath per data point
 * (lib::SweepLane holds such a cached machine).
 */

#ifndef RSN_CORE_MACHINE_HH
#define RSN_CORE_MACHINE_HH

#include <memory>
#include <string>
#include <vector>

#include "core/config.hh"
#include "fu/fu.hh"
#include "isa/decoder.hh"
#include "isa/packet.hh"
#include "mem/dram.hh"
#include "mem/hostmem.hh"
#include "net/topology.hh"
#include "sim/engine.hh"

namespace rsn::core {

/** Build the RSN-XNN "union" datapath graph (Sec. 4.2). */
net::Topology buildRsnXnnTopology();

/** How long one RSN program ran, in ticks and modeled wall-clock. */
struct RunResult {
    Tick ticks = 0;
    double ms = 0;             ///< Wall-clock on the modeled platform.
};

/**
 * The one outcome of a run: status.ok() iff the program drained, every
 * FU halted, and no waiter was left parked; otherwise status carries the
 * classification (FaultDiagnosed / Livelock / Timeout / Deadlock) and a
 * message whose first line names the first fault site or the stalled
 * decoder, followed by the stall report and the engine's waiter scan.
 * lib::runModelChecked() adds OutputMismatch for completed runs whose
 * outputs miss the accuracy contract (lib/runner.hh).
 */
struct RunReport {
    Status status;
    RunResult result;
    /** Injected-fault log (bounded; see FaultInjector::kMaxLogRecords). */
    std::vector<sim::FaultRecord> faults;
    std::uint64_t faults_injected = 0;  ///< Total, including beyond log.

    bool ok() const { return status.ok(); }
    std::string toString() const;
};

class RsnMachine
{
  public:
    explicit RsnMachine(const MachineConfig &cfg);

    const MachineConfig &config() const { return cfg_; }
    sim::Engine &engine() { return eng_; }
    mem::HostMemory &host() { return host_; }
    mem::DramChannel &ddrChannel() { return *ddr_chan_; }
    mem::DramChannel &lpddrChannel() { return *lpddr_chan_; }
    const net::Topology &topology() const { return topo_; }
    isa::DecoderUnit &decoder() { return *decoder_; }

    fu::Fu *fu(FuId id);
    const std::vector<std::unique_ptr<fu::Fu>> &fus() const
    {
        return fus_;
    }

    /** Default run length: generous, but finite even for chaos runs. */
    static constexpr Tick kDefaultMaxTicks = Tick(200) * 1000 * 1000 * 1000;

    /**
     * Execute @p prog until completion / quiesce / @p max_ticks and
     * classify the outcome. Always returns (never throws on a diagnosed
     * fault), with the injector's fault log attached.
     */
    RunReport runChecked(const isa::RsnProgram &prog,
                         Tick max_ticks = kDefaultMaxTicks);

    /** Non-null iff cfg.fault.enabled() armed chaos at construction. */
    const sim::FaultInjector *faultInjector() const
    {
        return injector_.get();
    }

    /**
     * Rewind the machine for another program: engine clock to 0, FU /
     * stream / DRAM / decoder state and stats cleared, host memory
     * emptied (previously compiled models' tensor addresses become
     * invalid). Only legal before any run or after a run that
     * *completed* — a deadlocked or timed-out run leaves suspended
     * kernels whose frames must not be destroyed under a live engine;
     * rebuild the machine instead. resettable() reports which case
     * applies.
     */
    void reset();

    /** True when reset() may be called (no run yet, or it completed). */
    bool resettable() const { return !ran_ || ran_completed_; }

    /**
     * Re-arm the fault injector under a new seed without rebuilding the
     * datapath. Legal exactly when reset() is: the serving scheduler
     * (serve/scheduler.cc) salts one chaos seed per request, so a cached
     * lane machine replays request after request with only the fault
     * schedule changing. Rates, window, and policy must not change —
     * those select checksum arming and hook wiring at construction.
     * No-op (beyond recording the seed) when chaos is not armed.
     */
    void setFaultSeed(std::uint64_t seed);

    /** @{ Introspection for Fig. 16 / Table 5 / power model. */
    std::uint64_t totalFlops() const;
    double achievedTflops(const RunResult &r) const;
    double peakTflops() const;
    double fuPeakTflops(FuId id) const;
    Bytes fuMemoryBytes(FuId id) const;
    /** @} */

  private:
    void buildStreams();
    void buildFus();
    std::string stallReport(bool quiesced, bool drain_clean) const;

    MachineConfig cfg_;
    sim::Engine eng_;
    std::unique_ptr<sim::FaultInjector> injector_;  ///< Before datapath.
    mem::HostMemory host_;
    std::unique_ptr<mem::DramChannel> ddr_chan_;
    std::unique_ptr<mem::DramChannel> lpddr_chan_;
    net::Topology topo_;
    std::vector<std::unique_ptr<fu::Fu>> fus_;
    std::vector<std::unique_ptr<sim::Stream>> streams_;
    std::unique_ptr<isa::DecoderUnit> decoder_;
    bool ran_ = false;
    bool ran_completed_ = false;
};

} // namespace rsn::core

#endif // RSN_CORE_MACHINE_HH
