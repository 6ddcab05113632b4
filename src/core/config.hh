/**
 * @file
 * Machine configuration: clocks, DRAM rates, FU counts, link widths,
 * buffer capacities, and the AIE model — with a preset mirroring the
 * RSN-XNN prototype on the VCK190 (paper Secs. 4.1, 5, Fig. 16).
 */

#ifndef RSN_CORE_CONFIG_HH
#define RSN_CORE_CONFIG_HH

#include <cstddef>
#include <cstdint>

#include "common/dtype.hh"
#include "common/status.hh"
#include "common/types.hh"
#include "fu/aie_model.hh"
#include "mem/dram.hh"
#include "mem/layout.hh"
#include "sim/fault.hh"

namespace rsn::core {

/** Link widths in bytes per PL tick (260 MHz: 1 GB/s = ~3.85 B/tick). */
struct StreamWidths {
    double ddr_to_mem = 127;     ///< DDR FU -> MemA/MemB/MemC (~33 GB/s).
    double lpddr_to_mem = 127;   ///< LPDDR FU -> MemB/MemC.
    double mem_to_mesh = 385;    ///< MemA/MemB/MemC -> mesh (~100 GB/s).
    double mesha_to_mme = 280;   ///< MeshA -> each MME (~73 GB/s).
    double meshb_to_mme = 192;   ///< MeshB -> each MME (~50 GB/s).
    double mme_to_memc = 385;    ///< MME -> partner MemC (~100 GB/s).
    double memc_to_ddr = 127;    ///< MemC -> DDR FU store path.

    bool operator==(const StreamWidths &) const = default;
};

/** Per-FU-type scratchpad capacities (Fig. 16), for reporting. */
struct FuMemories {
    Bytes mme = 590 * 1024;      ///< Per-MME AIE-local storage.
    Bytes mem_a = 256 * 1024;
    Bytes mem_b01 = 512 * 1024;  ///< MemB0/MemB1.
    Bytes mem_b2 = 256 * 1024;
    Bytes mem_c = 1024 * 1024;

    bool operator==(const FuMemories &) const = default;
};

/**
 * Per-operator-class element types for the typed-tile datapath
 * (docs/datapath.md "Typed tiles & precision policy"). Codegen stamps
 * these onto the load / MME / MemC uOPs, so a precision choice changes
 * wire and DRAM bytes (and therefore timing) end to end. Invariants
 * the datapath enforces regardless of policy: MME accumulators and
 * MemC's fused operators compute in FP32, and bias / LayerNorm
 * gamma-beta vectors are always loaded as FP32.
 *
 * The defaults are all-F32, which keeps the pre-typed golden tick
 * pins bit-exact: every uOP then carries the same dtype tags the
 * untyped datapath implicitly had.
 */
struct PrecisionPolicy {
    Dtype linear_weights = Dtype::F32;        ///< LPDDR weight tiles.
    Dtype linear_activations = Dtype::F32;    ///< Linear-layer acts.
    Dtype attention_activations = Dtype::F32; ///< Q/K/V, scores, ctx.

    bool operator==(const PrecisionPolicy &) const = default;

    Status validate() const;
};

struct MachineConfig {
    int num_mme = 6;
    int num_mem_a = 3;
    int num_mem_b = 3;
    int num_mem_c = 6;

    ClockSpec clocks;
    mem::DramConfig ddr;
    mem::DramConfig lpddr;
    fu::AieModelParams aie;
    StreamWidths widths;
    FuMemories memories;

    /** Non-MM processing rate of one MemC (0.072 TFLOPS / 260 MHz). */
    double memc_flops_per_tick = 277;

    std::size_t stream_depth = 2;      ///< Chunks per stream FIFO.
    std::size_t uop_fifo_depth = 6;    ///< Per-FU uOP queue (Sec. 3.3).
    /**
     * Fetch -> type-decoder FIFOs, in packets. The paper reports depth 6
     * deadlock-free for its instruction ordering; this generator's
     * window/reuse packing puts more uOPs in one packet, so equivalent
     * slack needs a slightly deeper packet FIFO (8 suffices across the
     * evaluated workloads; 12 adds margin). bench_ablation_fifo sweeps
     * this and reproduces the deadlock below the threshold.
     */
    std::size_t fetch_fifo_depth = 12;
    Tick decoder_ticks_per_packet = 4;
    Tick decoder_ticks_per_uop = 2;

    mem::LayoutKind offchip_layout = mem::LayoutKind::Blocked;
    bool functional = false;  ///< Carry typed payloads through the network.

    /** Per-op element types; all-F32 by default (see PrecisionPolicy). */
    PrecisionPolicy precision;

    /** Fault-injection plan; disabled (all rates zero) by default. */
    sim::FaultSpec fault;

    /**
     * Livelock watchdog: abort a run when one tick processes this many
     * events without time advancing (Engine::setEventsPerTickBudget).
     * The default is far above anything a legal program reaches — the
     * full BERT-Large run averages ~30 events/tick — so it only fires
     * on genuine zero-delay wakeup cycles.
     */
    std::uint64_t watchdog_events_per_tick = 50'000'000;

    /** Member-wise equality (lib::SweepLane reuses a machine across
     *  equal configurations instead of rebuilding the datapath). */
    bool operator==(const MachineConfig &) const = default;

    /**
     * Equality modulo fault.seed: true when the two configs build the
     * same datapath and arm the same fault sources, differing only in
     * the fault schedule. A cached machine can serve such a config via
     * reset() + setFaultSeed() instead of a rebuild (lib/sweep.hh lane
     * reuse; the serving scheduler salts the seed per request).
     */
    bool
    equalsIgnoringFaultSeed(const MachineConfig &o) const
    {
        MachineConfig a = *this;
        a.fault.seed = o.fault.seed;
        return a == o;
    }

    /**
     * Structural sanity check, run by RsnMachine before any topology is
     * built: FU counts, rates, widths and depths that used to fail as
     * mid-run asserts are rejected up front with a diagnosable Status.
     */
    Status validate() const;

    /** The RSN-XNN prototype configuration. */
    static MachineConfig vck190(bool functional = false);
};

} // namespace rsn::core

#endif // RSN_CORE_CONFIG_HH
