/**
 * @file
 * Machine description: the fixed RSN-XNN datapath (FU counts, link
 * widths, buffer capacities, fixed costs) as constants, and the
 * MachineConfig a caller varies (DRAM rates, the AIE MAC rate, FIFO
 * depths, layout, precision, faults) — with a preset mirroring the
 * RSN-XNN prototype on the VCK190 (paper Secs. 4.1, 5, Fig. 16).
 */

#ifndef RSN_CORE_CONFIG_HH
#define RSN_CORE_CONFIG_HH

#include <cstddef>
#include <cstdint>

#include "common/dtype.hh"
#include "common/status.hh"
#include "common/types.hh"
#include "mem/dram.hh"
#include "mem/layout.hh"
#include "sim/fault.hh"

namespace rsn::core {

/**
 * @name The RSN-XNN datapath (paper Fig. 10)
 * One fixed shape on the VCK190. No caller varies these, so they are
 * constants rather than MachineConfig fields: a configuration the
 * generator cannot wire can then not be written down.
 * @{
 */

/** FU counts. Codegen derives its lane wiring from these. */
inline constexpr int kNumMme = 6;
inline constexpr int kNumMemA = 3;
inline constexpr int kNumMemB = 3;
inline constexpr int kNumMemC = 6;

// Each MME streams its accumulators to a dedicated partner MemC (paper
// Fig. 4), and attention runs one lane per MemA/MemB pair: pipelined
// attention pairs MME l (QK^T) with MME l + kNumMme/2 (PV), sequential
// attention lets scratchpad l serve MMEs l and l + kNumMme/2.
static_assert(kNumMemC == kNumMme, "one partner MemC per MME");
static_assert(kNumMemA == kNumMme / 2 && kNumMemB == kNumMme / 2,
              "one MemA/MemB pair per two MMEs");

// Link widths in bytes per PL tick (260 MHz: 1 GB/s = ~3.85 B/tick).
/// DDR FU -> MemA/MemB/MemC (~33 GB/s).
inline constexpr double kDdrToMemWidth = 127;
/// LPDDR FU -> MemB/MemC.
inline constexpr double kLpddrToMemWidth = 127;
/// MemA/MemB/MemC -> mesh (~100 GB/s).
inline constexpr double kMemToMeshWidth = 385;
/// MeshA -> each MME (~73 GB/s).
inline constexpr double kMeshAToMmeWidth = 280;
/// MeshB -> each MME (~50 GB/s).
inline constexpr double kMeshBToMmeWidth = 192;
/// MME -> partner MemC (~100 GB/s).
inline constexpr double kMmeToMemCWidth = 385;
/// MemC -> DDR FU store path.
inline constexpr double kMemCToDdrWidth = 127;

// Per-FU-type scratchpad capacities (Fig. 16), for reporting.
/// Per-MME AIE-local storage.
inline constexpr Bytes kMmeMemoryBytes = 590 * 1024;
inline constexpr Bytes kMemAMemoryBytes = 256 * 1024;
/// MemB0/MemB1.
inline constexpr Bytes kMemB01MemoryBytes = 512 * 1024;
inline constexpr Bytes kMemB2MemoryBytes = 256 * 1024;
inline constexpr Bytes kMemCMemoryBytes = 1024 * 1024;

/** Non-MM processing rate of one MemC (0.072 TFLOPS / 260 MHz). */
inline constexpr double kMemCFlopsPerTick = 277;

inline constexpr std::size_t kStreamDepth = 2;  ///< Chunks per stream FIFO.

/** Second-level decoder costs (isa::DecoderUnit::Config). */
inline constexpr Tick kDecoderTicksPerPacket = 4;
inline constexpr Tick kDecoderTicksPerUop = 2;

/**
 * Livelock watchdog: abort a run when one tick processes this many
 * events without time advancing (Engine::setEventsPerTickBudget).
 * The budget is far above anything a legal program reaches — the
 * full BERT-Large run averages ~30 events/tick — so it only fires
 * on genuine zero-delay wakeup cycles.
 */
inline constexpr std::uint64_t kWatchdogEventsPerTick = 50'000'000;

/** @} */

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

/**
 * What a caller varies about the machine. The datapath shape, link
 * widths, clocks and fixed costs are the constants above
 * (docs/datapath.md "Machine description").
 */
struct MachineConfig {
    mem::DramConfig ddr;
    mem::DramConfig lpddr;
    /** FP32 MACs per AIE tile per AIE cycle: the one AIE-model value a
     *  caller varies (fu::AieModelParams holds the rest). */
    double aie_macs_per_cycle = 8;

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

    mem::LayoutKind offchip_layout = mem::LayoutKind::Blocked;
    bool functional = false;  ///< Carry typed payloads through the network.

    /** Per-op element types; all-F32 by default (see PrecisionPolicy). */
    PrecisionPolicy precision;

    /** Fault-injection plan; disabled (all rates zero) by default. */
    sim::FaultSpec fault;

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
     * built: rates, the AIE MAC rate and depths that used to fail as
     * mid-run asserts (or silently misbehave) are rejected up front with
     * a diagnosable Status naming the field.
     */
    Status validate() const;

    /** The RSN-XNN prototype configuration. */
    static MachineConfig vck190(bool functional = false);
};

} // namespace rsn::core

#endif // RSN_CORE_CONFIG_HH
