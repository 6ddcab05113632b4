/**
 * @file
 * Fundamental types shared across the RSN simulator.
 */

#ifndef RSN_COMMON_TYPES_HH
#define RSN_COMMON_TYPES_HH

#include <cstdint>
#include <string>

namespace rsn {

/** Simulated time, measured in PL (programmable-logic) clock cycles. */
using Tick = std::uint64_t;

/** A byte count. */
using Bytes = std::uint64_t;

/** A simulated off-chip address. */
using Addr = std::uint64_t;

/** Sentinel for "no tick scheduled". */
inline constexpr Tick kTickMax = ~Tick(0);

/**
 * Functional-unit categories of the RSN-XNN datapath (paper Fig. 10).
 * Each category has its own uOP control plane (paper Table 2) and its own
 * second-level decoder.
 */
enum class FuType : std::uint8_t {
    Mme,    ///< Matrix-multiply engine (virtualized AIE group).
    MemA,   ///< LHS scratchpad.
    MemB,   ///< RHS scratchpad (transpose / bias load).
    MemC,   ///< Output scratchpad (softmax / GELU / LayerNorm).
    MeshA,  ///< LHS-side router.
    MeshB,  ///< RHS-side router.
    Ddr,    ///< Off-chip DDR mover (feature maps, load + store).
    Lpddr,  ///< Off-chip LPDDR mover (weights and bias, load only).
    NumTypes,
};

/** Number of distinct FU categories. */
inline constexpr int kNumFuTypes = static_cast<int>(FuType::NumTypes);

/** Human-readable FU type name. */
const char *fuTypeName(FuType t);

/**
 * Identifies one FU instance: a type plus an index within that type
 * (e.g. {Mme, 3} is MME3). Used in uOP source/destination fields.
 */
struct FuId {
    FuType type = FuType::NumTypes;
    std::uint8_t index = 0;

    bool valid() const { return type != FuType::NumTypes; }
    bool operator==(const FuId &o) const = default;
    std::string toString() const;
};

/** Invalid / unset FU id. */
inline constexpr FuId kNoFu{};

/** Clock frequencies of the modeled VCK190 platform. */
struct ClockSpec {
    double plHz = 260e6;    ///< PL fabric clock (simulation tick).
    double aieHz = 1.25e9;  ///< AIE array clock.

    bool operator==(const ClockSpec &) const = default;
};

/** Convert ticks (PL cycles) to milliseconds for a given PL frequency. */
inline double
ticksToMs(Tick t, double pl_hz = 260e6)
{
    return static_cast<double>(t) / pl_hz * 1e3;
}

/** Convert a GB/s bandwidth into bytes per PL tick. */
inline double
gbpsToBytesPerTick(double gbps, double pl_hz = 260e6)
{
    return gbps * 1e9 / pl_hz;
}

} // namespace rsn

#endif // RSN_COMMON_TYPES_HH
