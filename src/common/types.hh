/**
 * @file
 * Fundamental types shared across the RSN simulator.
 */

#ifndef RSN_COMMON_TYPES_HH
#define RSN_COMMON_TYPES_HH

#include <cmath>
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

/** Constructor-style ids for the RSN-XNN FU instances (paper Fig. 10). */
constexpr FuId
mme(int i)
{
    return {FuType::Mme, static_cast<std::uint8_t>(i)};
}
constexpr FuId
memA(int i)
{
    return {FuType::MemA, static_cast<std::uint8_t>(i)};
}
constexpr FuId
memB(int i)
{
    return {FuType::MemB, static_cast<std::uint8_t>(i)};
}
constexpr FuId
memC(int i)
{
    return {FuType::MemC, static_cast<std::uint8_t>(i)};
}
inline constexpr FuId kMeshA{FuType::MeshA, 0};
inline constexpr FuId kMeshB{FuType::MeshB, 0};
inline constexpr FuId kDdr{FuType::Ddr, 0};
inline constexpr FuId kLpddr{FuType::Lpddr, 0};

/** PL fabric clock of the modeled VCK190 platform (simulation tick). */
inline constexpr double kPlHz = 260e6;
/** AIE array clock of the modeled VCK190 platform. */
inline constexpr double kAieHz = 1.25e9;

/** Convert ticks (PL cycles) to milliseconds. */
inline double
ticksToMs(Tick t)
{
    return static_cast<double>(t) / kPlHz * 1e3;
}

/**
 * Round a non-negative duration up to whole ticks. A configured rate so
 * slow that the duration leaves Tick's range saturates at 2^62 ticks
 * instead of overflowing the cast: the run then times out at its
 * max_ticks like any other slow one.
 */
inline Tick
ceilTicks(double ticks)
{
    constexpr double kMax = 0x1p62;
    return ticks < kMax ? static_cast<Tick>(std::ceil(ticks)) : Tick(kMax);
}

/** Convert a GB/s bandwidth into bytes per PL tick. */
inline double
gbpsToBytesPerTick(double gbps)
{
    return gbps * 1e9 / kPlHz;
}

} // namespace rsn

#endif // RSN_COMMON_TYPES_HH
