/**
 * @file
 * Element types carried by the typed-tile datapath.
 *
 * A Dtype tags tile payloads, chunks, and the load/store uOPs with the
 * on-wire element width, so `Chunk::bytes()` — and therefore stream
 * transfer time and DRAM traffic — is byte-true: a bf16 tile genuinely
 * halves link and memory time relative to FP32. Host memory stays FP32
 * "truth"; typed tiles exist only on the device side, converted at the
 * DDR/LPDDR boundary (docs/datapath.md, "Typed tiles & precision
 * policy").
 *
 * The scalar converters below are the single source of truth for every
 * kernel table: each table (src/fu/kernels/) inlines the same
 * bit-manipulation under its own target ISA, so conversion results
 * are bit-identical across tables by construction — pure integer
 * rounding, no FP environment dependence.
 *
 *  - f32 -> bf16 truncates the mantissa with round-to-nearest-even
 *    (the tie-away bias of plain truncation measurably drifts GEMM
 *    accumulations); NaNs are quieted so rounding cannot turn a NaN
 *    payload into infinity.
 *  - bf16 -> f32 is exact.
 */

#ifndef RSN_COMMON_DTYPE_HH
#define RSN_COMMON_DTYPE_HH

#include <bit>
#include <cstdint>

namespace rsn {

/** Element type of a tile / chunk payload. The wire keeps a 2-bit
 *  field for it; codes past Bf16 are rejected. */
enum class Dtype : std::uint8_t {
    F32 = 0,  ///< IEEE binary32 (the host-truth format).
    Bf16,     ///< bfloat16: f32 with the low 16 mantissa bits dropped.
};

inline constexpr int kNumDtypes = 2;

/** Bytes per element on the wire / in DRAM. */
constexpr std::uint32_t
dtypeBytes(Dtype d)
{
    return d == Dtype::F32 ? 4 : 2;
}

/** Stable lowercase name: "f32" or "bf16" (the bench label
 *  vocabulary). */
constexpr const char *
dtypeName(Dtype d)
{
    return d == Dtype::F32 ? "f32" : "bf16";
}

// ------------------------------------------------------- converters --
//
// Both are branch-light pure bit manipulation so the per-ISA kernel
// TUs auto-vectorize the conversion loops without any table-specific
// code — and so every table produces bit-identical conversions.

/** f32 -> bf16 with round-to-nearest-even; NaN quieted. */
inline std::uint16_t
f32ToBf16(float x)
{
    std::uint32_t bits = std::bit_cast<std::uint32_t>(x);
    if ((bits & 0x7f800000u) == 0x7f800000u && (bits & 0x007fffffu)) {
        // NaN: keep it a NaN after truncation (set a high mantissa bit
        // instead of rounding, which could carry into the exponent).
        return static_cast<std::uint16_t>((bits >> 16) | 0x0040u);
    }
    bits += 0x7fffu + ((bits >> 16) & 1u);  // RNE on the dropped half
    return static_cast<std::uint16_t>(bits >> 16);
}

/** bf16 -> f32 (exact). */
inline float
bf16ToF32(std::uint16_t x)
{
    return std::bit_cast<float>(static_cast<std::uint32_t>(x) << 16);
}

} // namespace rsn

#endif // RSN_COMMON_DTYPE_HH
