/**
 * @file
 * Element types carried by the typed-tile datapath (ISSUE 10).
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
 *  - f32 -> f16 is full IEEE binary16 RNE including subnormal
 *    generation and overflow-to-infinity.
 *  - Upconversions (bf16/f16 -> f32) are exact.
 */

#ifndef RSN_COMMON_DTYPE_HH
#define RSN_COMMON_DTYPE_HH

#include <bit>
#include <cstdint>
#include <optional>
#include <string_view>

namespace rsn {

/** Element type of a tile / chunk payload. I8 is reserved layout space
 *  (rejected by PrecisionPolicy::validate) until a quantized path
 *  exists. */
enum class Dtype : std::uint8_t {
    F32 = 0,  ///< IEEE binary32 (the host-truth format).
    Bf16,     ///< bfloat16: f32 with the low 16 mantissa bits dropped.
    F16,      ///< IEEE binary16.
    I8,       ///< Reserved for a future quantized path.
};

inline constexpr int kNumDtypes = 4;

/** Bytes per element on the wire / in DRAM. */
constexpr std::uint32_t
dtypeBytes(Dtype d)
{
    switch (d) {
    case Dtype::F32:
        return 4;
    case Dtype::Bf16:
    case Dtype::F16:
        return 2;
    case Dtype::I8:
        return 1;
    }
    return 4;
}

/** Stable lowercase name: "f32", "bf16", "f16", "i8" (the CLI / bench
 *  label vocabulary). */
constexpr const char *
dtypeName(Dtype d)
{
    switch (d) {
    case Dtype::F32:
        return "f32";
    case Dtype::Bf16:
        return "bf16";
    case Dtype::F16:
        return "f16";
    case Dtype::I8:
        return "i8";
    }
    return "f32";
}

/** Parse a dtype name; nullopt for anything not in the vocabulary. */
inline std::optional<Dtype>
dtypeFromName(std::string_view name)
{
    if (name == "f32")
        return Dtype::F32;
    if (name == "bf16")
        return Dtype::Bf16;
    if (name == "f16")
        return Dtype::F16;
    if (name == "i8")
        return Dtype::I8;
    return std::nullopt;
}

// ------------------------------------------------------- converters --
//
// All four are branch-light pure bit manipulation so the per-ISA kernel
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

/** f32 -> IEEE binary16 with RNE, subnormals, overflow -> inf. */
inline std::uint16_t
f32ToF16(float x)
{
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(x);
    const std::uint16_t sign =
        static_cast<std::uint16_t>((bits >> 16) & 0x8000u);
    const std::uint32_t abs = bits & 0x7fffffffu;

    if (abs >= 0x7f800000u) {  // inf / NaN
        const std::uint16_t mant =
            (abs & 0x007fffffu) ? 0x0200u : 0u;  // quiet NaN payload
        return static_cast<std::uint16_t>(sign | 0x7c00u | mant);
    }
    if (abs >= 0x477ff000u) {  // rounds to >= 2^16: overflow -> inf
        return static_cast<std::uint16_t>(sign | 0x7c00u);
    }
    if (abs < 0x38800000u) {  // below the smallest f16 normal (2^-14)
        if (abs < 0x33000000u)  // below half the smallest subnormal
            return sign;
        // Subnormal: align the (implicit-1) mantissa to the f16
        // subnormal grid and round to nearest even.
        const std::uint32_t exp = abs >> 23;
        const std::uint32_t mant = (abs & 0x007fffffu) | 0x00800000u;
        const std::uint32_t shift = 126u - exp;  // in [14, 24]
        const std::uint32_t lsb = 1u << shift;
        std::uint32_t rounded = mant + (lsb >> 1) - 1u + ((mant >> shift) & 1u);
        return static_cast<std::uint16_t>(sign | (rounded >> shift));
    }
    // Normal range: rebias exponent (127 -> 15), keep 10 mantissa bits,
    // RNE on the 13 dropped bits; mantissa carry naturally increments
    // the exponent.
    std::uint32_t rounded = abs + 0x00000fffu + ((abs >> 13) & 1u);
    rounded = (rounded - 0x38000000u) >> 13;
    return static_cast<std::uint16_t>(sign | rounded);
}

/** IEEE binary16 -> f32 (exact, including subnormals and inf/NaN). */
inline float
f16ToF32(std::uint16_t x)
{
    const std::uint32_t sign = static_cast<std::uint32_t>(x & 0x8000u) << 16;
    std::uint32_t exp = (x >> 10) & 0x1fu;
    std::uint32_t mant = x & 0x03ffu;

    if (exp == 0x1fu) {  // inf / NaN
        return std::bit_cast<float>(sign | 0x7f800000u | (mant << 13));
    }
    if (exp == 0) {
        if (mant == 0)
            return std::bit_cast<float>(sign);  // signed zero
        // Subnormal: renormalize (every f16 subnormal is a f32 normal).
        const int lead = std::bit_width(mant);  // in [1, 10]
        const std::uint32_t shift = 11u - static_cast<std::uint32_t>(lead);
        mant = (mant << shift) & 0x03ffu;
        exp = 1u - shift;
    }
    return std::bit_cast<float>(sign | ((exp + 112u) << 23) | (mant << 13));
}

} // namespace rsn

#endif // RSN_COMMON_DTYPE_HH
