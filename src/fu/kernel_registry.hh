/**
 * @file
 * Runtime kernel dispatch: one binary for every microarch.
 *
 * The payload kernels — the blocked GEMM microkernel
 * (fu/gemm_kernel.hh), the vectorized nonlinear layer, the tile
 * transposes and the dtype conversions — are written once, as templates
 * on the vector width (src/fu/kernels/kernels_vector.cc), and compiled
 * once per table under a function-level `[[gnu::target]]`: avx512
 * (16 lanes) and avx2 (8 lanes) on x86, and portable (4 lanes) at the
 * baseline ISA, which is NEON on aarch64. The default build contains
 * them all, and no vector instruction leaks into baseline-ISA code.
 * Each table is one **KernelTable** of plain function pointers.
 *
 * runnableTables() lists the compiled-in tables this CPU runs, best
 * first, the way ref::runnableVariants() lists the oracle's variants:
 * built once from the compiler runtime's `__builtin_cpu_supports`,
 * which already folds in the OS-state (XCR0) check that the CPU's
 * ymm/zmm registers are saved. The front table is active by default;
 * `RSN_ISA=avx512|avx2|portable|scalar` picks another at first
 * use (a value that names no runnable table warns once and keeps the
 * front), and rsn-sim `--isa` / select() picks one strictly.
 *
 * The `scalar` table is the **exact reference path**: the pre-blocked
 * scalar GEMM loop (fu::gemmRefAccumulate) and the exact libm
 * nonlinear kernels (fu/nonlinear.hh). It is what the golden numeric
 * tier runs and what property tests compare every other table against;
 * it is always last, so it is never active unless asked for.
 *
 * ## Dispatch cost
 *
 * The table call replaces calls that were already out of line at
 * microkernel-block / whole-tile granularity (an indirect call per
 * gemmAccumulate / per fused-operator segment), so dispatch overhead
 * is noise. `active()` is one pointer load plus a never-taken null
 * branch; selection code is `[[gnu::cold]]` so it cannot starve the
 * LTO inline budget of the hot paths.
 *
 * ## Numerics
 *
 * Table choice moves *payload values only*, never simulated time: the
 * golden tick counts are bit-exact under every table
 * (tests/lib/test_golden_e2e.cc). Transpose is pure data movement and
 * bit-identical across tables; GEMM and the nonlinear operators follow
 * the documented tolerance policy vs the scalar reference
 * (fu/gemm_kernel.hh, docs/datapath.md).
 *
 * ## Threading
 *
 * active() is safe for concurrent first use. Selection (select,
 * ScopedIsaOverride) is **main-thread-only, with no sweep running**: a
 * mid-sweep switch would hand different lanes different kernel tables
 * and break the bit-identical --jobs guarantee.
 */

#ifndef RSN_FU_KERNEL_REGISTRY_HH
#define RSN_FU_KERNEL_REGISTRY_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/dtype.hh"
#include "common/status.hh"

namespace rsn::fu {
class GemmScratch;
}

namespace rsn::kernel {

/**
 * One ISA variant's dispatch table: plain function pointers, filled in
 * by src/fu/kernels/kernels_vector.cc or kernels_scalar.cc. All entries
 * are always non-null. Contracts match the functions they replace:
 * gemm_accumulate is fu/gemm_kernel.hh's blocked product (tolerance
 * policy there), the row-wise operators follow fu/nonlinear.hh
 * including the rows==0 / cols==0 no-op guards, and transpose writes
 * dst(cols x rows) = src(rows x cols)^T — pure data movement,
 * bit-identical across every table, dst must not alias src.
 */
struct KernelTable {
    /** "avx512", "avx2", "portable" or "scalar": the RSN_ISA / --isa
     *  vocabulary. */
    const char *name;
    /** True only for the scalar table: results are the exact reference
     *  semantics (golden numeric tier, property-test baseline). */
    bool exact;

    void (*gemm_accumulate)(fu::GemmScratch &scratch, float *acc,
                            const float *lhs, const float *rhs,
                            std::uint32_t m, std::uint32_t k,
                            std::uint32_t n);
    void (*softmax_rows)(float *tile, std::uint32_t rows,
                         std::uint32_t cols);
    void (*gelu_inplace)(float *tile, std::size_t n);
    void (*layernorm_rows)(float *tile, std::uint32_t rows,
                           std::uint32_t cols);
    void (*transpose)(float *dst, const float *src, std::uint32_t rows,
                      std::uint32_t cols);

    // --- typed-tile entries ------------------------------------------
    //
    // The conversion routines are the dtype boundary of the datapath
    // (DDR/LPDDR convert-on-load/store, MemC's upconvert-before-fused-
    // ops pass, MME operand upconversion). Every table inlines the SAME
    // scalar bit manipulation from common/dtype.hh — only the loop
    // around it is per-ISA — so conversions are **bit-identical across
    // tables** (tests/fu/test_dtype_kernels.cc pins this), unlike the
    // tolerance-governed GEMM/nonlinear entries.

    /** dst[i] = bf16ToF32(src[i]) for @p n elements (exact; dst must
     *  not alias src). */
    void (*bf16_to_f32)(float *dst, const std::uint16_t *src,
                        std::uint64_t n);
    /** dst[i] = f32ToBf16(src[i]) for @p n elements (RNE rounding per
     *  common/dtype.hh; dst must not alias src). */
    void (*f32_to_bf16)(std::uint16_t *dst, const float *src,
                        std::uint64_t n);
    /**
     * BF16 GEMM, FP32 accumulation: acc(m x n, f32) += lhs(m x k, bf16)
     * @ rhs(k x n, bf16). Operands upconvert on the fly (the LHS pack
     * pass fuses the conversion; the RHS converts into a scratch
     * panel), products and sums stay FP32 end to end — the
     * accumulate-in-FP32 contract of docs/datapath.md. Tolerance vs
     * the scalar reference matches gemm_accumulate (same chains over
     * the upconverted values).
     */
    void (*gemm_accumulate_bf16)(fu::GemmScratch &scratch, float *acc,
                                 const std::uint16_t *lhs,
                                 const std::uint16_t *rhs,
                                 std::uint32_t m, std::uint32_t k,
                                 std::uint32_t n);
    /** 16-bit tile transpose (MemB on bf16 tiles): same contract as
     *  transpose — pure data movement, bit-identical across tables. */
    void (*transpose_u16)(std::uint16_t *dst, const std::uint16_t *src,
                          std::uint32_t rows, std::uint32_t cols);
};

/**
 * The tables compiled into this binary that this CPU runs, best first:
 * avx512 (x86, needs avx512f), avx2 (x86, needs avx2 and fma),
 * portable, and the exact scalar table last. Built once.
 */
std::span<const KernelTable *const> runnableTables();

/** What RSN_ISA selects: a table, plus why the value was ignored. */
struct EnvChoice {
    const KernelTable *table;
    std::string warning;  ///< Empty when the value was used (or unset).
};

/**
 * The RSN_ISA rule as a pure function: @p value (null or empty when
 * unset) selects the table of that name in @p runnable; a value that
 * names none of them falls back to runnable.front() with a warning.
 */
EnvChoice envChoice(const char *value,
                    std::span<const KernelTable *const> runnable);

namespace detail {
/** Active-table pointer behind active(); null only before first use.
 *  Atomic so concurrent first use from sweep lanes is a clean race:
 *  every table is a constant-initialized const global, so a relaxed
 *  load of the pointer is enough. */
extern std::atomic<const KernelTable *> g_active;
[[gnu::cold]] const KernelTable &activeSlow();
} // namespace detail

/**
 * The active dispatch table — the hot accessor the MME / Mem FUs call
 * through. One pointer load; the null branch is taken once, at first
 * use, where RSN_ISA is applied. Safe to call from any sweep lane.
 */
inline const KernelTable &
active()
{
    const KernelTable *t =
        detail::g_active.load(std::memory_order_relaxed);
    if (t) [[likely]]
        return *t;
    return detail::activeSlow();
}

/**
 * Select a runnable table by name (rsn-sim --isa). Strict, unlike
 * RSN_ISA: a name that is not a runnable table returns InvalidConfig,
 * naming the runnable ones, and leaves the selection unchanged.
 */
[[gnu::cold]] Status select(std::string_view name);

/** RAII selection pin for tests and benches: activates @p table (take
 *  it from runnableTables()) and restores the previous table. */
class ScopedIsaOverride
{
  public:
    explicit ScopedIsaOverride(const KernelTable &table);
    ~ScopedIsaOverride();
    ScopedIsaOverride(const ScopedIsaOverride &) = delete;
    ScopedIsaOverride &operator=(const ScopedIsaOverride &) = delete;

  private:
    const KernelTable *prev_;
};

} // namespace rsn::kernel

#endif // RSN_FU_KERNEL_REGISTRY_HH
