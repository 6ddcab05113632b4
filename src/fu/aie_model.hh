/**
 * @file
 * Analytical-empirical timing model of one MME (a virtualized AIE group).
 *
 * An MME is a 4x4x4 group of 64 AIE tiles (paper Fig. 17): 4-way splits of
 * the M and N dimensions and a 4-deep cascade along K, sharing LHS/RHS
 * streams 4x and chaining outputs so the group fits the PL<->AIE stream
 * budget. Each AIE tile runs a native (nm x nk x nn) FP32 kernel at
 * 8 MACs/cycle (1.25 GHz).
 *
 * Per macro-iteration cost = nm*nk*nn/8 compute cycles + a fixed kernel
 * overhead + an output-drain term proportional to the per-tile output
 * bytes. The two overhead constants are calibrated so the model reproduces
 * the paper's measured single-GEMM throughputs (Table 6a) to <1%:
 * 6.78 TFLOPS for 32x32x32, 6.31 for 32x32x16, 6.10 for 32x16x32.
 */

#ifndef RSN_FU_AIE_MODEL_HH
#define RSN_FU_AIE_MODEL_HH

#include <cstdint>

#include "common/types.hh"

namespace rsn::fu {

struct AieModelParams {
    int grid = 4;              ///< Tiles per dimension (grid^3 per MME).
    int native_m = 32;         ///< Per-tile kernel M.
    int native_k = 32;         ///< Per-tile kernel K.
    int native_n = 32;         ///< Per-tile kernel N.
    double macs_per_cycle = 8; ///< FP32 MACs per tile per AIE cycle.
    double overhead_base = 350;     ///< Fixed cycles per macro-iteration.
    double drain_bytes_per_cycle = 21.33;  ///< Output drain rate.

    bool operator==(const AieModelParams &) const = default;
};

class AieModel
{
  public:
    explicit AieModel(AieModelParams p = {}) : p_(p) {}

    const AieModelParams &params() const { return p_; }

    /** AIE tiles used by one MME. */
    int tilesPerMme() const { return p_.grid * p_.grid * p_.grid; }

    /** Peak FP32 throughput of one MME in FLOPS. */
    double peakFlopsPerMme() const
    {
        return tilesPerMme() * p_.macs_per_cycle * 2.0 * kAieHz;
    }

    /**
     * AIE cycles for one MME to process an (m x k x n) chunk pair,
     * including partial-wave rounding along M/N and shortened accumulation
     * along K.
     */
    double chunkCycles(std::uint32_t m, std::uint32_t k,
                       std::uint32_t n) const;

    /** PL ticks for the same chunk (cycles scaled by clock ratio). */
    Tick chunkTicks(std::uint32_t m, std::uint32_t k,
                    std::uint32_t n) const;

    /**
     * Steady-state throughput in GFLOPS for a group of @p mmes engines
     * processing a large (m x k x n) matrix multiply with no memory
     * bottleneck (Table 6a conditions).
     */
    double steadyGflops(std::uint32_t m, std::uint32_t k, std::uint32_t n,
                        int mmes) const;

  private:
    AieModelParams p_;
};

} // namespace rsn::fu

#endif // RSN_FU_AIE_MODEL_HH
