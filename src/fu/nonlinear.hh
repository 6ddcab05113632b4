/**
 * @file
 * Non-MM operators executed inside MemC FUs (paper Table 2): Softmax,
 * GELU, LayerNorm (mean/variance/normalization), scale & shift, and
 * residual add. These are the streaming implementations used by the
 * datapath; tests validate them against the independent naive versions in
 * src/ref.
 *
 * Every operator takes a raw pointer: MemC applies them in place to a
 * pooled staging tile (sim/tile_pool.hh) with no vector scratch, and
 * tests pass std::vector storage through .data()/.size().
 *
 * These are the **exact** kernels (libm erf/exp, double-precision
 * LayerNorm accumulation): the semantic reference for the vectorized
 * approximate variants in the per-ISA kernel tables
 * (fu/kernel_registry.hh), and the nonlinear entries of the `scalar`
 * table MemC runs when the exact path is selected. Degenerate shapes
 * (rows == 0 or cols == 0) are no-ops for every row-wise operator.
 */

#ifndef RSN_FU_NONLINEAR_HH
#define RSN_FU_NONLINEAR_HH

#include <cstddef>
#include <cstdint>

namespace rsn::fu {

/** Numerically-stable row-wise softmax over a rows x cols tile. */
void softmaxRows(float *tile, std::uint32_t rows, std::uint32_t cols);

/** Exact (erf-based) GELU applied element-wise to @p n values. */
void geluInplace(float *tile, std::size_t n);

/**
 * Row-wise LayerNorm: normalize each row to zero mean / unit variance
 * (eps = 1e-5). Scale & shift is applied separately so the ISA flags
 * compose the way Table 2 lists them.
 */
void layernormRows(float *tile, std::uint32_t rows, std::uint32_t cols);

/**
 * Apply gamma/beta per column: tile[r][c] = tile[r][c]*gamma[c]+beta[c].
 *
 * **Precondition:** @p gamma and @p beta must each point at >= @p cols
 * readable floats; the first @p cols of each are used. The function
 * itself cannot check this, so every caller owns the contract. The zero-copy MemC path reads both in place from the
 * 2 x cols LPDDR parameter chunk (gamma = row 0, beta = row 1) and
 * asserts the chunk's shape and payload length at the call site
 * (fu/mem_fus.cc) before forming the pointers.
 */
void scaleShiftRows(float *tile, std::uint32_t rows, std::uint32_t cols,
                    const float *gamma, const float *beta);

/** tile[i] += other[i] for i in [0, n) (element-wise residual add). */
void addInplace(float *tile, const float *other, std::size_t n);

/** @{ FLOP-per-element costs used for MemC timing and the power model. */
inline constexpr double kSoftmaxFlopsPerElem = 5.0;
inline constexpr double kGeluFlopsPerElem = 8.0;
inline constexpr double kLayernormFlopsPerElem = 8.0;
inline constexpr double kScaleShiftFlopsPerElem = 2.0;
inline constexpr double kResidualFlopsPerElem = 1.0;
/** @} */

} // namespace rsn::fu

#endif // RSN_FU_NONLINEAR_HH
