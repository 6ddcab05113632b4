/**
 * @file
 * Reference FP32 implementations used to validate the streamed datapath.
 *
 * These are deliberately independent of the FU implementations (different
 * loop structures, no shared helpers) so a bug in the datapath math cannot
 * hide behind a shared subroutine. They play the role of the paper's
 * python_gold reference outputs (Artifact Appendix A.6).
 */

#ifndef RSN_REF_REF_MATH_HH
#define RSN_REF_REF_MATH_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace rsn::ref {

/** Row-major matrix with shape bookkeeping. */
struct Matrix {
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    std::vector<float> data;

    Matrix() = default;
    Matrix(std::uint32_t r, std::uint32_t c)
        : rows(r), cols(c), data(std::size_t(r) * c, 0.f)
    {}
    /** Wrap a raw row-major payload (e.g. a pooled chunk tile). */
    Matrix(std::uint32_t r, std::uint32_t c, const float *src)
        : rows(r), cols(c), data(src, src + std::size_t(r) * c)
    {}

    float &at(std::uint32_t r, std::uint32_t c)
    {
        return data[std::size_t(r) * cols + c];
    }
    float at(std::uint32_t r, std::uint32_t c) const
    {
        return data[std::size_t(r) * cols + c];
    }
};

/** Deterministic pseudo-random matrix in [-scale, scale] (xorshift). */
Matrix randomMatrix(std::uint32_t rows, std::uint32_t cols,
                    std::uint32_t seed, float scale = 1.0f);

/** Write randomMatrix()'s values for a matrix of out.size() elements
 *  into @p out, in place (a seeded host region). */
void fillRandom(std::span<float> out, std::uint32_t seed,
                float scale = 1.0f);

/** C = A * B in FP32, each element summed from +0 in ascending k (so
 *  any loop order that keeps that rule is bit-identical). */
Matrix matmul(const Matrix &a, const Matrix &b);

/** C = A * B^T, computed as matmul(A, transpose(B)). */
Matrix matmulBt(const Matrix &a, const Matrix &b);

/** Transpose. */
Matrix transpose(const Matrix &a);

/** Add a row vector (bias) to every row. */
Matrix addBias(const Matrix &a, const std::vector<float> &bias);

/** Element-wise sum. */
Matrix add(const Matrix &a, const Matrix &b);

/** Row-wise softmax. */
Matrix softmax(const Matrix &a);

/** Element-wise exact GELU. */
Matrix gelu(const Matrix &a);

/** Row-wise LayerNorm with gamma/beta (eps = 1e-5). */
Matrix layernorm(const Matrix &a, const std::vector<float> &gamma,
                 const std::vector<float> &beta);

/**
 * Compare matrices with combined absolute/relative tolerance.
 * @return true when all elements agree; fills @p why on mismatch.
 */
bool allclose(const Matrix &a, const Matrix &b, float rtol, float atol,
              std::string *why = nullptr);

/**
 * allclose()'s decision for equal-length payloads, in one branch-free
 * pass the compiler vectorizes: the same per-element predicate, no
 * early exit and no diagnostics. Rerun allclose() on false to name the
 * first diverged element.
 */
bool allcloseFast(std::span<const float> a, std::span<const float> b,
                  float rtol, float atol);

/** Max absolute element difference. */
float maxAbsDiff(const Matrix &a, const Matrix &b);

/**
 * One instruction-set variant of the oracle's vector loops. matmul(),
 * allcloseFast() and fillRandom() run the best variant the CPU
 * supports, chosen by cpuid on first use. Every variant gives the same
 * bits: ref_math.cc builds with -ffp-contract=off, so each step stays
 * one FP32 multiply and one FP32 add, never a fused multiply-add.
 */
struct Variant {
    const char *isa;  ///< "avx512f", "avx2" or "baseline".
    Matrix (*matmul)(const Matrix &a, const Matrix &b);
    bool (*allcloseFast)(std::span<const float> a,
                         std::span<const float> b, float rtol, float atol);
    void (*fillRandom)(std::span<float> out, std::uint32_t seed,
                       float scale);
};

/** The variants this CPU can run, best first: the first is the one
 *  matmul(), allcloseFast() and fillRandom() call. Tests run every
 *  one. */
std::span<const Variant> runnableVariants();

} // namespace rsn::ref

#endif // RSN_REF_REF_MATH_HH
