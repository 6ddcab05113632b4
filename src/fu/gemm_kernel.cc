#include "fu/gemm_kernel.hh"

namespace rsn::fu {

void
gemmRefAccumulate(float *acc, const float *lhs, const float *rhs,
                  std::uint32_t m, std::uint32_t k, std::uint32_t n)
{
    // An empty product reads no operand: callers may pass dummies.
    if (m == 0 || k == 0 || n == 0)
        return;
    for (std::uint32_t i = 0; i < m; ++i) {
        const float *lrow = lhs + std::size_t(i) * k;
        float *dst = acc + std::size_t(i) * n;
        for (std::uint32_t kk = 0; kk < k; ++kk) {
            const float av = lrow[kk];
            if (av == 0.f)
                continue;
            const float *rrow = rhs + std::size_t(kk) * n;
            for (std::uint32_t j = 0; j < n; ++j)
                dst[j] += av * rrow[j];
        }
    }
}

} // namespace rsn::fu
