#include "fu/aie_model.hh"

#include <algorithm>

#include "common/log.hh"

namespace rsn::fu {

double
AieModel::chunkCycles(std::uint32_t m, std::uint32_t k,
                      std::uint32_t n) const
{
    rsn_assert(m > 0 && k > 0 && n > 0, "empty chunk");
    const std::uint32_t macro_m = p_.grid * p_.native_m;
    const std::uint32_t macro_k = p_.grid * p_.native_k;
    const std::uint32_t macro_n = p_.grid * p_.native_n;

    auto ceil_div = [](std::uint32_t a, std::uint32_t b) {
        return (a + b - 1) / b;
    };

    // Partial waves along M/N pay the full wave (idle lanes); partial K
    // shortens the per-tile accumulation loop.
    const std::uint32_t im = ceil_div(m, macro_m);
    const std::uint32_t in = ceil_div(n, macro_n);

    const double out_bytes = double(p_.native_m) * p_.native_n *
                             sizeof(float);
    const double overhead = p_.overhead_base +
                            out_bytes / p_.drain_bytes_per_cycle;

    double total = 0;
    for (std::uint32_t ik = 0; ik * macro_k < k; ++ik) {
        std::uint32_t ek = std::min<std::uint32_t>(macro_k,
                                                   k - ik * macro_k);
        // Cascade splits K over `grid` tiles.
        std::uint32_t per_tile_k = ceil_div(ek, p_.grid);
        double compute = double(p_.native_m) * per_tile_k * p_.native_n /
                         p_.macs_per_cycle;
        total += (compute + overhead) * im * in;
    }
    return total;
}

Tick
AieModel::chunkTicks(std::uint32_t m, std::uint32_t k,
                     std::uint32_t n) const
{
    double cycles = chunkCycles(m, k, n);
    auto t = ceilTicks(cycles * kPlHz / kAieHz);
    return t ? t : 1;
}

double
AieModel::steadyGflops(std::uint32_t m, std::uint32_t k, std::uint32_t n,
                       int mmes) const
{
    double cycles = chunkCycles(m, k, n);
    double flops = 2.0 * m * k * n;
    return flops / (cycles / kAieHz) * mmes / 1e9;
}

} // namespace rsn::fu
