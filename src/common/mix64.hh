/**
 * @file
 * SplitMix64 finalizer: the simulator's one stateless bit mixer. Fault
 * decisions (sim::FaultInjector) and the serving tier's arrival gaps,
 * class draws, retry jitter and per-request fault-seed salting all
 * derive from it, so a seed reproduces a run exactly.
 */

#ifndef RSN_COMMON_MIX64_HH
#define RSN_COMMON_MIX64_HH

#include <cstdint>

namespace rsn {

constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace rsn

#endif // RSN_COMMON_MIX64_HH
