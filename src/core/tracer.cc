#include "core/tracer.hh"

#include <cstdio>
#include <iterator>

namespace rsn::core {

std::string
kernelSpansToChromeJson(const RsnMachine &machine)
{
    // Indexed by KernelSpan::kind, the isa::Uop variant index.
    static constexpr const char *kKindName[] = {
        "mme", "ddr", "lpddr", "mesh", "mema", "memb", "memc"};
    static_assert(std::size(kKindName) + 1 == std::variant_size_v<isa::Uop>,
                  "one name per kernel uOP kind (Halt runs no kernel)");
    const double us_per_tick = 1e6 / kPlHz;
    std::string out = "{\"traceEvents\":[\n";
    const char *sep = "";
    for (const auto &f : machine.fus()) {
        for (const fu::KernelSpan &s : f->spans()) {
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":\"%s\",\"ts\":%.3f,\"dur\":%.3f}",
                          sep, kKindName[s.kind], f->name().c_str(),
                          s.begin * us_per_tick,
                          (s.end - s.begin) * us_per_tick);
            out += buf;
            sep = ",\n";
        }
    }
    out += "\n]}\n";
    return out;
}

} // namespace rsn::core
