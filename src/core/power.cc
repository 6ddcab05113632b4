#include "core/power.hh"

#include <algorithm>

namespace rsn::core {

std::vector<PowerRow>
PowerModel::breakdown(RsnMachine &m, const RunResult &r) const
{
    if (r.ticks == 0)
        return {};
    const double secs = r.ticks / kPlHz;

    // Activity-based utilization: kernel-resident time includes stream
    // stalls, so compute FUs scale by FLOPs against their peak and
    // movers/scratchpads by bytes against their aggregate link rate.
    auto compute_util = [&](const fu::Fu &f) {
        double peak = m.fuPeakTflops(f.id()) * 1e12 * secs;
        return peak > 0 ? std::min(1.0, f.stats().flops / peak) : 0.0;
    };
    // MemC activity tracks the MM pipeline that feeds it: one slab per
    // MME tile, plus the fused non-MM operators.
    const double mm_util = std::min(
        1.0, m.totalFlops() / (m.peakTflops() * 1e12 * secs));
    auto stream_util = [&](const fu::Fu &f) {
        double link_bytes = m.topology().aggregateBandwidth(f.id()) *
                            double(r.ticks);
        double moved = double(f.stats().bytes_in) + f.stats().bytes_out;
        return link_bytes > 0 ? std::min(1.0, moved / link_bytes) : 0.0;
    };

    std::map<std::string, double> acc;
    for (const auto &f : m.fus()) {
        double w = 0;
        switch (f->id().type) {
          case FuType::Mme:
            w = p_.mme_dynamic * compute_util(*f);
            break;
          case FuType::MemC:
            w = p_.memc_dynamic *
                std::max({compute_util(*f), stream_util(*f), mm_util});
            break;
          case FuType::MemB: w = p_.memb_dynamic * stream_util(*f);
            break;
          case FuType::MemA: w = p_.mema_dynamic * stream_util(*f);
            break;
          case FuType::Ddr:
            w = p_.ddr_dynamic *
                m.ddrChannel().utilization(r.ticks);
            break;
          case FuType::Lpddr:
            w = p_.lpddr_dynamic *
                m.lpddrChannel().utilization(r.ticks);
            break;
          case FuType::MeshA:
          case FuType::MeshB:
            w = p_.mesh_dynamic * stream_util(*f);
            break;
          default: break;
        }
        std::string key = f->id().type == FuType::MeshA ? "MeshA"
                          : f->id().type == FuType::MeshB
                              ? "MeshB"
                              : fuTypeName(f->id().type);
        if (f->id().type == FuType::Mme)
            key = "AIE";
        acc[key] += w;
    }
    // Decoder activity scales with instruction processing.
    double dec_util =
        r.ticks ? std::min(1.0, double(m.decoder().uopsIssued()) *
                                    kDecoderTicksPerUop /
                                    r.ticks)
                : 0.0;
    acc["Decoder"] = p_.decoder_dynamic * dec_util;

    double total = 0;
    for (auto &[k, v] : acc)
        total += v;

    std::vector<PowerRow> rows;
    for (auto &[k, v] : acc)
        rows.push_back({k, v, total > 0 ? v / total * 100.0 : 0.0});
    std::sort(rows.begin(), rows.end(),
              [](const PowerRow &a, const PowerRow &b) {
                  return a.watts > b.watts;
              });
    return rows;
}

double
PowerModel::dynamicWatts(RsnMachine &m, const RunResult &r) const
{
    double total = 0;
    for (const auto &row : breakdown(m, r))
        total += row.watts;
    return total;
}

double
PowerModel::operatingWatts(RsnMachine &m, const RunResult &r) const
{
    return dynamicWatts(m, r) + p_.board_static;
}

double
PowerModel::energyJ(RsnMachine &m, const RunResult &r, bool dynamic) const
{
    double w = dynamic ? dynamicWatts(m, r) : operatingWatts(m, r);
    return w * r.ms / 1e3;
}

} // namespace rsn::core
