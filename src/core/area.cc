#include "core/area.hh"

namespace rsn::core {

AreaBreakdown
AreaModel::decoderArea(const MachineConfig &cfg)
{
    AreaBreakdown a;

    // Fetch unit: header parse + dispatch mux over the FU types.
    a.lut += 1400;
    a.ff += 900;

    // Second-level decoders: window buffer + reuse counter + mOP-to-uOP
    // expansion; DDR/LPDDR expanders carry stride generators (the paper
    // notes the customized stride fields for off-chip FUs).
    const int types = kNumFuTypes;
    a.lut += 900 * types;
    a.ff += 600 * types;
    a.dsp += 2;  // stride address generators (DDR, LPDDR)

    // Per-FU third-level decoders + uOP FIFOs.
    const int fus = kNumMme + kNumMemA + kNumMemB + kNumMemC +
                    2 /*mesh*/ + 2 /*ddr, lpddr*/;
    a.lut += 140 * fus;
    a.ff += 120 * fus;

    // Packet FIFOs (BRAM when deep, LUTRAM when shallow).
    a.bram += static_cast<std::uint32_t>(
        (cfg.fetch_fifo_depth * types + 11) / 12);
    a.dsp += 3;  // decode-rate pacing counters

    return a;
}

double
AreaModel::decoderLutPercent(const MachineConfig &cfg,
                             const DesignArea &design)
{
    AreaBreakdown a = decoderArea(cfg);
    return 100.0 * a.lut / design.lut;
}

} // namespace rsn::core
