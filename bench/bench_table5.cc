/**
 * @file
 * Table 5 reproduction: (a) instruction-decoder area overhead and
 * (b) computation-resource utilization of RSN-XNN vs published overlay
 * designs (DFX, DLA).
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "core/area.hh"
#include "core/report.hh"

using namespace rsn;
using rsn::core::Table;

int
main(int argc, char **argv)
{
    core::banner("Table 5a: decoder area overhead");
    auto cfg = core::MachineConfig::vck190();
    auto a = core::AreaModel::decoderArea(cfg);
    core::DesignArea d;

    Table t("Decoder-unit footprint (model) vs paper");
    t.header({"Design", "Device", "LUT", "FF", "DSP", "BRAM",
              "LUT % of design"});
    t.row({"RSN-XNN (model)", "VCK190",
           std::to_string(a.lut), std::to_string(a.ff),
           std::to_string(a.dsp), std::to_string(a.bram),
           Table::pct(core::AreaModel::decoderLutPercent(cfg), 1)});
    t.row({"RSN-XNN (paper)", "VCK190", "11700", "8600", "5", "4",
           "3.0%"});
    t.row({"DFX (published)", "U280", "3000", "13000", "0", "24",
           "0.6%"});
    t.row({"DLA (published)", "Arria10", "2046 ALMs (7% of ALMs)", "-",
           "-", "-", "-"});
    t.print();

    core::banner("Table 5b: computation resource utilization");
    const auto run = bench::runSweepPoints(
        lib::SweepExecutor(bench::benchJobs(argc, argv)),
        {{lib::bertLargeEncoder(6, 512, true, 1),
          lib::ScheduleOptions::optimized()}})[0];
    Table u("Achieved vs peak FP32 performance");
    u.header({"Design", "Precision", "Peak TFLOPS", "BW GB/s",
              "Achieved TFLOPS", "Util"});
    u.row({"RSN-XNN (sim)", "FP32", "8", "57.6",
           Table::num(run.achieved_tflops, 2),
           Table::pct(run.achieved_tflops / 8.0 * 100, 0)});
    u.row({"RSN-XNN (paper)", "FP32", "8", "57.6", "4.7", "59%"});
    u.row({"DFX (published)", "FP16", "1.2", "460", "0.19", "16%"});
    u.print();
    return 0;
}
