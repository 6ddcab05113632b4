/**
 * @file
 * Table 10 reproduction: RSN-XNN on the VCK190 vs T4 / V100 / A100 / L4
 * GPUs on BERT-Large (SeqLen = 384): latency by batch, energy
 * efficiency, and DRAM traffic. GPU rows come from the roofline model
 * beside the paper's published measurements.
 */

#include <cstdio>

#include "baseline/gpu.hh"
#include "bench/bench_util.hh"
#include "core/power.hh"
#include "core/report.hh"

using namespace rsn;
using rsn::core::Table;

int
main()
{
    core::banner("Table 10: BERT-Large (S=384) vs GPUs");

    const std::uint32_t batches[] = {1, 2, 4, 8};
    // Paper-reported VCK190 latencies for reference.
    const double paper_vck[] = {95, 122, 220, 444};

    // Simulate the encoder per batch; full model = 24 encoders.
    double vck_ms[4];
    double vck_tflops_b8 = 0;
    core::PowerModel power;
    double op_w = 0, dyn_w = 0, dram_gb = 0;
    for (int i = 0; i < 4; ++i) {
        core::RsnMachine mach(core::MachineConfig::vck190());
        auto compiled = lib::compileModel(
            mach, lib::bertLargeEncoder(batches[i], 384, true, 1),
            lib::ScheduleOptions::optimized());
        auto r = mach.runChecked(compiled.program).result;
        vck_ms[i] = r.ms * 24;
        if (batches[i] == 8) {
            vck_tflops_b8 = mach.achievedTflops(r);
            op_w = power.operatingWatts(mach, r);
            dyn_w = power.dynamicWatts(mach, r);
            dram_gb = (mach.ddrChannel().bytesRead() +
                       mach.ddrChannel().bytesWritten() +
                       mach.lpddrChannel().bytesRead()) *
                      24 / 1e9;
        }
    }

    Table t("Latency (ms) by batch size: model/sim vs paper");
    t.header({"Device", "Peak TF", "BW GB/s", "B=1", "B=2", "B=4", "B=8",
              "B=8 paper"});
    for (const auto &spec : baseline::table10Gpus()) {
        baseline::GpuModel gpu(spec);
        std::vector<std::string> cells = {
            spec.name + " (" + spec.precision + ", model)",
            core::Table::num(spec.peak_tflops, 1),
            core::Table::num(spec.bw_gbs, 0)};
        for (std::uint32_t b : batches)
            cells.push_back(Table::num(gpu.bertLatencyMs(384, b), 0));
        cells.push_back(Table::num(spec.paper_latency_ms[3], 0));
        t.row(cells);
    }
    {
        std::vector<std::string> cells = {"VCK190 RSN-XNN (sim)", "8.0",
                                          "57.6"};
        for (int i = 0; i < 4; ++i)
            cells.push_back(Table::num(vck_ms[i], 0));
        cells.push_back(Table::num(444, 0));
        t.row(cells);
        t.row({"VCK190 RSN-XNN (paper)", "8.0", "57.6",
               Table::num(paper_vck[0], 0), Table::num(paper_vck[1], 0),
               Table::num(paper_vck[2], 0), Table::num(paper_vck[3], 0),
               "444"});
    }
    t.print();

    core::banner("Energy efficiency at B=8 (Seq/J)");
    Table e("Operating / dynamic efficiency");
    e.header({"Device", "Operating W", "Dynamic W", "Opt Seq/J",
              "Dyn Seq/J", "DRAM GB"});
    for (const auto &spec : baseline::table10Gpus()) {
        baseline::GpuModel gpu(spec);
        e.row({spec.name, Table::num(spec.operating_w, 0),
               Table::num(spec.dynamic_w, 0),
               Table::num(gpu.efficiencySeqPerJ(384, 8, false), 2),
               Table::num(gpu.efficiencySeqPerJ(384, 8, true), 2),
               spec.paper_dram_gb
                   ? Table::num(gpu.bertDramGb(384, 8), 0) + " (paper " +
                         Table::num(spec.paper_dram_gb, 0) + ")"
                   : "-"});
    }
    {
        double opt_eff = 8.0 / (vck_ms[3] / 1e3 * op_w);
        double dyn_eff = 8.0 / (vck_ms[3] / 1e3 * dyn_w);
        e.row({"VCK190 RSN-XNN (sim)", Table::num(op_w, 1),
               Table::num(dyn_w, 1), Table::num(opt_eff, 2),
               Table::num(dyn_eff, 2),
               Table::num(dram_gb, 0) + " (paper 12)"});
        e.row({"VCK190 RSN-XNN (paper)", "45.5", "18.2", "0.40", "0.99",
               "12"});
    }
    e.print();

    std::printf("\nAchieved FP32 at B=8: %.2f TFLOPS; paper highlights "
                "matching T4 latency with 18%% of its bandwidth and "
                "2.1x A100 FP32 operating efficiency.\n",
                vck_tflops_b8);
    return 0;
}
