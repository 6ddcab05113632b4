/**
 * @file
 * Table 11 reproduction: BERT-Large latency vs off-chip bandwidth
 * (SeqLen = 384, Batch = 8, 24 encoders), with the 0.5x/1x/2x/3x sweep
 * plus the infinite-bandwidth and infinite-compute bounds.
 * Paper: 704 / 444 / 387 / 372 ms; inf-BW 349 ms; inf-compute 311 ms;
 * 78.6% of peak bandwidth utilized at 1x.
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"
#include "core/report.hh"

using namespace rsn;
using rsn::core::Table;

int
main(int argc, char **argv)
{
    core::banner("Table 11: bandwidth sweep (BERT-Large, S=384, B=8)");

    struct Row {
        const char *name;
        double bw, compute;
        double paper_ms;
    };
    const Row rows[] = {
        {"Infinite BW", 1000.0, 1.0, 349},
        {"Infinite compute", 1.0, 1000.0, 311},
        {"0.5x BW", 0.5, 1.0, 704},
        {"1x BW", 1.0, 1.0, 444},
        {"2x BW", 2.0, 1.0, 387},
        {"3x BW", 3.0, 1.0, 372},
    };
    constexpr std::size_t kBase = 3;  // "1x BW": the speedup baseline.

    // One full BERT-Large = 24 encoders; simulate one and scale.
    std::vector<bench::SweepJob> jobs;
    for (const auto &r : rows) {
        auto cfg = core::MachineConfig::vck190();
        cfg.ddr.read_gbps *= r.bw;
        cfg.ddr.write_gbps *= r.bw;
        cfg.lpddr.read_gbps *= r.bw;
        cfg.lpddr.write_gbps *= r.bw;
        cfg.aie.macs_per_cycle *= r.compute;
        jobs.push_back({lib::bertLargeEncoder(8, 384, true, 1),
                        lib::ScheduleOptions::optimized(), cfg});
    }
    const auto runs = bench::runSweepPoints(
        lib::SweepExecutor(bench::benchJobs(argc, argv)), jobs);

    const double base_ms = runs[kBase].result.ms * 24;
    Table t("Latency vs bandwidth scaling");
    t.header({"Scenario", "paper ms", "sim ms", "paper speedup",
              "sim speedup"});
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const double ms = runs[i].result.ms * 24;
        t.row({rows[i].name, Table::num(rows[i].paper_ms, 0),
               Table::num(ms, 0), Table::num(444.0 / rows[i].paper_ms, 2),
               Table::num(base_ms / ms, 2)});
    }
    t.print();

    // Bandwidth utilization at 1x (paper: 78.6% of peak).
    const auto &base = runs[kBase];
    const double moved_mb =
        base.ddr_read_mb + base.ddr_write_mb + base.lpddr_read_mb;
    const double secs = base.result.ms / 1e3;
    const double peak = (25.6 + 32.0) * 1e9;  // board peak, both channels
    std::printf("\nPeak-bandwidth utilization at 1x: %.1f%% "
                "(paper: 78.6%% of peak)\n",
                100.0 * moved_mb * 1e6 / secs / peak);
    return 0;
}
