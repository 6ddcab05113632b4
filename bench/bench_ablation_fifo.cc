/**
 * @file
 * Ablation: decoder FIFO depth vs deadlock (paper Sec. 3.3).
 *
 * "A deadlock may occur if the fetch unit stalls before fetching the
 * instruction that directs FU2 to consume the data from FU1... we report
 * that setting FIFO depths to six between uOP and mOP decoders is
 * deadlock-free in our implementation."
 *
 * This bench sweeps the uOP-queue and packet-FIFO depths on the
 * BERT-Large encoder program and reports completion and latency.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "core/report.hh"

using namespace rsn;
using rsn::core::Table;

namespace {

const char *
outcome(const Status &s)
{
    switch (s.code) {
      case StatusCode::Ok: return "completed";
      case StatusCode::Deadlock: return "DEADLOCK";
      default: return "timeout";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const lib::SweepExecutor executor(bench::benchJobs(argc, argv));
    core::banner("Ablation: decoder FIFO depth (Sec. 3.3 deadlock "
                 "discussion)");

    // Deadlocked points leave non-resettable machines; the lane simply
    // rebuilds, so DEADLOCK rows are safe to sweep in parallel too.
    const std::vector<std::size_t> uop_depths{2, 3, 4, 6, 8, 16};
    const std::vector<std::size_t> pkt_depths{1, 2, 6, 12};
    std::vector<bench::SweepJob> jobs;
    for (std::size_t uop_depth : uop_depths) {
        auto cfg = core::MachineConfig::vck190();
        cfg.uop_fifo_depth = uop_depth;
        // Every FU's uOP queue is built at this depth, and codegen keeps
        // its interleave block below it, so the shared decoder never
        // wedges on one FU's full queue.
        jobs.push_back({lib::bertLargeEncoder(6, 512, true, 1),
                        lib::ScheduleOptions::optimized(), cfg});
    }
    for (std::size_t pkt_depth : pkt_depths) {
        auto cfg = core::MachineConfig::vck190();
        cfg.fetch_fifo_depth = pkt_depth;
        jobs.push_back({lib::bertLargeEncoder(6, 512, true, 1),
                        lib::ScheduleOptions::optimized(), cfg});
    }
    const auto runs = bench::runSweepPoints(executor, jobs);

    Table t("BERT-Large encoder (S=512, B=6), optimized schedule");
    t.header({"uOP FIFO depth", "packet FIFO depth", "outcome",
              "latency ms"});
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto &cfg = jobs[i].cfg;
        const auto &r = runs[i];
        t.row({std::to_string(cfg.uop_fifo_depth),
               std::to_string(cfg.fetch_fifo_depth), outcome(r.status),
               r.status.ok() ? Table::num(r.result.ms, 2) : "-"});
    }
    t.print();

    // The deadlock is shape-dependent: the sequential-attention program
    // at B=2 needs more fetch slack than the paper's depth 6 provides
    // under this generator's packing.
    const std::vector<std::size_t> shape_depths{4, 6, 8, 12};
    std::vector<bench::SweepJob> shape_jobs;
    for (std::size_t pkt_depth : shape_depths) {
        auto cfg = core::MachineConfig::vck190();
        cfg.fetch_fifo_depth = pkt_depth;
        shape_jobs.push_back({lib::bertLargeEncoder(2, 128, true, 1),
                              lib::ScheduleOptions::bwOptimized(), cfg});
    }
    const auto shape_runs = bench::runSweepPoints(executor, shape_jobs);

    Table s("Shape sensitivity: B=2, S=128, BW-optimized schedule");
    s.header({"packet FIFO depth", "outcome", "latency ms"});
    for (std::size_t i = 0; i < shape_jobs.size(); ++i) {
        const auto &r = shape_runs[i];
        s.row({std::to_string(shape_depths[i]), outcome(r.status),
               r.status.ok() ? Table::num(r.result.ms, 2) : "-"});
    }
    s.print();

    std::printf("\nNote: a run that quiesces with blocked FUs is "
                "reported as DEADLOCK by the machine's stall detector "
                "rather than hanging, so the sweep is safe to "
                "automate.\n");
    return 0;
}
