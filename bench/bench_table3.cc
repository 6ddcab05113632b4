/**
 * @file
 * Table 3 reproduction: first-order latency estimates for the four
 * inter-layer mapping types (Fig. 3) on BERT-Large's attention layer
 * (B=6, S=512, 96 heads, MM1 512x64x512, MM2 512x512x64), and the
 * simulator's check of the estimator's decision.
 * Paper final latencies: A 2.43, B 10.9, C 10.9, D 2.24 ms.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "core/report.hh"
#include "lib/mapping.hh"

using namespace rsn;
using rsn::core::Table;

int
main(int argc, char **argv)
{
    core::banner("Table 3: mapping-type latency estimation "
                 "(BERT attention, B=6, S=512)");

    lib::AttentionWorkload w;       // 96 heads, 512 seq, 64 dhead
    lib::PlatformBudget budget;     // VCK190: 8 TFLOPS, 57.6 GB/s

    const double paper_final[] = {2.43, 10.9, 10.9, 2.24};
    Table t("Estimator output vs paper");
    t.header({"Mapping", "inf-FLOPS ms", "AIE util", "inf-BW ms",
              "final ms", "paper final", "traffic MB"});
    int i = 0;
    for (auto type : {lib::MappingType::LayerByLayer,
                      lib::MappingType::TaskByTask,
                      lib::MappingType::TaskParallel,
                      lib::MappingType::Pipeline}) {
        auto e = lib::estimateMapping(type, w, budget);
        t.row({lib::mappingName(type), Table::num(e.inf_flops_ms, 2),
               Table::pct(e.aie_util * 100, 0),
               Table::num(e.inf_bw_ms, 2), Table::num(e.final_ms, 2),
               Table::num(paper_final[i++], 2),
               Table::num(e.traffic_mb, 1)});
    }
    t.print();

    auto best = lib::bestMapping(w, budget);
    std::printf("\nEstimator picks: %s (paper picks type D pipeline)\n",
                lib::mappingName(best));

    // Simulator check: type-D (pipelined) vs type-A-style (sequential)
    // on the full attention block.
    const auto runs = bench::runSweepPoints(
        lib::SweepExecutor(bench::benchJobs(argc, argv)),
        {{bench::attentionModel(6, 512, 16, 64),
          lib::ScheduleOptions::bwOptimized()},
         {bench::attentionModel(6, 512, 16, 64),
          lib::ScheduleOptions::optimized()}});
    const auto &seq = runs[0], &pipe = runs[1];
    std::printf("Simulated: sequential %.2f ms vs pipelined %.2f ms "
                "(%.1fx)\n",
                seq.result.ms, pipe.result.ms,
                seq.result.ms / pipe.result.ms);

    // Segmentation rules (Sec. 4.2) on the encoder's linear layers.
    std::printf("\nSegmentation decisions (compute-bound -> run alone):\n");
    struct L {
        const char *n;
        std::uint64_t m, k, nn;
    };
    for (const L &l : {L{"QKV (fused)", 3072, 1024, 3072},
                       L{"attention MM1 (one head)", 512, 64, 512},
                       L{"FF1", 3072, 1024, 4096}}) {
        bool cb = lib::linearIsComputeBound(l.m, l.k, l.nn, budget);
        std::printf("  %-26s %s\n", l.n,
                    cb ? "compute-bound (single-MM mapping)"
                       : "memory-bound (group into pipeline)");
    }
    return 0;
}
