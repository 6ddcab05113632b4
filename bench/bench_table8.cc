/**
 * @file
 * Table 8 reproduction: maximum-throughput comparison of FPGA-based
 * transformer accelerators. RSN-XNN's row is measured from the
 * simulator; the others restate published numbers (different boards and
 * precisions, as in the paper).
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "core/report.hh"

using namespace rsn;
using rsn::core::Table;

int
main(int argc, char **argv)
{
    core::banner("Table 8: FPGA transformer accelerators at max "
                 "throughput");

    const auto run = bench::runSweepPoints(
        lib::SweepExecutor(bench::benchJobs(argc, argv)),
        {{lib::bertLargeEncoder(6, 512, true, 1),
          lib::ScheduleOptions::optimized()}})[0];

    Table t("Peak vs achieved ops");
    t.header({"Design", "Board", "Precision", "Peak TOPS",
              "Achieved TOPS", "Util", "Model"});
    t.row({"RSN-XNN (sim)", "VCK190", "FP32", "8",
           Table::num(run.achieved_tflops, 2),
           Table::pct(run.achieved_tflops / 8.0 * 100, 0), "BERT-L"});
    t.row({"RSN-XNN (paper)", "VCK190", "FP32", "8", "4.7", "59%",
           "BERT-L"});
    t.row({"SSR (published)", "VCK190", "INT8", "102", "26.7", "26%",
           "DeiT-T"});
    t.row({"FET-OPU (published)", "U280", "INT8", "7.2", "1.64", "23%",
           "BERT-B"});
    t.row({"DFX (published)", "U280", "FP16", "1.2", "0.19", "15%",
           "GPT2 prefill"});
    t.row({"ViA (published)", "U50", "FP16", "1.2", "0.31", "26%",
           "Swin-T"});
    t.row({"FTRANS (published)", "VCU118", "INT16", "2.7", "1.05",
           "38%", "RoBERTa-B"});
    t.print();

    std::printf("\nThe point of the table (Sec. 5.4): RSN-XNN's "
                "utilization of peak performance is the highest, and "
                "its absolute FLOPS exceed pure-FPGA designs thanks to "
                "the AIE array.\n");
    return 0;
}
