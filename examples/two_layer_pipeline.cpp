/**
 * @file
 * Fig. 7 demonstration: a flexible datapath that either executes one
 * GEMM at a time on all compute resources, or dynamically pipelines two
 * dependent GEMMs with the intermediate staying on chip — the same
 * machine, different instruction streams.
 *
 * Here the two dependent layers are an attention head's MM1 -> softmax
 * -> MM2 chain (the paper's production use of Fig. 7's pattern), run
 * both sequentially (scores spilled off-chip) and pipelined.
 *
 * Build & run:  ./build/examples/two_layer_pipeline
 */

#include <cstdio>

#include "core/machine.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"
#include "lib/runner.hh"

namespace {

rsn::lib::Model
headModel(std::uint32_t seq, std::uint32_t dhead, std::uint32_t heads)
{
    rsn::lib::Model m;
    m.name = "two-layer";
    m.input_rows = seq;
    m.input_cols = 3 * heads * dhead;
    rsn::lib::AttentionBlock a;
    a.name = "attn";
    a.heads = heads;
    a.heads_per_batch = heads;
    a.seq = seq;
    a.dhead = dhead;
    a.q_src = a.k_src = a.v_src = "input";
    a.q_col_off = 0;
    a.k_col_off = heads * dhead;
    a.v_col_off = 2 * heads * dhead;
    a.out_name = "out";
    m.segments.emplace_back(a);
    return m;
}

} // namespace

int
main()
{
    using namespace rsn;

    const std::uint32_t seq = 64, dhead = 16, heads = 6;

    double ms_seq = 0, ms_pipe = 0;
    for (bool pipeline : {false, true}) {
        core::RsnMachine machine(
            core::MachineConfig::vck190(/*functional=*/true));
        auto opts = pipeline ? lib::ScheduleOptions::optimized()
                             : lib::ScheduleOptions::bwOptimized();
        auto model = headModel(seq, dhead, heads);
        auto compiled = lib::compileModel(machine, model, opts);
        const auto checked =
            lib::runModelChecked(machine, model, compiled, 7);
        if (!checked.ok()) {
            std::printf("%s run failed:\n%s\n",
                        pipeline ? "pipelined" : "sequential",
                        checked.report.toString().c_str());
            return 1;
        }
        const core::RunResult &r = checked.report.result;
        std::printf("%-11s: %7.3f ms, DDR wrote %6.2f MB, results correct\n",
                    pipeline ? "pipelined" : "sequential", r.ms,
                    machine.ddrChannel().bytesWritten() / 1e6);
        (pipeline ? ms_pipe : ms_seq) = r.ms;
    }

    std::printf("\nDynamic layer pipelining kept the score matrices on "
                "chip: %.2fx faster, and the same bitstream-equivalent "
                "datapath served both mappings (paper Sec. 4.3).\n",
                ms_seq / ms_pipe);
    return 0;
}
