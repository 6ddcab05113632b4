/**
 * @file
 * BERT-Large first-encoder inference on the simulated RSN-XNN — the
 * paper's headline workload (Table 9 / artifact appendix).
 *
 * Runs the full-size encoder (S=512, B=6) in timing mode for latency,
 * then a reduced encoder functionally and validates every intermediate
 * tensor against the FP32 reference, mirroring the artifact's
 * "verify segment by segment against python_gold" flow.
 *
 * Build & run:  ./build/examples/bert_encoder
 */

#include <cstdio>

#include "core/machine.hh"
#include "core/power.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"
#include "lib/runner.hh"

int
main()
{
    using namespace rsn;

    // --- Timing: the paper's configuration. ---
    {
        core::RsnMachine machine(core::MachineConfig::vck190());
        auto model = lib::bertLargeEncoder(/*batch=*/6, /*seq=*/512,
                                           /*fuse_qkv=*/true);
        auto compiled = lib::compileModel(
            machine, model, lib::ScheduleOptions::optimized());
        const auto rep = machine.runChecked(compiled.program);
        if (!rep.ok()) {
            std::printf("timing run failed:\n%s\n", rep.toString().c_str());
            return 1;
        }
        const core::RunResult &r = rep.result;
        core::PowerModel power;
        std::printf("BERT-Large 1st encoder (S=512, B=6, FP32)\n");
        std::printf("  latency        : %.2f ms (paper: 17.98 ms)\n",
                    r.ms);
        std::printf("  achieved       : %.2f TFLOPS (paper: 4.7, 59%% "
                    "util)\n",
                    machine.achievedTflops(r));
        std::printf("  instructions   : %zu packets, %llu bytes\n",
                    compiled.program.size(),
                    (unsigned long long)compiled.program.totalBytes());
        std::printf("  operating power: %.1f W (paper: 45.5 W)\n",
                    power.operatingWatts(machine, r));
    }

    // --- Functional: reduced encoder, checked tensor by tensor. ---
    {
        core::RsnMachine machine(
            core::MachineConfig::vck190(/*functional=*/true));
        auto model = lib::tinyEncoder(/*batch=*/2, /*seq=*/32,
                                      /*hidden=*/64, /*heads=*/4,
                                      /*ff=*/128, /*fuse_qkv=*/true);
        auto compiled = lib::compileModel(
            machine, model, lib::ScheduleOptions::optimized());
        const auto checked =
            lib::runModelChecked(machine, model, compiled, 123);
        std::printf("\nFunctional validation (batch 2, seq 32, hidden "
                    "64):\n");
        if (!checked.ok()) {
            std::printf("%s\n", checked.report.toString().c_str());
            return 1;
        }
        std::printf("all intermediate tensors match the FP32 "
                    "reference.\n");
    }
    return 0;
}
