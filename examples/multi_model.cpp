/**
 * @file
 * One datapath, four applications: BERT, ViT, NCF and MLP on the same
 * simulated RSN-XNN configuration — "all experiments use the same
 * bitstream, varying the instructions passed to the datapath" (Sec. 5).
 * Also demonstrates sweeping the schedule options per model.
 *
 * Build & run:  ./build/examples/multi_model
 */

#include <cstdio>
#include <vector>

#include "core/machine.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"

int
main()
{
    using namespace rsn;

    struct Entry {
        const char *name;
        lib::Model model;
    };
    std::vector<Entry> models;
    models.push_back({"BERT-Large encoder (B=6, S=512)",
                      lib::bertLargeEncoder(6, 512, true, 1)});
    models.push_back({"ViT encoder x2 (B=6)", lib::vitEncoder(6, true,
                                                              2)});
    models.push_back({"NCF tower (B=6)", lib::ncf(6)});
    models.push_back({"MLP stack (B=6)", lib::mlp(6)});

    std::printf("%-34s %10s %10s %12s %10s\n", "model", "latency ms",
                "TFLOPS", "instr bytes", "packets");
    for (auto &e : models) {
        for (auto opts : {lib::ScheduleOptions::noOptimize(),
                          lib::ScheduleOptions::optimized()}) {
            core::RsnMachine machine(core::MachineConfig::vck190());
            auto compiled = lib::compileModel(machine, e.model, opts);
            const auto rep = machine.runChecked(compiled.program);
            if (!rep.ok()) {
                std::printf("%s failed:\n%s\n", e.name,
                            rep.toString().c_str());
                return 1;
            }
            const core::RunResult &r = rep.result;
            std::printf("%-34s %10.2f %10.2f %12llu %10zu  (%s)\n",
                        e.name, r.ms, machine.achievedTflops(r),
                        (unsigned long long)compiled.program.totalBytes(),
                        compiled.program.size(),
                        opts.pipeline_attention ? "optimized"
                                                : "no-opt");
        }
    }
    std::printf("\nEvery run above used the identical simulated "
                "datapath; only the RSN instruction stream changed.\n");
    return 0;
}
