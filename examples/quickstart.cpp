/**
 * @file
 * Quickstart: compile and run one GEMM layer on the RSN-XNN machine.
 *
 * Demonstrates the whole public API surface in ~60 lines:
 *   1. construct a VCK190-configured machine (functional mode),
 *   2. describe a model in the RSNlib IR,
 *   3. compile it into an RSN instruction stream,
 *   4. initialize tensors, run, and validate against the reference.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "core/machine.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"
#include "lib/runner.hh"

int
main()
{
    using namespace rsn;

    // 1. The machine: 6 MMEs, 3 MemA, 3 MemB, 6 MemC, meshes, DDR/LPDDR
    //    movers, wired per the paper's Fig. 10. Functional mode carries
    //    real FP32 data through the stream network.
    core::RsnMachine machine(core::MachineConfig::vck190(
        /*functional=*/true));

    // 2. The model: out = gelu(input x W + b), a 96x64x80 layer.
    lib::Model model;
    model.name = "quickstart";
    model.input_rows = 96;
    model.input_cols = 64;
    lib::LinearLayer layer;
    layer.name = "fc";
    layer.m = 96;
    layer.k = 64;
    layer.n = 80;
    layer.bias = true;
    layer.gelu = true;
    layer.in_src = "input";
    layer.out_name = "out";
    model.segments.emplace_back(layer);

    // 3. Compile: tiling, uOP emission, packet packing.
    auto compiled = lib::compileModel(machine, model,
                                      lib::ScheduleOptions::optimized());
    std::printf("compiled %zu RSN packets (%llu bytes) for %.3f MFLOP\n",
                compiled.program.size(),
                (unsigned long long)compiled.program.totalBytes(),
                compiled.mm_flops / 1e6);

    // 4. Seed the tensors, run, and hold every output to the machine's
    //    accuracy contract against the FP32 reference.
    const auto checked =
        lib::runModelChecked(machine, model, compiled, /*seed=*/2024);
    if (!checked.ok()) {
        std::printf("run failed:\n%s\n", checked.report.toString().c_str());
        return 1;
    }
    const core::RunResult &result = checked.report.result;
    std::printf("simulated %.3f ms on the modeled VCK190; output matches "
                "the FP32 reference\n", result.ms);
    std::printf("achieved %.2f TFLOPS, DDR read %.2f MB, wrote %.2f MB\n",
                machine.achievedTflops(result),
                machine.ddrChannel().bytesRead() / 1e6,
                machine.ddrChannel().bytesWritten() / 1e6);
    return 0;
}
