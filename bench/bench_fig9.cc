/**
 * @file
 * Fig. 9 reproduction: RSN instruction bytes vs translated uOP bytes per
 * FU type for one BERT-Large encoder, plus the per-type instruction
 * counts of Sec. 5.1 (paper: 1685 PL instructions — 1404 DDR, 88 LPDDR,
 * 49 MemA, 58 MemB, 22 MemC, 38 MeshA, 26 MeshB) and the aggregate
 * overhead metrics (instruction rate ~1.4 MB/s; ~1.6 GFLOPs per
 * instruction byte).
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "core/report.hh"
#include "isa/packet.hh"

using namespace rsn;
using rsn::core::Table;

int
main()
{
    core::banner("Fig. 9: RSN instruction vs expanded uOP size by FU "
                 "type (BERT-Large encoder, S=512, B=6)");

    core::RsnMachine mach(core::MachineConfig::vck190());
    auto compiled = lib::compileModel(
        mach, lib::bertLargeEncoder(6, 512, true, 1),
        lib::ScheduleOptions::optimized());
    const auto &prog = compiled.program;

    struct PaperCount {
        FuType t;
        int packets;
    };
    const PaperCount paper[] = {
        {FuType::Ddr, 1404},  {FuType::Lpddr, 88}, {FuType::MemA, 49},
        {FuType::MemB, 58},   {FuType::MemC, 22},  {FuType::MeshA, 38},
        {FuType::MeshB, 26},
    };

    Table t("Instruction footprint per FU type");
    t.header({"FU type", "packets", "paper pkts", "instr bytes",
              "uOP bytes", "compression"});
    Bytes total_instr = 0;
    for (const auto &p : paper) {
        Bytes ib = prog.instructionBytes(p.t);
        Bytes ub = prog.expandedUopBytes(p.t);
        total_instr += ib;
        t.row({fuTypeName(p.t), std::to_string(prog.packetCount(p.t)),
               std::to_string(p.packets),
               std::to_string((unsigned long long)ib),
               std::to_string((unsigned long long)ub),
               ib ? Table::num(double(ub) / ib, 1) + "x" : "-"});
    }
    // MME uOPs live in AIE local memory (17 x 4B per tile), not in the
    // PL instruction stream (paper Sec. 5.1).
    t.row({"MME (AIE-local)", std::to_string(prog.packetCount(
                                   FuType::Mme)),
           "0 (local)",
           std::to_string((unsigned long long)prog.instructionBytes(
               FuType::Mme)),
           std::to_string((unsigned long long)prog.expandedUopBytes(
               FuType::Mme)),
           "-"});
    t.print();

    // Aggregate overhead (Sec. 5.1).
    auto run = mach.runChecked(compiled.program).result;
    double ms = run.ms;
    double instr_rate_mbs = total_instr / (ms / 1e3) / 1e6;
    std::printf("\nTotal PL packets: %llu (paper: 1685)\n",
                (unsigned long long)(prog.size() -
                                     prog.packetCount(FuType::Mme)));
    std::printf("Instruction processing rate: %.2f MB/s (paper: ~1.4 "
                "MB/s, 0.0024%% of off-chip BW)\n",
                instr_rate_mbs);
    // "1 byte of instruction can drive up to 1.6 GFLOPs": the best
    // single packet — an MME packet whose reps cover a whole GEMM.
    double best = 0;
    for (const auto &p : prog.packets()) {
        if (p.opcode != FuType::Mme || p.mops.empty())
            continue;
        for (const auto &m : p.mops) {
            if (const auto *u = std::get_if<isa::MmeUop>(&m)) {
                double flops = 2.0 * u->reps * u->k_steps * u->tile_m *
                               u->tile_k * u->tile_n * p.reuse * 6;
                best = std::max(best, flops / double(p.wireBytes()));
            }
        }
    }
    std::printf("Peak compute per instruction byte: %.2f GFLOP/B "
                "(paper: up to 1.6 GFLOP/B)\n",
                best / 1e9);
    return 0;
}
