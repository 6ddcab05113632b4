/**
 * @file
 * Table 4 / Fig. 15 reproduction: estimated power-consumption breakdown
 * for the decoder unit and the FU types while running the BERT-Large
 * encoder. Paper ratios: AIE 61.6%, MemC 23.2%, decoder 0.08%.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "core/power.hh"
#include "core/report.hh"

using namespace rsn;
using rsn::core::Table;

int
main()
{
    core::banner("Table 4: power breakdown (BERT-Large encoder, S=512, "
                 "B=6)");

    core::RsnMachine mach(core::MachineConfig::vck190());
    auto compiled = lib::compileModel(
        mach, lib::bertLargeEncoder(6, 512, true, 1),
        lib::ScheduleOptions::optimized());
    auto run = mach.runChecked(compiled.program).result;

    core::PowerModel power;
    auto rows = power.breakdown(mach, run);

    struct PaperRow {
        const char *name;
        double watts, pct;
    };
    const PaperRow paper[] = {
        {"AIE", 60.8, 61.6},   {"MemC", 22.91, 23.22},
        {"MemB", 0.47, 0.48},  {"MemA", 0.25, 0.25},
        {"DDR", 0.33, 0.33},   {"LPDDR", 0.15, 0.15},
        {"MeshA", 0.10, 0.10}, {"MeshB", 0.09, 0.09},
        {"Decoder", 0.08, 0.08},
    };

    Table t("Component power (model) vs paper (Vivado estimate)");
    t.header({"Component", "model W", "model %", "paper W", "paper %"});
    for (const auto &p : paper) {
        double w = 0, pc = 0;
        for (const auto &r : rows) {
            if (r.component == p.name) {
                w = r.watts;
                pc = r.percent;
            }
        }
        t.row({p.name, Table::num(w, 2), Table::pct(pc, 2),
               Table::num(p.watts, 2), Table::pct(p.pct, 2)});
    }
    t.print();

    std::printf("\nOperating power: %.1f W (paper board measurement: "
                "45.5 W)\n",
                power.operatingWatts(mach, run));
    std::printf("Dynamic power:   %.1f W (paper: 18.2 W)\n",
                power.dynamicWatts(mach, run));
    return 0;
}
