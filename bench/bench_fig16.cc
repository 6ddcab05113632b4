/**
 * @file
 * Fig. 16 reproduction: per-FU compute, memory, and aggregate stream
 * bandwidth of the RSN-XNN datapath — the heterogeneity/coarseness
 * visualization. Also emits the network as Graphviz DOT.
 */

#include <cstdio>

#include "core/machine.hh"
#include "core/report.hh"

using namespace rsn;
using rsn::core::Table;

int
main()
{
    core::banner("Fig. 16: FU compute / memory / bandwidth properties");

    core::RsnMachine mach(core::MachineConfig::vck190());

    Table t("Per-FU properties (bandwidth = sum of in+out edges)");
    t.header({"FU", "compute TFLOPS", "memory KB", "agg BW GB/s"});
    for (const auto &f : mach.fus()) {
        double bw_gbs =
            mach.topology().aggregateBandwidth(f->id()) * kPlHz / 1e9;
        t.row({f->name(),
               Table::num(mach.fuPeakTflops(f->id()), 3),
               Table::num(mach.fuMemoryBytes(f->id()) / 1024.0, 0),
               Table::num(bw_gbs, 0)});
    }
    t.print();

    std::printf("\nPaper reference: MME 1.1 TFLOPS / 590 KB each; MemC "
                "0.072 TFLOPS / 1 MB; meshes 0 TFLOPS / 0 MB (pure "
                "routers); MeshB routes up to 9 Kb per cycle (~300 "
                "GB/s).\n");

    std::printf("\nGraphviz DOT of the datapath:\n%s\n",
                mach.topology().toDot("rsn_xnn").c_str());
    return 0;
}
