/**
 * @file
 * RSN instruction generation: model IR -> RSN program (the RSNlib
 * backend, paper Sec. 4.5).
 *
 * For each segment the generator picks a datapath mapping:
 *  - LinearLayer: single-MM mapping on all six MMEs. Output-stationary
 *    768x1024 tiles, 128-deep K steps; LHS tiles stream DDR -> MemA0 ->
 *    MeshA (M-split across MMEs); RHS tiles stream LPDDR -> MemB0 ->
 *    MeshB (broadcast); results collect in the MemC partners and drain
 *    back through the DDR FU.
 *  - AttentionBlock (pipelined): three head lanes; lane l runs MM1 on
 *    MME_l, fuses Softmax in MemC_l, re-injects the probabilities through
 *    MeshA into MME_{3+l} for MM2 — the dynamic chain of pipelined FUs.
 *  - AttentionBlock (sequential): two passes with the score matrices
 *    spilled to DDR (the type-A baseline).
 *
 * Every generator is written with three helpers (docs/datapath.md, "Code
 * generation"): a ping-pong stream builder that expands a scratchpad's
 * load-side and drain-side uOPs into the prolog / steady / epilog
 * pattern, a block builder that places every DDR and LPDDR uOP from its
 * tensor and (row, col) corner, and one attention lane plan (lanes,
 * lane masks by head count, head blocks, mesh routes).
 *
 * DDR load/store interleaving is explicit: store pieces are queued and
 * drained into the load gaps of the next output tile (Sec. 4.4, Fig. 12).
 * Finally, the raw uOP stream is packed into RSN packets using
 * window/reuse compression (Sec. 3.3), which is what Fig. 9 measures.
 */

#ifndef RSN_LIB_CODEGEN_HH
#define RSN_LIB_CODEGEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "isa/packet.hh"
#include "lib/model.hh"
#include "lib/schedule.hh"

namespace rsn::lib {

/** A tensor placed in the simulated off-chip address space. */
struct TensorInfo {
    std::string name;
    Addr addr = 0;
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    bool is_weight = false;  ///< Lives behind the LPDDR channel.
};

/** The compiled artifact: program + tensor map + work accounting. */
struct CompiledModel {
    isa::RsnProgram program;
    std::vector<TensorInfo> tensors;
    std::uint64_t mm_flops = 0;  ///< GEMM FLOPs (for TFLOPS metrics).

    const TensorInfo &tensor(const std::string &name) const;
    bool hasTensor(const std::string &name) const;
};

/**
 * Allocate @p model's tensors in @p machine's host memory and generate
 * its RSN program under @p opts. Throws if a uOP value does not fit its
 * wire field (RsnPacket::valid()).
 */
CompiledModel compileModel(core::RsnMachine &machine, const Model &model,
                           ScheduleOptions opts);

} // namespace rsn::lib

#endif // RSN_LIB_CODEGEN_HH
