/**
 * @file
 * Mesh FUs: the circuit-switched routers of the stream network.
 *
 * MeshA fans LHS data from MemA/MemC FUs into the MMEs; MeshB does the
 * same for RHS data from MemB/MemC FUs. A mesh uOP configures either a
 * broadcast (one source replicated to every destination — single-MM
 * mapping) or a set of pairwise routes that forward concurrently
 * (pipelined mapping). Meshes hold no data and perform no arithmetic
 * (Fig. 16: 0 TFLOPS, 0 MB); their cost is pure link occupancy.
 */

#ifndef RSN_FU_MESH_HH
#define RSN_FU_MESH_HH

#include <vector>

#include "fu/fu.hh"

namespace rsn::fu {

class MeshFu : public Fu
{
  public:
    MeshFu(sim::Engine &eng, FuId id,
           std::size_t uop_depth = kDefaultUopDepth);

  protected:
    sim::Task runKernel(isa::UopRef uop) override;

  private:
    sim::Task broadcastKernel(const isa::MeshUop &u);
    sim::Task distributeKernel(const isa::MeshUop &u);
    sim::Task routeKernel(const isa::MeshUop &u, FuId src);

    /** A Parallel kernel's lanes, cleared when it ends; the storage is
     *  reused by the next one. */
    std::vector<sim::Task> lanes_;
};

} // namespace rsn::fu

#endif // RSN_FU_MESH_HH
