/**
 * @file
 * MME FU: matrix-multiply engine, a virtualized group of 64 AIE tiles.
 *
 * Receives LHS chunks from MeshA, RHS chunks from MeshB, and sends results
 * to its fixed MemC partner (paper Fig. 10: "each MME consistently
 * communicates with the same MemC"). Timing comes from the AieModel;
 * functional runs compute the actual FP32 tile product.
 */

#ifndef RSN_FU_MME_HH
#define RSN_FU_MME_HH

#include "fu/aie_model.hh"
#include "fu/fu.hh"
#include "fu/gemm_kernel.hh"

namespace rsn::fu {

class MmeFu : public Fu
{
  public:
    MmeFu(sim::Engine &eng, FuId id, AieModel model, FuId lhs_src,
          FuId rhs_src, FuId out_dst,
          std::size_t uop_depth = kDefaultUopDepth);

    const AieModel &model() const { return model_; }

  protected:
    sim::Task runKernel(const isa::Uop &uop) override;
    void resetKernelState() override;

  private:
    AieModel model_;
    FuId lhs_src_;
    FuId rhs_src_;
    FuId out_dst_;
    /** Packing panels for the blocked GEMM microkernel, reused across
     *  every chunk product this FU computes (allocated from TilePool). */
    GemmScratch scratch_;
};

} // namespace rsn::fu

#endif // RSN_FU_MME_HH
