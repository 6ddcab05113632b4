/**
 * @file
 * Off-chip mover FUs.
 *
 * DdrFu routes feature maps between the DDR channel and on-chip FUs in
 * *program order* — the uOP sequence is the load/store interleaving
 * (paper Sec. 4.4, Fig. 12). LpddrFu loads read-only weights, bias, and
 * LayerNorm parameters from the LPDDR channel.
 */

#ifndef RSN_FU_DDR_FUS_HH
#define RSN_FU_DDR_FUS_HH

#include "fu/fu.hh"
#include "mem/dram.hh"
#include "mem/hostmem.hh"
#include "mem/layout.hh"

namespace rsn::fu {

class DdrFu : public Fu
{
  public:
    DdrFu(sim::Engine &eng, FuId id, mem::DramChannel &chan,
          mem::HostMemory &host, mem::LayoutKind layout,
          std::size_t uop_depth = kDefaultUopDepth);

    mem::DramChannel &channel() { return chan_; }

  protected:
    sim::Task runKernel(isa::UopRef uop) override;

  private:
    mem::DramChannel &chan_;
    mem::HostMemory &host_;
    mem::LayoutKind layout_;
};

class LpddrFu : public Fu
{
  public:
    LpddrFu(sim::Engine &eng, FuId id, mem::DramChannel &chan,
            mem::HostMemory &host, mem::LayoutKind layout,
            std::size_t uop_depth = kDefaultUopDepth);

    mem::DramChannel &channel() { return chan_; }

  protected:
    sim::Task runKernel(isa::UopRef uop) override;

  private:
    mem::DramChannel &chan_;
    mem::HostMemory &host_;
    mem::LayoutKind layout_;
};

} // namespace rsn::fu

#endif // RSN_FU_DDR_FUS_HH
