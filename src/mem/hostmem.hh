/**
 * @file
 * Functional off-chip memory backing store.
 *
 * The RSN programs address off-chip tensors through plain addresses (uOP
 * "addr" fields, paper Table 2). HostMemory provides a flat simulated
 * address space with a bump allocator. In functional mode every region is
 * backed by an FP32 buffer so the datapath computes real results; in
 * timing-only mode regions are address ranges without storage.
 */

#ifndef RSN_MEM_HOSTMEM_HH
#define RSN_MEM_HOSTMEM_HH

#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/types.hh"

namespace rsn::mem {

class HostMemory
{
  public:
    /** @param functional back all regions with FP32 storage. */
    explicit HostMemory(bool functional) : functional_(functional) {}

    bool functional() const { return functional_; }

    /**
     * Allocate a region of @p elems FP32 elements.
     * @return the base address (64-byte aligned).
     */
    Addr alloc(std::uint64_t elems, std::string name);

    /** Total allocated bytes. */
    Bytes allocatedBytes() const { return next_ - kBase; }

    /**
     * Drop every region and rewind the bump allocator (RsnMachine::reset):
     * the next compiled model starts from a pristine address space.
     * Addresses handed out before the reset become unmapped.
     */
    void
    reset()
    {
        regions_.clear();
        next_ = kBase;
    }

    /** Name of the region containing @p addr ("" if none). */
    std::string regionName(Addr addr) const;

    /**
     * Read a row-major 2-D block — @p rows rows of @p cols floats, where
     * consecutive rows are @p pitch_elems apart, starting at @p addr —
     * into caller-owned storage of rows*cols floats (e.g. a pooled
     * tile): the allocation-free load path of the DDR/LPDDR FUs.
     *
     * **Fast-path contract:** the whole window must lie inside one
     * region — bounds are asserted once against the furthest element,
     * not per row — and rows then move as raw `memcpy`s: one per row
     * for strided windows, a single block copy when the window is
     * dense (`pitch_elems == cols`). Degenerate shapes (zero rows or
     * cols) are no-ops. No-op in timing-only mode.
     */
    void readBlockInto(Addr addr, std::uint64_t pitch_elems,
                       std::uint32_t rows, std::uint32_t cols,
                       float *dst) const;

    /** Write a row-major 2-D block from caller-owned storage of at
     *  least @p n floats (no-op in timing-only mode). Same fast-path
     *  contract as readBlockInto (per-row memcpy, single block copy
     *  when `pitch_elems == cols`). */
    void writeBlock(Addr addr, std::uint64_t pitch_elems,
                    std::uint32_t rows, std::uint32_t cols,
                    const float *data, std::size_t n);

    /** Fill a whole region with values (functional initialization). */
    void fillRegion(Addr base, const std::vector<float> &values);

    /** Snapshot a whole region (functional verification). */
    std::vector<float> readRegion(Addr base) const;

    /** A whole region's storage, in place (empty in timing-only mode):
     *  verify compares outputs here without a readRegion copy. */
    std::span<const float> region(Addr base) const;

    /** A whole region's storage, writable in place: seeding fills it
     *  without a staging copy. */
    std::span<float> region(Addr base);

  private:
    static constexpr Addr kBase = 0x1000;

    struct Region {
        Addr base;
        std::uint64_t elems;
        std::string name;
        std::vector<float> data;  ///< Empty in timing-only mode.
    };

    /** Region containing @p addr, or nullptr. */
    const Region *find(Addr addr) const;
    Region *find(Addr addr);

    bool functional_;
    Addr next_ = kBase;
    std::map<Addr, Region> regions_;  ///< Keyed by base address.
};

} // namespace rsn::mem

#endif // RSN_MEM_HOSTMEM_HH
