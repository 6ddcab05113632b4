/**
 * @file
 * Off-chip data layout models.
 *
 * Sec. 5.3: "To reduce strided off-chip memory accesses, data is stored in a
 * 128x64 blocked layout off-chip, and MemA/B/C handle on-chip conversion from
 * blocked to row-major or transposed format."
 *
 * The layout determines how many distinct DRAM bursts a 2-D tile access
 * touches; each burst pays the channel's per-burst overhead
 * (mem::kPerBurstOverhead). A row-major matrix costs one burst per partial
 * row, while the blocked layout costs one burst per touched block — the
 * difference is the paper's motivation for blocking, and is measured by
 * bench_ablation_tiles.
 */

#ifndef RSN_MEM_LAYOUT_HH
#define RSN_MEM_LAYOUT_HH

#include <cstdint>

namespace rsn::mem {

/** How a matrix is arranged in off-chip memory. */
enum class LayoutKind : std::uint8_t {
    RowMajor,   ///< Standard row-major; partial-row tiles are strided.
    Blocked,    ///< 128x64 blocks, each block contiguous.
};

/** Shape of one block of the blocked layout (paper uses 128 x 64). */
inline constexpr std::uint32_t kBlockRows = 128;
inline constexpr std::uint32_t kBlockCols = 64;

/**
 * Number of distinct contiguous bursts a rows x cols block access into a
 * matrix of row pitch @p pitch touches under @p kind; fills
 * DramRequest::bursts for the DDR and LPDDR FUs. Blocked accesses are
 * counted as block-aligned.
 */
std::uint32_t blockBursts(std::uint32_t rows, std::uint32_t cols,
                          std::uint32_t pitch, LayoutKind kind);

} // namespace rsn::mem

#endif // RSN_MEM_LAYOUT_HH
