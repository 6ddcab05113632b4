#include "mem/layout.hh"

namespace rsn::mem {

std::uint32_t
blockBursts(std::uint32_t rows, std::uint32_t cols, std::uint32_t pitch,
            LayoutKind kind)
{
    if (kind == LayoutKind::Blocked)
        return ((rows + kBlockRows - 1) / kBlockRows) *
               ((cols + kBlockCols - 1) / kBlockCols);
    // Row-major: contiguous when the block spans full rows.
    return (pitch == cols) ? 1 : rows;
}

} // namespace rsn::mem
