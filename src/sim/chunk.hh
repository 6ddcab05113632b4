/**
 * @file
 * Chunk: the unit of data carried on RSN streams.
 *
 * A chunk is a 2-D tile block (rows x cols elements of @c dtype —
 * common/dtype.hh). Timing-only runs leave @c data empty but still
 * carry the dtype tag, so wire time stays byte-true without payloads;
 * functional runs attach a pooled typed payload in row-major order
 * (sim/tile_pool.hh). The payload may be a sub-tile
 * *view* — Mem FUs publish row-slices of a staged tile as offset/length
 * windows aliased by refcount, never copies. Receivers must treat
 * payloads as immutable and take ownership (TileRef::ensureUnique,
 * copy-on-write) before transforming, since payloads are shared by
 * refcount when a mesh FU broadcasts one chunk to several destinations —
 * TileRef enforces this by gating plain writable access on unique
 * ownership. Ownership rules are spelled out in docs/datapath.md.
 */

#ifndef RSN_SIM_CHUNK_HH
#define RSN_SIM_CHUNK_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/dtype.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "sim/tile_pool.hh"

namespace rsn::sim {

struct Chunk {
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    /** Optional functional payload, row-major rows x cols (pooled). */
    TileRef data;
    /** Free-form tag for debugging / assertions (e.g. k-step index). */
    std::uint32_t tag = 0;
    /** Element type on the wire. Lives on the chunk — not derived from
     *  the tile — so timing-only runs (no payload) still get byte-true
     *  transfer time; makeTileChunk asserts the two agree. */
    Dtype dtype = Dtype::F32;

    std::uint64_t elems() const
    {
        return std::uint64_t(rows) * cols;
    }

    /**
     * Payload size on the wire: rows*cols*dtypeBytes(dtype). Derived
     * rather than stored — every producer computed exactly this, and
     * dropping the field keeps Chunk at 32 bytes (it moves by value
     * through the stream rings on the per-chunk fast path). This is
     * THE hook that makes 16-bit tiles halve link and DRAM time.
     */
    Bytes bytes() const { return Bytes(rows) * cols * dtypeBytes(dtype); }

    bool hasData() const { return static_cast<bool>(data); }

    /** Element access as a float, upconverting typed payloads
     *  (functional payloads only; debug / reference checks). */
    float
    at(std::uint32_t r, std::uint32_t c) const
    {
        rsn_assert(data && r < rows && c < cols, "chunk access out of range");
        const std::uint64_t i = std::uint64_t(r) * cols + c;
        return dtype == Dtype::F32 ? data.data()[i]
                                   : bf16ToF32(data.data16()[i]);
    }
};

static_assert(sizeof(Chunk) <= 32,
              "Chunk moves by value through stream rings — the dtype "
              "tag must fit the existing padding");

/** Make a timing-only chunk of rows x cols elements of @p dtype. */
inline Chunk
makeChunk(std::uint32_t rows, std::uint32_t cols, std::uint32_t tag = 0,
          Dtype dtype = Dtype::F32)
{
    return Chunk{rows, cols, TileRef{}, tag, dtype};
}

/** Make a functional chunk around an already-filled pooled tile; the
 *  chunk's dtype is the tile's. */
inline Chunk
makeTileChunk(std::uint32_t rows, std::uint32_t cols, TileRef tile,
              std::uint32_t tag = 0)
{
    rsn_assert(tile.capacity() >= std::uint64_t(rows) * cols,
               "tile too small for %ux%u chunk", rows, cols);
    const Dtype dtype = tile.dtype();
    return Chunk{rows, cols, std::move(tile), tag, dtype};
}

/** Make a functional chunk by copying @p values into a pooled tile. */
inline Chunk
makeDataChunk(std::uint32_t rows, std::uint32_t cols,
              const std::vector<float> &values, std::uint32_t tag = 0)
{
    rsn_assert(values.size() == std::size_t(rows) * cols,
               "payload size mismatch");
    TileRef tile = TilePool::instance().acquire(values.size());
    std::copy(values.begin(), values.end(), tile.mutableData());
    return makeTileChunk(rows, cols, std::move(tile), tag);
}

} // namespace rsn::sim

#endif // RSN_SIM_CHUNK_HH
