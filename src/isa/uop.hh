/**
 * @file
 * Micro-operation (uOP) control planes for every FU type.
 *
 * These transcribe paper Table 2 ("uOP Control Planes Managing FUs in
 * RSN-XNN"). A uOP carries *control information only* — never data — so
 * instructions stay off the critical path (Sec. 2.4). Each uOP launches a
 * single kernel execution on its FU.
 *
 * Each uOP kind declares its wire layout once, in a static
 * `wire(io, uop)` member: every field in wire order with its width in
 * bits, flag bits and the 2-bit dtype tags included, and `io.pad(n)`
 * for reserved bits, which must be zero. The bits pack LSB-first into
 * little-endian bytes, so a 16-bit field on a byte boundary is a plain
 * u16. An FuId field packs its index in the low nibble and its type in
 * the high one. The assembler, the bounds-checked disassembler, the
 * wire sizes (Fig. 9's compression ratios), the field-fit check of
 * RsnPacket::valid() and uopToString() all walk these tables
 * (src/isa/packet.cc); docs/datapath.md prints them as one table.
 *
 * The tile sizes and chunk counts are 32-bit members even where their
 * wire field is 16 bits, so the code generator stores them as computed
 * and the wire table alone bounds them: RsnPacket::valid() rejects a
 * value its field cannot carry (a 65536-row attention tile's `tile_m`)
 * instead of the program carrying a truncated one.
 */

#ifndef RSN_ISA_UOP_HH
#define RSN_ISA_UOP_HH

#include <cstdint>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/dtype.hh"
#include "common/types.hh"

namespace rsn::isa {

/**
 * MME: "matrix size, tile size, add bias, add previous layer, calculate
 * scale and shift, accumulate along k".
 *
 * One uOP directs the computation of @c reps output slabs; each slab
 * accumulates @c k_steps pairs of (LHS, RHS) chunks. Sizes are the
 * *per-chunk* dimensions seen by this MME (after mesh slicing). The
 * five counts are 32-bit in memory and 16-bit on the wire.
 */
struct MmeUop {
    std::uint32_t reps = 1;       ///< Output slabs to produce.
    std::uint32_t k_steps = 1;    ///< Accumulation chunks per slab.
    std::uint32_t tile_m = 0;     ///< Rows per LHS chunk / output slab.
    std::uint32_t tile_k = 0;     ///< Depth per chunk pair.
    std::uint32_t tile_n = 0;     ///< Cols per RHS chunk / output slab.
    bool add_bias = false;        ///< Consume a bias chunk first, add it.
    bool accum_k = true;          ///< Accumulate along k before emitting.
    /** Element type of the emitted output slabs. The accumulator is
     *  always FP32; the result is downconverted just before emit.
     *  Operand dtypes arrive on the chunks themselves. */
    Dtype out_dtype = Dtype::F32;

    bool operator==(const MmeUop &) const = default;
    template <class Io, class U>
    static void
    wire(Io &io, U &u)
    {
        io("reps", u.reps, 16); io("k_steps", u.k_steps, 16);
        io("tile_m", u.tile_m, 16); io("tile_k", u.tile_k, 16);
        io("tile_n", u.tile_n, 16);
        io("add_bias", u.add_bias, 1); io("accum_k", u.accum_k, 1);
        io("out_dtype", u.out_dtype, 2); io.pad(4);
    }
};

/**
 * DDR: "addr, stride size, stride offset, stride count, load, destFU,
 * store, srcFU". Moves feature maps between off-chip DDR and on-chip FUs.
 *
 * A load uOP reads @c stride_count blocks (advancing @c addr by
 * @c stride_offset bytes each time) and streams each to @c dest. A store
 * uOP receives @c stride_count chunks from @c src and writes them back.
 */
struct DdrUop {
    Addr addr = 0;
    std::uint32_t stride_offset = 0;  ///< Byte advance between blocks.
    std::uint16_t stride_count = 1;   ///< Number of blocks.
    bool load = false;
    FuId dest = kNoFu;
    bool store = false;
    FuId src = kNoFu;
    /** Block geometry (rows x cols elements, row pitch in elements). */
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    std::uint32_t pitch = 0;
    /** Device-side element type: loads emit chunks of this dtype (host
     *  truth is FP32; conversion happens at the DDR boundary) and DRAM
     *  traffic is rows*cols*dtypeBytes(dtype) per block. */
    Dtype dtype = Dtype::F32;

    bool operator==(const DdrUop &) const = default;
    template <class Io, class U>
    static void
    wire(Io &io, U &u)
    {
        io("addr", u.addr, 32); io("stride_offset", u.stride_offset, 32);
        io("stride_count", u.stride_count, 16);
        io("load", u.load, 1); io("store", u.store, 1);
        io("dtype", u.dtype, 2); io.pad(4);
        io("dest", u.dest, 8); io("src", u.src, 8);
        io("rows", u.rows, 32); io("cols", u.cols, 32);
        io("pitch", u.pitch, 32);
    }
};

/** LPDDR: "addr, stride size, stride offset, stride count, destFU,
 *  load bias". Loads read-only weights and bias. */
struct LpddrUop {
    Addr addr = 0;
    std::uint32_t stride_offset = 0;
    std::uint16_t stride_count = 1;
    FuId dest = kNoFu;
    bool load_bias = false;  ///< Block is a bias / LN-parameter vector.
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    std::uint32_t pitch = 0;
    /** Device-side element type of the loaded block (weights). Bias /
     *  LN-parameter vectors must stay F32 (see docs/datapath.md). */
    Dtype dtype = Dtype::F32;

    bool operator==(const LpddrUop &) const = default;
    template <class Io, class U>
    static void
    wire(Io &io, U &u)
    {
        io("addr", u.addr, 32); io("stride_offset", u.stride_offset, 32);
        io("stride_count", u.stride_count, 16); io("dest", u.dest, 8);
        io("load_bias", u.load_bias, 1); io("dtype", u.dtype, 2);
        io.pad(5);
        io("rows", u.rows, 32); io("cols", u.cols, 32);
        io("pitch", u.pitch, 32);
    }
};

/** One mesh route: move chunks from FU @c src to FU @c dst. */
struct MeshRoute {
    FuId src;
    FuId dst;
    bool operator==(const MeshRoute &) const = default;
};

/** How a mesh kernel interprets its route list. */
enum class MeshMode : std::uint8_t {
    Parallel,    ///< Independent routes forward concurrently.
    Broadcast,   ///< One source replicated to every destination.
    Distribute,  ///< Round-robin: chunk i goes to route (i % routes).
};

/**
 * MeshA/B: "size, srcFUs, destFUs".
 *
 * Parallel mode serves pipelined mappings (distinct producer/consumer
 * pairs); Broadcast serves shared operands (one RHS tile to every MME);
 * Distribute deals consecutive chunks from one source across the MMEs
 * (M-split of an LHS tile). @c repeats iterations flow per kernel.
 */
struct MeshUop {
    std::uint32_t repeats = 1;
    MeshMode mode = MeshMode::Parallel;
    std::vector<MeshRoute> routes;

    bool operator==(const MeshUop &) const = default;
    template <class Io, class U>
    static void
    wire(Io &io, U &u)
    {
        std::size_t routes = u.routes.size();
        io("repeats", u.repeats, 32); io("mode", u.mode, 8);
        io("routes", routes, 8);
        if constexpr (!std::is_const_v<U>)  // decoding
            u.routes.resize(routes);
        for (auto &r : u.routes) {
            io("src", r.src, 8); io("dst", r.dst, 8);
        }
    }
};

/**
 * MemA: "matrix size, tile size, srcFU, load data, send to MME".
 *
 * Holds one LHS tile in a ping-pong buffer pair. When both load and send
 * are set, the two run in parallel on opposite buffers (Fig. 7b).
 * Sending slices the buffered tile into @c slices row-slices, one per
 * destination MME. @c rows and @c cols are 32-bit in memory and
 * 16-bit on the wire.
 */
struct MemAUop {
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    std::uint8_t slices = 1;
    FuId src = kNoFu;       ///< Producer of loaded data (DDR).
    bool load = false;
    bool send = false;

    bool operator==(const MemAUop &) const = default;
    template <class Io, class U>
    static void
    wire(Io &io, U &u)
    {
        io("rows", u.rows, 16); io("cols", u.cols, 16);
        io("slices", u.slices, 8); io("src", u.src, 8);
        io("load", u.load, 1); io("send", u.send, 1); io.pad(6);
    }
};

/**
 * MemB: "matrix size, tile size, load data, send to MME, transpose input,
 * load bias". Holds one RHS tile; optionally transposes (attention K^T)
 * and forwards a bias vector ahead of the tile. @c rows and @c cols are
 * 32-bit in memory and 16-bit on the wire.
 */
struct MemBUop {
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    FuId src = kNoFu;
    bool load = false;
    bool send = false;
    bool transpose = false;
    bool load_bias = false;  ///< Also receive + forward a bias chunk.

    bool operator==(const MemBUop &) const = default;
    template <class Io, class U>
    static void
    wire(Io &io, U &u)
    {
        io("rows", u.rows, 16); io("cols", u.cols, 16); io("src", u.src, 8);
        io("load", u.load, 1); io("send", u.send, 1);
        io("transpose", u.transpose, 1); io("load_bias", u.load_bias, 1);
        io.pad(4);
    }
};

/**
 * MemC: "matrix size from MME, matrix size to DDR, tile size from MME,
 * tile size to DDR, receive from MME, send to MME, softmax, gelu,
 * mean/variance/normalization". Plus residual add and LN scale&shift,
 * which this implementation also hosts in MemC.
 *
 * Ping-pong buffered: a receive kernel fills one buffer while a
 * send/store kernel drains the other, enabling the paper's RCEV/SEND
 * overlap around Softmax (Fig. 11). The four sizes and counts are
 * 32-bit in memory and 16-bit on the wire.
 */
struct MemCUop {
    std::uint32_t rows = 0;      ///< Buffered tile rows.
    std::uint32_t cols = 0;      ///< Buffered tile cols.
    std::uint32_t recv_chunks = 1;  ///< Chunks to receive from MME.
    std::uint32_t send_chunks = 1;  ///< Chunks to emit when sending.
    bool recv = false;           ///< Receive tile from the partner MME.
    bool store = false;          ///< Emit tile toward the DDR FU.
    bool send_mme = false;       ///< Emit tile toward a mesh (next MM).
    FuId send_dest = kNoFu;      ///< MeshA or MeshB when send_mme.
    bool softmax = false;
    bool gelu = false;
    bool layernorm = false;      ///< Mean/variance/normalize rows.
    bool scale_shift = false;    ///< Apply gamma/beta (recv params first).
    bool add_residual = false;   ///< Add a residual tile (recv it first).
    /** Element type of emitted chunks (store / send_mme). Fused
     *  operators always compute in FP32 — a typed buffered tile is
     *  upconverted once before the first fused op and downconverted to
     *  this dtype on the way out. */
    Dtype out_dtype = Dtype::F32;

    bool operator==(const MemCUop &) const = default;
    template <class Io, class U>
    static void
    wire(Io &io, U &u)
    {
        io("rows", u.rows, 16); io("cols", u.cols, 16);
        io("recv_chunks", u.recv_chunks, 16);
        io("send_chunks", u.send_chunks, 16);
        io("send_dest", u.send_dest, 8);
        io("recv", u.recv, 1); io("store", u.store, 1);
        io("send_mme", u.send_mme, 1); io("softmax", u.softmax, 1);
        io("gelu", u.gelu, 1); io("layernorm", u.layernorm, 1);
        io("scale_shift", u.scale_shift, 1);
        io("add_residual", u.add_residual, 1);
        io("out_dtype", u.out_dtype, 2); io.pad(6);
    }
};

/** Decoder-injected uOP that terminates an FU's kernel loop ("last").
 *  It counts one byte in the expanded uOP streams; assembled packets
 *  carry it as their header's last bit instead. */
struct HaltUop {
    bool operator==(const HaltUop &) const = default;
    template <class Io, class U>
    static void
    wire(Io &io, U &)
    {
        io.pad(8);
    }
};

/** A uOP for any FU type. */
using Uop = std::variant<MmeUop, DdrUop, LpddrUop, MeshUop, MemAUop,
                         MemBUop, MemCUop, HaltUop>;

// The widest kinds are DdrUop and LpddrUop; the 32-bit in-memory sizes
// of the scratchpad and MME kinds must not grow the variant.
static_assert(sizeof(Uop) <= 48, "a uOP kind outgrew the Uop variant");

/** The halt uOP the decoder issues after a `last` packet. */
extern const Uop kHaltUop;

/**
 * One issued uOP, as the FU queues carry it: a reference to an mOP in
 * the running program's packets (the program outlives the run) and the
 * block of a strided DDR/LPDDR mOP it stands for (0 for every other
 * kind). The FU forms that block's address itself (isa::blockAddr), so
 * issue copies no Uop.
 */
struct UopRef {
    const Uop *mop = nullptr;
    std::uint32_t block = 0;
};
static_assert(std::is_trivially_copyable_v<UopRef>);

} // namespace rsn::isa

#endif // RSN_ISA_UOP_HH
