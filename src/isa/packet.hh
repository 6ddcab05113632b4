/**
 * @file
 * RSN instruction packets and programs (paper Sec. 3.3, Fig. 8).
 *
 * A program is a single sequence of UDP-like instruction packets. Each
 * packet has a 32-bit header — opcode (FU type), mask (targeted FU
 * instances), last (FU exit), window size (mOPs in this packet), reuse
 * (replay count) — followed by a payload of mOPs. Second-level decoders
 * replay the mOP window @c reuse times; third-level decoders translate
 * mOPs into uOPs (e.g. a strided DDR mOP expands into stride_count
 * single-block uOPs).
 *
 * Instruction compression (Fig. 9) = assembled packet bytes vs. the bytes
 * of the fully-expanded uOP streams.
 */

#ifndef RSN_ISA_PACKET_HH
#define RSN_ISA_PACKET_HH

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.hh"
#include "common/types.hh"
#include "isa/uop.hh"

namespace rsn::isa {

/** Packet header field widths of the 32-bit encoding. */
inline constexpr unsigned kWindowBits = 7;
inline constexpr unsigned kReuseBits = 12;
inline constexpr std::uint32_t kMaxWindow = (1u << kWindowBits) - 1;
inline constexpr std::uint32_t kMaxReuse = (1u << kReuseBits) - 1;
inline constexpr std::uint32_t kMaxMaskBits = 8;  ///< 8 FU instances.

/** One RSN instruction packet. */
struct RsnPacket {
    FuType opcode = FuType::NumTypes;
    std::uint8_t mask = 0;       ///< Bit i selects FU instance i.
    bool last = false;           ///< Signals FU exit after this packet.
    std::uint16_t reuse = 1;     ///< Times the mOP window replays.
    std::vector<Uop> mops = {};  ///< The mOP window ("window size").

    /** The 32-bit header as a field table (see uop.hh). The window
     *  field is the mOP count; decoding sizes @c mops from it. */
    template <class Io, class P>
    static void
    header(Io &io, P &p)
    {
        std::size_t window = p.mops.size();
        io("reuse", p.reuse, kReuseBits); io("window", window, kWindowBits);
        io("last", p.last, 1); io("mask", p.mask, kMaxMaskBits);
        io("opcode", p.opcode, 4);
        if constexpr (!std::is_const_v<P>)  // decoding
            p.mops.resize(window);
    }

    /** Assembled size: 4-byte header + serialized mOPs. */
    Bytes wireBytes() const;

    /** Check structural validity: a real opcode, a non-empty mask,
     *  reuse >= 1, a window unless last, uOP/opcode agreement, and every
     *  header and mOP field fitting its wire width. */
    bool valid(std::string *why = nullptr) const;
};

/** Wire size of any uOP. */
Bytes uopWireBytes(const Uop &u);

/** Every field of @p u by name, e.g. "memA rows=768 ... load=1". */
std::string uopToString(const Uop &u);

/** The (default-valued) uOP kind packets of opcode @p t carry; Mesh
 *  uOPs serve both MeshA and MeshB, HaltUop stands for NumTypes. */
Uop uopKindFor(FuType t);

/** Whether packets of opcode @p t carry @p u's kind. A HaltUop rides in
 *  no packet: the header's last bit stands for it. */
bool uopMatchesFuType(const Uop &u, FuType t);

/** Address of block @p b of a strided DDR/LPDDR mOP @p m. */
template <class T>
Addr
blockAddr(const T &m, std::uint32_t b)
{
    return m.addr + std::uint64_t(b) * m.stride_offset;
}

/** How many uOPs @p mop expands into: a strided DDR/LPDDR mOP's
 *  stride_count, 1 for every other kind. */
std::uint32_t mopBlocks(const Uop &mop);

/**
 * Append @p mop's uOP sequence to @p out (third-level decoding).
 * Strided DDR/LPDDR mOPs unroll into mopBlocks() single-block uOPs at
 * blockAddr(); everything else passes through unchanged. The decoder
 * issues the same blocks by reference (UopRef) instead.
 */
void expandMopInto(const Uop &mop, std::vector<Uop> &out);

/**
 * Stride merging, expansion's inverse: fold the single-block uOP
 * @p next into @p acc when it is @p acc's next block, so expanding the
 * merged mOP gives back both. Rejected (false, @p acc unchanged) when
 * the two differ in anything but the address, when a two-block run
 * would step backwards or by more than the 32-bit stride_offset holds,
 * or when @p next is not the block after @p acc's last one or @p acc's
 * count is full.
 */
bool mergeStride(DdrUop &acc, const DdrUop &next);
bool mergeStride(LpddrUop &acc, const LpddrUop &next);

/** A full RSN program: the packet sequence plus measurement helpers. */
class RsnProgram
{
  public:
    void append(RsnPacket p) { packets_.push_back(std::move(p)); }
    const std::vector<RsnPacket> &packets() const { return packets_; }
    std::size_t size() const { return packets_.size(); }

    /** Append `last` packets halting every FU instance in @p counts. */
    void appendHalts(const std::array<int, kNumFuTypes> &counts);

    /** Validate every packet; fatal on the first invalid one. */
    void validate() const;

    /** Number of packets targeting @p t. */
    std::uint64_t packetCount(FuType t) const;

    /** Assembled instruction bytes targeting @p t (incl. headers). */
    Bytes instructionBytes(FuType t) const;

    /** Total assembled program bytes. */
    Bytes totalBytes() const;

    /**
     * Bytes of the fully-expanded uOP streams for @p t: every reuse
     * iteration, every masked FU instance, every expanded uOP.
     */
    Bytes expandedUopBytes(FuType t) const;

    /** Expanded uOP count for one FU instance. */
    std::uint64_t uopCountFor(FuId fu) const;

  private:
    std::vector<RsnPacket> packets_;
};

/** Serialize a program to bytes (assembler): per packet, the header
 *  and then each mOP through their field tables. Every packet must be
 *  valid(). */
std::vector<std::uint8_t> assemble(const RsnProgram &prog);

/**
 * Parse @p bytes back into packets (disassembler). Every decoded packet
 * must be valid(), so an accepted program re-assembles to @p bytes. On
 * failure @p out is unchanged and the InvalidConfig status names the
 * packet, its byte offset and the reason (truncation, a code no value
 * has, reserved bits set, or the valid() reason).
 */
Status disassemble(const std::vector<std::uint8_t> &bytes, RsnProgram &out);

} // namespace rsn::isa

#endif // RSN_ISA_PACKET_HH
