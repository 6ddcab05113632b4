#include <gtest/gtest.h>

#include <algorithm>

#include "isa/packet.hh"

namespace {

using namespace rsn;
using namespace rsn::isa;

RsnPacket
samplePacket()
{
    RsnPacket p;
    p.opcode = FuType::MemA;
    p.mask = 0x5;
    p.reuse = 12;
    MemAUop u;
    u.rows = 768;
    u.cols = 128;
    u.slices = 6;
    u.src = {FuType::Ddr, 0};
    u.load = true;
    u.send = true;
    p.mops.emplace_back(u);
    return p;
}

/** @p p assembled alone, then disassembled. */
RsnPacket
roundTrip(const RsnPacket &p)
{
    RsnProgram prog, back;
    prog.append(p);
    const Status st = disassemble(assemble(prog), back);
    EXPECT_TRUE(st.ok()) << st.toString();
    return back.size() == 0 ? RsnPacket{} : back.packets()[0];
}

TEST(PacketHeader, EncodesAllFields)
{
    RsnPacket p = samplePacket();
    p.last = true;
    RsnProgram prog;
    prog.append(p);
    const auto bytes = assemble(prog);
    // reuse:12 | window:7 | last:1 | mask:8 | opcode:4, LSB first.
    const std::uint32_t w = bytes[0] | bytes[1] << 8 | bytes[2] << 16 |
                            std::uint32_t(bytes[3]) << 24;
    EXPECT_EQ(w, 1u << 28 | 0x5u << 20 | 1u << 19 | 1u << 12 | 12u);
    RsnPacket q = roundTrip(p);
    EXPECT_EQ(q.opcode, p.opcode);
    EXPECT_EQ(q.mask, p.mask);
    EXPECT_EQ(q.last, p.last);
    EXPECT_EQ(q.reuse, p.reuse);
    EXPECT_EQ(q.mops, p.mops);
}

class HeaderRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{};

TEST_P(HeaderRoundTrip, AllFieldCombinations)
{
    auto [opcode, mask, reuse] = GetParam();
    RsnPacket p;
    p.opcode = static_cast<FuType>(opcode);
    p.mask = static_cast<std::uint8_t>(mask);
    p.reuse = static_cast<std::uint16_t>(reuse);
    p.last = true;
    p.mops.resize(opcode % 7, uopKindFor(p.opcode));
    RsnPacket q = roundTrip(p);
    EXPECT_EQ(q.opcode, p.opcode);
    EXPECT_EQ(q.mask, p.mask);
    EXPECT_EQ(q.reuse, p.reuse);
    EXPECT_EQ(q.mops, p.mops);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HeaderRoundTrip,
    ::testing::Combine(::testing::Values(0, 3, 7),
                       ::testing::Values(1, 0x3f, 0xff),
                       ::testing::Values(1, 128, 4095)));

TEST(PacketValidation, RejectsBadFields)
{
    std::string why;
    RsnPacket p = samplePacket();
    EXPECT_TRUE(p.valid(&why)) << why;

    RsnPacket bad = p;
    bad.mask = 0;
    EXPECT_FALSE(bad.valid(&why));

    bad = p;
    bad.reuse = 0;
    EXPECT_FALSE(bad.valid(&why));

    bad = p;
    bad.mops.clear();  // non-last with empty window
    EXPECT_FALSE(bad.valid(&why));
    bad.last = true;
    EXPECT_TRUE(bad.valid(&why));

    bad = p;
    bad.opcode = FuType::Mme;  // MemA uop under MME opcode
    EXPECT_FALSE(bad.valid(&why));

    bad = p;
    bad.reuse = kMaxReuse + 1;
    EXPECT_FALSE(bad.valid(&why));
    EXPECT_EQ(why, "header reuse=4096 does not fit its 12-bit field");

    bad = p;
    bad.mops.resize(kMaxWindow + 1, p.mops[0]);
    EXPECT_FALSE(bad.valid(&why));
    EXPECT_EQ(why, "header window=128 does not fit its 7-bit field");
}

TEST(ExpandMop, StridedDdrUnrollsPerBlock)
{
    DdrUop u;
    u.load = true;
    u.dest = {FuType::MemA, 0};
    u.addr = 0x1000;
    u.stride_count = 4;
    u.stride_offset = 0x100;
    u.rows = 8;
    u.cols = 8;
    u.pitch = 8;
    std::vector<Uop> uops;
    expandMopInto(u, uops);
    ASSERT_EQ(uops.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        const auto &d = std::get<DdrUop>(uops[i]);
        EXPECT_EQ(d.addr, 0x1000u + i * 0x100u);
        EXPECT_EQ(d.stride_count, 1u);
        EXPECT_EQ(d.rows, 8u);
    }
}

TEST(ExpandMop, NonStridedPassesThrough)
{
    MmeUop u;
    u.reps = 4;
    std::vector<Uop> uops;
    expandMopInto(u, uops);
    ASSERT_EQ(uops.size(), 1u);
    EXPECT_EQ(std::get<MmeUop>(uops[0]).reps, 4u);
}

/** A single-block 8x8 DDR load at @p addr. */
DdrUop
ddrBlock(Addr addr)
{
    DdrUop u;
    u.load = true;
    u.dest = {FuType::MemA, 0};
    u.addr = addr;
    u.rows = u.cols = u.pitch = 8;
    return u;
}

TEST(MergeStride, RejectsGeometryMismatch)
{
    DdrUop acc = ddrBlock(0x1000);
    DdrUop next = ddrBlock(0x1100);
    next.rows = 4;
    EXPECT_FALSE(mergeStride(acc, next));
    next = ddrBlock(0x1100);
    next.dtype = Dtype::Bf16;
    EXPECT_FALSE(mergeStride(acc, next));
    EXPECT_EQ(acc, ddrBlock(0x1000));  // unchanged
}

TEST(MergeStride, RejectsBackwardOrTooWideStep)
{
    DdrUop acc = ddrBlock(0x1000);
    EXPECT_FALSE(mergeStride(acc, ddrBlock(0x1000)));
    EXPECT_FALSE(mergeStride(acc, ddrBlock(0x0f00)));
    EXPECT_FALSE(mergeStride(acc, ddrBlock(0x1000 + (Addr(1) << 32))));
    EXPECT_EQ(acc, ddrBlock(0x1000));
    // The widest step stride_offset holds still merges.
    EXPECT_TRUE(mergeStride(acc, ddrBlock(0x1000 + 0xffffffffull)));
    EXPECT_EQ(acc.stride_count, 2u);
    EXPECT_EQ(acc.stride_offset, 0xffffffffu);
}

TEST(MergeStride, RejectsNonContiguousBlockOrFullCount)
{
    DdrUop acc = ddrBlock(0x1000);
    ASSERT_TRUE(mergeStride(acc, ddrBlock(0x1100)));
    const DdrUop two = acc;
    EXPECT_FALSE(mergeStride(acc, ddrBlock(0x1300)));  // skips a block
    EXPECT_FALSE(mergeStride(acc, ddrBlock(0x1180)));
    EXPECT_EQ(acc, two);
    EXPECT_TRUE(mergeStride(acc, ddrBlock(0x1200)));
    EXPECT_EQ(acc.stride_count, 3u);

    DdrUop full = ddrBlock(0x1000);
    full.stride_offset = 0x100;
    full.stride_count = 0xfff0;
    EXPECT_FALSE(
        mergeStride(full, ddrBlock(blockAddr(full, full.stride_count))));
    EXPECT_EQ(full.stride_count, 0xfff0u);
}

TEST(MergeStride, ExpandingAMergedRunGivesBackTheUops)
{
    std::vector<Uop> ddr, lpddr;
    for (Addr i = 0; i < 5; ++i) {
        ddr.emplace_back(ddrBlock(0x4000 + i * 0x240));
        LpddrUop l;
        l.addr = 0x80 + i * 0x1000;
        l.dest = {FuType::MemB, 1};
        l.rows = 16;
        l.cols = l.pitch = 64;
        l.dtype = Dtype::Bf16;
        lpddr.emplace_back(l);
    }
    auto roundTrip = [](const std::vector<Uop> &run, auto kind) {
        using T = decltype(kind);
        T acc = std::get<T>(run.front());
        for (std::size_t i = 1; i < run.size(); ++i)
            EXPECT_TRUE(mergeStride(acc, std::get<T>(run[i])));
        EXPECT_EQ(mopBlocks(acc), run.size());
        std::vector<Uop> out;
        expandMopInto(acc, out);
        return out;
    };
    EXPECT_EQ(roundTrip(ddr, DdrUop{}), ddr);
    EXPECT_EQ(roundTrip(lpddr, LpddrUop{}), lpddr);
}

TEST(Program, CountsBytesAndPackets)
{
    RsnProgram prog;
    prog.append(samplePacket());
    prog.append(samplePacket());
    RsnPacket ddr;
    ddr.opcode = FuType::Ddr;
    ddr.mask = 1;
    DdrUop du;
    du.load = true;
    du.dest = {FuType::MemA, 0};
    du.rows = du.cols = du.pitch = 8;
    ddr.mops.emplace_back(du);
    prog.append(ddr);

    EXPECT_EQ(prog.packetCount(FuType::MemA), 2u);
    EXPECT_EQ(prog.packetCount(FuType::Ddr), 1u);
    EXPECT_EQ(prog.instructionBytes(FuType::MemA),
              2 * (4 + 7u));
    EXPECT_EQ(prog.totalBytes(), 2 * (4 + 7u) + 4 + 25u);
}

TEST(Program, ExpandedUopBytesAccountReuseAndMask)
{
    RsnProgram prog;
    RsnPacket p = samplePacket();  // mask 0x5 (2 FUs), reuse 12, 1 mop
    prog.append(p);
    EXPECT_EQ(prog.expandedUopBytes(FuType::MemA),
              12u * 2u * 7u);
}

TEST(Program, UopCountForSelectsInstance)
{
    RsnProgram prog;
    RsnPacket p = samplePacket();  // mask 0x5: instances 0 and 2
    prog.append(p);
    EXPECT_EQ(prog.uopCountFor({FuType::MemA, 0}), 12u);
    EXPECT_EQ(prog.uopCountFor({FuType::MemA, 1}), 0u);
    EXPECT_EQ(prog.uopCountFor({FuType::MemA, 2}), 12u);
}

TEST(Program, HaltsTargetEveryConfiguredInstance)
{
    RsnProgram prog;
    std::array<int, kNumFuTypes> counts{};
    counts[static_cast<int>(FuType::Mme)] = 6;
    counts[static_cast<int>(FuType::Ddr)] = 1;
    prog.appendHalts(counts);
    ASSERT_EQ(prog.size(), 2u);
    EXPECT_TRUE(prog.packets()[0].last);
    EXPECT_EQ(prog.packets()[0].mask, 0x3f);
    EXPECT_EQ(prog.uopCountFor({FuType::Mme, 5}), 1u);  // the halt
}

TEST(Assembler, RoundTripsEveryUopKind)
{
    RsnProgram prog;

    RsnPacket mme;
    mme.opcode = FuType::Mme;
    mme.mask = 0x3f;
    mme.reuse = 3;
    MmeUop m;
    m.reps = 4;
    m.k_steps = 8;
    m.tile_m = 768;
    m.tile_k = 128;
    m.tile_n = 1024;
    m.add_bias = true;
    m.out_dtype = Dtype::Bf16;
    mme.mops.emplace_back(m);
    prog.append(mme);

    RsnPacket mesh;
    mesh.opcode = FuType::MeshA;
    mesh.mask = 1;
    MeshUop mu;
    mu.repeats = 96;
    mu.mode = MeshMode::Parallel;
    mu.routes.push_back({{FuType::MemA, 0}, {FuType::Mme, 0}});
    mu.routes.push_back({{FuType::MemC, 1}, {FuType::Mme, 4}});
    mesh.mops.emplace_back(mu);
    prog.append(mesh);

    RsnPacket ddr;
    ddr.opcode = FuType::Ddr;
    ddr.mask = 1;
    DdrUop d;
    d.addr = 0xABCD00;
    d.stride_count = 8;
    d.stride_offset = 512;
    d.load = true;
    d.dest = {FuType::MemA, 0};
    d.rows = 768;
    d.cols = 128;
    d.pitch = 1024;
    d.dtype = Dtype::Bf16;
    ddr.mops.emplace_back(d);
    prog.append(ddr);

    RsnPacket lp;
    lp.opcode = FuType::Lpddr;
    lp.mask = 1;
    LpddrUop l;
    l.addr = 0x5000;
    l.dest = {FuType::MemB, 2};
    l.load_bias = true;
    l.rows = 2;
    l.cols = 1024;
    l.pitch = 1024;
    l.dtype = Dtype::F32;
    lp.mops.emplace_back(l);
    prog.append(lp);

    RsnPacket mb;
    mb.opcode = FuType::MemB;
    mb.mask = 0x7;
    MemBUop b;
    b.rows = 128;
    b.cols = 1024;
    b.src = {FuType::Lpddr, 0};
    b.load = true;
    b.send = true;
    b.transpose = true;
    mb.mops.emplace_back(b);
    prog.append(mb);

    RsnPacket mc;
    mc.opcode = FuType::MemC;
    mc.mask = 0x3f;
    MemCUop c;
    c.rows = 128;
    c.cols = 1024;
    c.recv_chunks = 1;
    c.send_chunks = 2;
    c.recv = true;
    c.store = true;
    c.softmax = true;
    c.scale_shift = true;
    c.out_dtype = Dtype::Bf16;
    mc.mops.emplace_back(c);
    prog.append(mc);

    auto bytes = assemble(prog);
    EXPECT_EQ(bytes.size(), prog.totalBytes());
    RsnProgram back;
    const Status st = disassemble(bytes, back);
    ASSERT_TRUE(st.ok()) << st.toString();
    ASSERT_EQ(back.size(), prog.size());
    for (std::size_t i = 0; i < prog.size(); ++i) {
        EXPECT_EQ(back.packets()[i].opcode, prog.packets()[i].opcode);
        EXPECT_EQ(back.packets()[i].mask, prog.packets()[i].mask);
        EXPECT_EQ(back.packets()[i].reuse, prog.packets()[i].reuse);
        ASSERT_EQ(back.packets()[i].mops.size(),
                  prog.packets()[i].mops.size());
        for (std::size_t j = 0; j < prog.packets()[i].mops.size(); ++j)
            EXPECT_EQ(back.packets()[i].mops[j],
                      prog.packets()[i].mops[j])
                << "packet " << i << " mop " << j << ": "
                << uopToString(back.packets()[i].mops[j]) << " vs "
                << uopToString(prog.packets()[i].mops[j]);
    }
    EXPECT_EQ(assemble(back), bytes);
}

TEST(Assembler, F32DtypeTagsEncodeAsZeroBits)
{
    // The dtype tags sit in flag-byte bits the paper's encodings leave
    // spare and F32 is code 0, so an all-F32 program's bytes (and
    // Fig. 9's counts) do not depend on the tags; a typed uOP sets
    // exactly those bits.
    RsnPacket p;
    p.opcode = FuType::Mme;
    p.mask = 1;
    MmeUop m;
    m.add_bias = true;
    p.mops = {m};
    RsnProgram f32;
    f32.append(p);
    std::get<MmeUop>(p.mops[0]).out_dtype = Dtype::Bf16;
    RsnProgram bf16;
    bf16.append(p);
    const auto a = assemble(f32), b = assemble(bf16);
    ASSERT_EQ(a.size(), 4u + 11u);
    EXPECT_EQ(a.back(), 0x3);  // add_bias | accum_k
    EXPECT_EQ(b.back(), 0x3 | 1 << 2);
    EXPECT_TRUE(std::equal(a.begin(), a.end() - 1, b.begin()));
}

TEST(Uop, WireBytesArePinned)
{
    // The sizes Fig. 9's compression ratios count.
    EXPECT_EQ(uopWireBytes(MmeUop{}), 11u);
    EXPECT_EQ(uopWireBytes(DdrUop{}), 25u);
    EXPECT_EQ(uopWireBytes(LpddrUop{}), 24u);
    EXPECT_EQ(uopWireBytes(MemAUop{}), 7u);
    EXPECT_EQ(uopWireBytes(MemBUop{}), 6u);
    EXPECT_EQ(uopWireBytes(MemCUop{}), 11u);
    EXPECT_EQ(uopWireBytes(HaltUop{}), 1u);
    MeshUop mu;
    EXPECT_EQ(uopWireBytes(mu), 6u);
    mu.routes.resize(6);
    EXPECT_EQ(uopWireBytes(mu), 6u + 2 * 6);
}

TEST(Uop, ToStringNamesEveryField)
{
    MemAUop a;
    a.rows = 768;
    a.src = kDdr;
    a.send = true;
    EXPECT_EQ(uopToString(a),
              "memA rows=768 cols=0 slices=1 src=DDR0 load=0 send=1");
    MeshUop mu;
    mu.routes.push_back({{FuType::MemA, 0}, {FuType::Mme, 0}});
    EXPECT_EQ(uopToString(mu),
              "mesh repeats=1 mode=par routes=1 src=MemA0 dst=MME0");
    DdrUop d;
    d.dtype = Dtype::Bf16;
    EXPECT_NE(uopToString(d).find(" dtype=bf16 dest=none"),
              std::string::npos);
    EXPECT_EQ(uopToString(Uop{HaltUop{}}), "halt");
}

TEST(PacketValidation, RejectsValuesWiderThanTheirField)
{
    // The DDR address field is 32 bits: an address above 4 GiB must be
    // refused, not truncated on the wire.
    RsnPacket p;
    p.opcode = FuType::Ddr;
    p.mask = 1;
    DdrUop d;
    d.addr = 0x108c51000ull;
    p.mops.emplace_back(d);
    std::string why;
    EXPECT_FALSE(p.valid(&why));
    EXPECT_EQ(why, "ddr addr=4442099712 does not fit its 32-bit field");

    d.addr = 0xffffffffull;
    p.mops = {d};
    EXPECT_TRUE(p.valid(&why)) << why;

    MemAUop a;  // an FU index past the 4-bit nibble
    a.src = {FuType::MemC, 16};
    p.opcode = FuType::MemA;
    p.mops = {a};
    EXPECT_FALSE(p.valid(&why));
    EXPECT_EQ(why, "memA src=MemC16 does not fit its 8-bit field");

    MeshUop mu;  // a route count past the 8-bit field
    mu.routes.resize(256);
    p.opcode = FuType::MeshA;
    p.mops = {mu};
    EXPECT_FALSE(p.valid(&why));
    EXPECT_EQ(why, "mesh routes=256 does not fit its 8-bit field");
}

TEST(Disassembler, RejectsMalformedBytesByName)
{
    RsnProgram prog;
    prog.append(samplePacket());
    const std::vector<std::uint8_t> bytes = assemble(prog);
    ASSERT_EQ(bytes.size(), 4u + 7u);
    auto reason = [](std::vector<std::uint8_t> b) {
        RsnProgram out;
        const Status st = disassemble(b, out);
        EXPECT_EQ(out.size(), 0u) << "a rejection leaves the output alone";
        return st.ok() ? std::string("accepted") : st.message;
    };
    EXPECT_EQ(reason({bytes.begin(), bytes.begin() + 3}),
              "packet 0 at byte 0: truncated");
    EXPECT_EQ(reason({bytes.begin(), bytes.end() - 1}),
              "packet 0 at byte 0: truncated");
    auto b = bytes;
    b[4 + 6] |= 0x80;  // a reserved flag bit
    EXPECT_EQ(reason(b), "packet 0 at byte 0: memA reserved bits set");
    b = bytes;
    b[4 + 5] = 0x90;  // FU type code 9 in the src nibble
    EXPECT_EQ(reason(b), "packet 0 at byte 0: memA src code 144 is out "
                         "of range");
    b = bytes;
    b[3] = 0x80 | (b[3] & 0xf);  // opcode code 8: NumTypes
    EXPECT_EQ(reason(b), "packet 0 at byte 0: invalid opcode");
    b[3] |= 0x10;  // opcode code 9
    EXPECT_EQ(reason(b), "packet 0 at byte 0: header opcode code 9 is out "
                         "of range");
    b = bytes;
    b[2] &= 0x0f;  // mask 0
    b[3] &= 0xf0;
    EXPECT_EQ(reason(b), "packet 0 at byte 0: empty FU mask");

    RsnPacket mesh;  // repeats:32 | mode:8 | routes:8 | (src, dst)...
    mesh.opcode = FuType::MeshB;
    mesh.mask = 1;
    MeshUop mu;
    mu.routes.push_back({{FuType::MemB, 0}, {FuType::Mme, 1}});
    mesh.mops = {mu};
    RsnProgram two;
    two.append(samplePacket());
    two.append(mesh);
    b = assemble(two);
    ASSERT_EQ(b.size(), 4u + 7u + 4u + 8u);
    b[11 + 4 + 4] = 3;  // one past Distribute
    EXPECT_EQ(reason(b), "packet 1 at byte 11: mesh mode code 3 is out of "
                         "range");

    RsnPacket ddr;  // addr:32 | stride_offset:32 | stride_count:16 |
    ddr.opcode = FuType::Ddr;  // load:1 store:1 dtype:2 pad:4 | ...
    ddr.mask = 1;
    DdrUop d;
    d.load = true;
    d.dest = {FuType::MemA, 0};
    d.dtype = Dtype::Bf16;
    ddr.mops = {d};
    RsnProgram one;
    one.append(ddr);
    const std::vector<std::uint8_t> ddr_bytes = assemble(one);
    ASSERT_EQ(ddr_bytes[4 + 10] & 0x0c, 1 << 2) << "dtype bits moved";
    for (int code : {2, 3}) {
        b = ddr_bytes;
        b[4 + 10] = std::uint8_t((b[4 + 10] & ~0x0c) | code << 2);
        EXPECT_EQ(reason(b), "packet 0 at byte 0: ddr dtype code " +
                                 std::to_string(code) + " is out of range");
    }
}

TEST(Uop, MatchesFuType)
{
    EXPECT_TRUE(uopMatchesFuType(Uop{MmeUop{}}, FuType::Mme));
    EXPECT_FALSE(uopMatchesFuType(Uop{MmeUop{}}, FuType::MemA));
    EXPECT_TRUE(uopMatchesFuType(Uop{MeshUop{}}, FuType::MeshA));
    EXPECT_TRUE(uopMatchesFuType(Uop{MeshUop{}}, FuType::MeshB));
    EXPECT_FALSE(uopMatchesFuType(Uop{MeshUop{}}, FuType::Ddr));
    for (int t = 0; t < kNumFuTypes; ++t)  // "last" stands for a halt
        EXPECT_FALSE(uopMatchesFuType(Uop{HaltUop{}},
                                      static_cast<FuType>(t)));
}

} // namespace
