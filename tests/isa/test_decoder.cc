#include <gtest/gtest.h>

#include <memory>

#include "fu/fu.hh"
#include "isa/decoder.hh"
#include "sim/engine.hh"

namespace {

using namespace rsn;
using namespace rsn::isa;

/** Minimal FU that records received uOPs and optionally takes time. */
class RecorderFu : public fu::Fu
{
  public:
    RecorderFu(sim::Engine &eng, FuId id, Tick per_kernel = 0,
               std::size_t depth = fu::Fu::kDefaultUopDepth)
        : Fu(eng, id, depth), per_kernel_(per_kernel)
    {
    }

    /** Every issued uOP, as the single-block uOP its reference names. */
    std::vector<Uop> seen;

  protected:
    sim::Task
    runKernel(UopRef u) override
    {
        std::vector<Uop> blocks;
        expandMopInto(*u.mop, blocks);
        seen.push_back(blocks.at(u.block));
        if (per_kernel_)
            co_await eng_.delay(per_kernel_);
    }

  private:
    Tick per_kernel_;
};

struct DecoderRig {
    sim::Engine eng;
    std::vector<std::unique_ptr<RecorderFu>> fus;
    DecoderUnit dec{eng, /*fetch_fifo_depth=*/6};

    RecorderFu &
    add(FuType t, int idx, Tick per_kernel = 0,
        std::size_t depth = fu::Fu::kDefaultUopDepth)
    {
        fus.push_back(std::make_unique<RecorderFu>(
            eng, FuId{t, std::uint8_t(idx)}, per_kernel, depth));
        dec.attach(fus.back().get());
        return *fus.back();
    }

    void
    start(const RsnProgram &prog)
    {
        for (auto &f : fus)
            f->start();
        dec.start(prog);
    }
};

RsnPacket
memaPacket(std::uint8_t mask, std::uint16_t reuse, int window = 1,
           bool last = false)
{
    RsnPacket p;
    p.opcode = FuType::MemA;
    p.mask = mask;
    p.reuse = reuse;
    p.last = last;
    for (int i = 0; i < window; ++i) {
        MemAUop u;
        u.rows = std::uint16_t(16 + i);
        u.cols = 8;
        u.slices = 1;
        u.load = true;
        p.mops.emplace_back(u);
    }
    return p;
}

std::array<int, kNumFuTypes>
onlyMemA(int n)
{
    std::array<int, kNumFuTypes> c{};
    c[static_cast<int>(FuType::MemA)] = n;
    return c;
}

TEST(Decoder, AttachKeepsOneFuPerMaskBit)
{
    DecoderRig rig;
    rig.add(FuType::MemA, 0);
    RecorderFu dup(rig.eng, {FuType::MemA, 0});
    EXPECT_THROW(rig.dec.attach(&dup), std::logic_error);
    RecorderFu wide(rig.eng, {FuType::MemA, std::uint8_t(kMaxMaskBits)});
    EXPECT_THROW(rig.dec.attach(&wide), std::logic_error);
}

TEST(Decoder, DeliversUopsAndHalts)
{
    DecoderRig rig;
    auto &fu = rig.add(FuType::MemA, 0);
    RsnProgram prog;
    prog.append(memaPacket(0x1, 3));
    prog.appendHalts(onlyMemA(1));
    rig.start(prog);
    ASSERT_TRUE(rig.eng.run());
    EXPECT_TRUE(fu.halted());
    EXPECT_EQ(fu.seen.size(), 3u);  // reuse replayed the window
    EXPECT_TRUE(rig.dec.done());
    EXPECT_EQ(rig.dec.packetsFetched(), 2u);
}

TEST(Decoder, ReuseReplaysWholeWindowInOrder)
{
    DecoderRig rig;
    auto &fu = rig.add(FuType::MemA, 0);
    RsnProgram prog;
    prog.append(memaPacket(0x1, 2, /*window=*/3));
    prog.appendHalts(onlyMemA(1));
    rig.start(prog);
    ASSERT_TRUE(rig.eng.run());
    ASSERT_EQ(fu.seen.size(), 6u);
    // Pattern: rows 16,17,18,16,17,18.
    EXPECT_EQ(std::get<MemAUop>(fu.seen[0]).rows, 16u);
    EXPECT_EQ(std::get<MemAUop>(fu.seen[2]).rows, 18u);
    EXPECT_EQ(std::get<MemAUop>(fu.seen[3]).rows, 16u);
    EXPECT_EQ(std::get<MemAUop>(fu.seen[5]).rows, 18u);
}

TEST(Decoder, UopCacheExpandsOncePerPacketAndReplays)
{
    // A window of 3 mOPs replayed 5 times: every pass issues the
    // window's uOPs again, in order, and the totals count each pass.
    DecoderRig rig;
    auto &fu = rig.add(FuType::MemA, 0);
    RsnProgram prog;
    prog.append(memaPacket(0x1, /*reuse=*/5, /*window=*/3));
    prog.appendHalts(onlyMemA(1));
    rig.start(prog);
    ASSERT_TRUE(rig.eng.run());
    ASSERT_EQ(fu.seen.size(), 15u);
    for (int pass = 0; pass < 5; ++pass)
        for (int i = 0; i < 3; ++i)
            EXPECT_EQ(std::get<MemAUop>(fu.seen[pass * 3 + i]).rows,
                      16 + i)
                << "pass " << pass << " uop " << i;
    EXPECT_EQ(rig.dec.uopsIssued(), 16u);       // 15 + halt
}

TEST(Decoder, MaskFansOutToSelectedInstances)
{
    DecoderRig rig;
    auto &a0 = rig.add(FuType::MemA, 0);
    auto &a1 = rig.add(FuType::MemA, 1);
    auto &a2 = rig.add(FuType::MemA, 2);
    RsnProgram prog;
    prog.append(memaPacket(0x5, 4));  // instances 0 and 2 only
    prog.appendHalts(onlyMemA(3));
    rig.start(prog);
    ASSERT_TRUE(rig.eng.run());
    EXPECT_EQ(a0.seen.size(), 4u);
    EXPECT_EQ(a1.seen.size(), 0u);
    EXPECT_EQ(a2.seen.size(), 4u);
    EXPECT_TRUE(a1.halted());  // halts still delivered
}

TEST(Decoder, StridedDdrMopExpandsAtSecondLevel)
{
    DecoderRig rig;
    auto &ddr = rig.add(FuType::Ddr, 0);
    RsnProgram prog;
    RsnPacket p;
    p.opcode = FuType::Ddr;
    p.mask = 1;
    DdrUop u;
    u.load = true;
    u.dest = {FuType::MemA, 0};
    u.addr = 0x1000;
    u.stride_count = 5;
    u.stride_offset = 0x40;
    u.rows = u.cols = u.pitch = 4;
    p.mops.emplace_back(u);
    prog.append(p);
    std::array<int, kNumFuTypes> c{};
    c[static_cast<int>(FuType::Ddr)] = 1;
    prog.appendHalts(c);
    rig.start(prog);
    ASSERT_TRUE(rig.eng.run());
    ASSERT_EQ(ddr.seen.size(), 5u);
    EXPECT_EQ(std::get<DdrUop>(ddr.seen[4]).addr, 0x1000u + 4 * 0x40);
    EXPECT_EQ(rig.dec.uopsIssued(), 6u);  // 5 expanded + 1 halt
}

TEST(Decoder, TypesDecodeIndependently)
{
    // A slow MemA does not block MemB deliveries.
    DecoderRig rig;
    auto &a = rig.add(FuType::MemA, 0, /*per_kernel=*/10000);
    auto &b = rig.add(FuType::MemB, 0);
    RsnProgram prog;
    prog.append(memaPacket(0x1, 10));
    RsnPacket pb;
    pb.opcode = FuType::MemB;
    pb.mask = 1;
    pb.reuse = 4;
    pb.mops.emplace_back(MemBUop{});
    prog.append(pb);
    std::array<int, kNumFuTypes> c{};
    c[static_cast<int>(FuType::MemA)] = 1;
    c[static_cast<int>(FuType::MemB)] = 1;
    prog.appendHalts(c);
    rig.start(prog);
    // Run a slice: MemB should be done long before MemA.
    rig.eng.run(5000);
    EXPECT_EQ(b.seen.size(), 4u);
    EXPECT_LT(a.seen.size(), 10u);
    rig.eng.run();
    EXPECT_EQ(a.seen.size(), 10u);
}

TEST(Decoder, FetchStallDeadlockScenario)
{
    // Paper Sec. 3.3: FU1 waits for data whose producer's instruction
    // sits behind many FU1 packets; shallow FIFOs deadlock. Model: MemA0
    // blocks forever (simulated by a kernel that waits on a stream that
    // never delivers) while many distinct MemA packets precede the DDR
    // packet.
    sim::Engine eng;

    // MemA with a tiny queue, blocked on a stream with no producer.
    class BlockedFu : public fu::Fu
    {
      public:
        BlockedFu(sim::Engine &e, FuId id, sim::Stream &s)
            : Fu(e, id, 2), s_(s)
        {
        }

      protected:
        sim::Task
        runKernel(UopRef) override
        {
            (void)co_await s_.recv();  // never satisfied by MemA alone
        }

      private:
        sim::Stream &s_;
    };

    sim::Stream data(eng, 64, 2, "ddr->mema");
    BlockedFu mema(eng, {FuType::MemA, 0}, data);

    // DDR FU that would feed the stream when it gets its uop.
    class FeederFu : public fu::Fu
    {
      public:
        FeederFu(sim::Engine &e, FuId id, sim::Stream &s) : Fu(e, id),
                                                            s_(s)
        {
        }

      protected:
        sim::Task
        runKernel(UopRef) override
        {
            co_await s_.send(sim::makeChunk(1, 1));
        }

      private:
        sim::Stream &s_;
    };
    FeederFu ddr(eng, {FuType::Ddr, 0}, data);

    DecoderUnit dec(eng, /*fetch_fifo_depth=*/1);
    dec.attach(&mema);
    dec.attach(&ddr);

    // Many *distinct* MemA packets (window batching cannot merge them)
    // ahead of the single DDR packet that unblocks everything.
    RsnProgram prog;
    for (int i = 0; i < 12; ++i)
        prog.append(memaPacket(0x1, 1, 1));
    RsnPacket dp;
    dp.opcode = FuType::Ddr;
    dp.mask = 1;
    DdrUop du;
    du.load = true;
    du.rows = du.cols = du.pitch = 1;
    du.dest = {FuType::MemA, 0};
    dp.mops.emplace_back(du);
    // DDR must feed one chunk per MemA kernel.
    dp.reuse = 12;
    prog.append(dp);
    std::array<int, kNumFuTypes> c{};
    c[static_cast<int>(FuType::MemA)] = 1;
    c[static_cast<int>(FuType::Ddr)] = 1;
    prog.appendHalts(c);

    mema.start();
    ddr.start();
    dec.start(prog);
    ASSERT_TRUE(eng.run());
    // Quiesced but not done: the classic fetch-stall deadlock.
    EXPECT_FALSE(dec.done());
    EXPECT_FALSE(mema.halted());
    EXPECT_NE(dec.stateString().find("fetch"), std::string::npos);
}

TEST(Decoder, InstructionByteAccountingMatchesProgram)
{
    DecoderRig rig;
    rig.add(FuType::MemA, 0);
    RsnProgram prog;
    prog.append(memaPacket(0x1, 2));
    prog.append(memaPacket(0x1, 5, 2));
    prog.appendHalts(onlyMemA(1));
    rig.start(prog);
    ASSERT_TRUE(rig.eng.run());
    EXPECT_EQ(rig.dec.instructionBytesFetched(), prog.totalBytes());
}

} // namespace
