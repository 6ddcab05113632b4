#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "isa/packet.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"

namespace {

using namespace rsn;
using namespace rsn::lib;

Model
linModel(std::uint32_t m, std::uint32_t k, std::uint32_t n,
         bool bias = true)
{
    Model mod;
    mod.name = "lin";
    mod.input_rows = m;
    mod.input_cols = k;
    LinearLayer l;
    l.name = "fc";
    l.m = m;
    l.k = k;
    l.n = n;
    l.bias = bias;
    l.in_src = "input";
    l.out_name = "out";
    mod.segments.emplace_back(l);
    return mod;
}

TEST(Codegen, DeclaresAllTensors)
{
    core::RsnMachine mach(core::MachineConfig::vck190());
    auto c = compileModel(mach, linModel(96, 64, 48),
                          ScheduleOptions::optimized());
    EXPECT_TRUE(c.hasTensor("input"));
    EXPECT_TRUE(c.hasTensor("W.fc"));
    EXPECT_TRUE(c.hasTensor("b.fc"));
    EXPECT_TRUE(c.hasTensor("out"));
    EXPECT_FALSE(c.hasTensor("ln.fc"));
    EXPECT_EQ(c.tensor("W.fc").rows, 64u);
    EXPECT_EQ(c.tensor("W.fc").cols, 48u);
    EXPECT_TRUE(c.tensor("W.fc").is_weight);
    EXPECT_FALSE(c.tensor("out").is_weight);
}

TEST(Codegen, ProgramValidatesAndEndsWithHalts)
{
    core::RsnMachine mach(core::MachineConfig::vck190());
    auto c = compileModel(mach, linModel(96, 64, 48),
                          ScheduleOptions::optimized());
    c.program.validate();
    // Every FU type present in the machine gets a halt.
    int halts = 0;
    for (const auto &p : c.program.packets())
        halts += p.last;
    EXPECT_EQ(halts, kNumFuTypes);
}

TEST(Codegen, MmFlopsMatchModel)
{
    core::RsnMachine mach(core::MachineConfig::vck190());
    auto c = compileModel(mach, linModel(96, 64, 48),
                          ScheduleOptions::optimized());
    EXPECT_EQ(c.mm_flops, 2ull * 96 * 64 * 48);
}

TEST(Codegen, NoOptimizeEmitsMorePackets)
{
    // Without double buffering every chunk needs separate load/send
    // uops, and stores cannot merge into strided mOPs behind loads.
    core::RsnMachine m1(core::MachineConfig::vck190());
    auto opt = compileModel(m1, bertLargeEncoder(2, 256, true, 1),
                            ScheduleOptions::optimized());
    core::RsnMachine m2(core::MachineConfig::vck190());
    auto noopt = compileModel(m2, bertLargeEncoder(2, 256, true, 1),
                              ScheduleOptions::noOptimize());
    EXPECT_GT(noopt.program.size(), opt.program.size());
    EXPECT_GT(noopt.program.totalBytes(), opt.program.totalBytes());
}

TEST(Codegen, StrideMergeCompressesRegularLoads)
{
    // A multi-k-step GEMM produces strided LHS loads that merge; the
    // expanded uOP bytes must exceed the instruction bytes for DDR.
    core::RsnMachine mach(core::MachineConfig::vck190());
    auto opts = ScheduleOptions::optimized();
    opts.k_step = 16;
    auto c = compileModel(mach, linModel(96, 128, 48, false), opts);
    EXPECT_GT(c.program.expandedUopBytes(FuType::Ddr),
              c.program.instructionBytes(FuType::Ddr));
}

TEST(Codegen, ReuseCompressionOnScratchpadStreams)
{
    // The MemA steady state must compress into a handful of packets.
    core::RsnMachine mach(core::MachineConfig::vck190());
    auto c = compileModel(mach, linModel(768, 1024, 1024),
                          ScheduleOptions::optimized());
    // 8 k-steps -> 9-ish MemA uops but only a few packets.
    EXPECT_LE(c.program.packetCount(FuType::MemA), 8u);
    EXPECT_GE(c.program.uopCountFor({FuType::MemA, 0}), 9u);
}

TEST(Codegen, InterleavedStoresSitBetweenLoads)
{
    // In the optimized schedule, DDR store uops appear between load
    // uops rather than all trailing (Sec. 4.4).
    core::RsnMachine mach(core::MachineConfig::vck190());
    auto c = compileModel(mach, linModel(3072, 1024, 1024),
                          ScheduleOptions::optimized());
    bool store_before_last_load = false;
    bool seen_store = false;
    for (const auto &p : c.program.packets()) {
        if (p.opcode != FuType::Ddr)
            continue;
        for (const auto &m : p.mops) {
            const auto &d = std::get<isa::DdrUop>(m);
            if (d.store)
                seen_store = true;
            else if (seen_store)
                store_before_last_load = true;
        }
    }
    EXPECT_TRUE(store_before_last_load);
}

TEST(Codegen, NoOptKeepsStoresAfterTheirTileLoads)
{
    core::RsnMachine mach(core::MachineConfig::vck190());
    auto c = compileModel(mach, linModel(768, 256, 256),
                          ScheduleOptions::noOptimize());
    // Single tile: all loads precede all stores.
    bool seen_store = false;
    for (const auto &p : c.program.packets()) {
        if (p.opcode != FuType::Ddr)
            continue;
        for (const auto &m : p.mops) {
            const auto &d = std::get<isa::DdrUop>(m);
            if (d.store)
                seen_store = true;
            else
                EXPECT_FALSE(seen_store) << "load after store in no-opt "
                                            "single-tile program";
        }
    }
}

TEST(Codegen, AttentionPipelinedAvoidsScoresTensor)
{
    core::RsnMachine m1(core::MachineConfig::vck190());
    auto pipe = compileModel(m1, bertLargeEncoder(1, 128, true, 1),
                             ScheduleOptions::optimized());
    EXPECT_FALSE(pipe.hasTensor("scores.L0.attention"));

    core::RsnMachine m2(core::MachineConfig::vck190());
    auto seq = compileModel(m2, bertLargeEncoder(1, 128, true, 1),
                            ScheduleOptions::bwOptimized());
    EXPECT_TRUE(seq.hasTensor("scores.L0.attention"));
}

TEST(Codegen, InstructionBytesScaleSubLinearlyWithWork)
{
    // Quadrupling the batch must not quadruple instruction bytes:
    // reuse compression absorbs the repetition (low-entropy control,
    // paper Sec. 1).
    core::RsnMachine m1(core::MachineConfig::vck190());
    auto small = compileModel(m1, bertLargeEncoder(1, 512, true, 1),
                              ScheduleOptions::optimized());
    core::RsnMachine m2(core::MachineConfig::vck190());
    auto big = compileModel(m2, bertLargeEncoder(4, 512, true, 1),
                            ScheduleOptions::optimized());
    double work_ratio = 4.0;
    double byte_ratio = double(big.program.totalBytes()) /
                        small.program.totalBytes();
    EXPECT_LT(byte_ratio, work_ratio);
}

TEST(Codegen, RejectsLayerNormOnPartialWidthTiles)
{
    core::RsnMachine mach(core::MachineConfig::vck190());
    Model mod;
    mod.input_rows = 96;
    mod.input_cols = 64;
    LinearLayer l;
    l.name = "fc";
    l.m = 96;
    l.k = 64;
    l.n = 2048;  // exceeds out_tile_n
    l.layernorm = true;
    l.in_src = "input";
    l.out_name = "out";
    mod.segments.emplace_back(l);
    auto opts = ScheduleOptions::optimized();
    opts.out_tile_n = 1024;
    EXPECT_THROW((void)compileModel(mach, mod, opts), std::logic_error);
}

TEST(Codegen, AddressesPastTheWireFieldAreRejected)
{
    // The DDR address field is 32 bits. Sixteen BERT-Large layers under
    // the bw schedule place tensors past 4 GiB; pack()'s validate()
    // refuses them instead of truncating the address on the wire. The
    // opt schedule keeps fewer intermediates and still fits (its top
    // DDR address at 16 layers is 0xa8c51000).
    core::RsnMachine mach(core::MachineConfig::vck190());
    try {
        (void)compileModel(mach, bertLargeEncoder(6, 512, true, 16),
                           ScheduleOptions::bwOptimized());
        ADD_FAILURE() << "compiled";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "ddr addr=4295258112 does not fit its 32-bit field"),
                  std::string::npos)
            << e.what();
    }
    core::RsnMachine fits(core::MachineConfig::vck190());
    EXPECT_NO_THROW((void)compileModel(
        fits, bertLargeEncoder(6, 512, true, 16),
        ScheduleOptions::optimized()));
}

TEST(Codegen, SizesPastTheirWireFieldAreRejected)
{
    // uOP tile sizes are 32-bit in memory and 16-bit on the wire. A
    // 65536-token sequence makes every attention tile 65536 rows tall;
    // validate() names the field instead of the program carrying
    // tile_m = 0.
    core::RsnMachine mach(core::MachineConfig::vck190());
    try {
        (void)compileModel(mach, bertLargeEncoder(1, 65536, true, 1),
                           ScheduleOptions::optimized());
        ADD_FAILURE() << "compiled";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "mme tile_m=65536 does not fit its 16-bit field"),
                  std::string::npos)
            << e.what();
    }
    core::RsnMachine fits(core::MachineConfig::vck190());
    const auto c = compileModel(fits, bertLargeEncoder(1, 32768, true, 1),
                                ScheduleOptions::optimized());
    bool saw_tall_tile = false;
    for (const auto &p : c.program.packets())
        for (const auto &m : p.mops)
            if (const auto *u = std::get_if<isa::MmeUop>(&m))
                saw_tall_tile |= u->tile_m == 32768;
    EXPECT_TRUE(saw_tall_tile);
}

/** 64-bit FNV-1a over @p bytes. */
std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * The assembled-program table: every rsn-sim model (default options:
 * batch 6, seq 512, one layer, fused QKV) under every schedule, f32 and
 * all-bf16, on timing-only machines. The batch-1 rows ("bert1": 16
 * heads, "tiny1": 2 heads) reach what batch 6 cannot: lanes left with
 * one head fewer than their siblings, and the sequential pass's idle
 * scratchpads.
 */
struct ProgramCase {
    const char *model;
    const char *schedule;
    bool bf16;
    std::uint64_t hash;
};
const ProgramCase kProgramCases[] = {
    {"bert", "opt", false, 0x7c1e6108e3f42909ull},
    {"bert", "opt", true, 0xecbf2c907e2ab10dull},
    {"bert", "bw", false, 0x5ac13d06ebb01975ull},
    {"bert", "bw", true, 0x600bbf26d6b65ee3ull},
    {"bert", "noopt", false, 0x416b50bb4ff27477ull},
    {"bert", "noopt", true, 0x6ffa39523b8a4bfbull},
    {"vit", "opt", false, 0x5ae1087419a61357ull},
    {"vit", "opt", true, 0xc638bf2fac274930ull},
    {"vit", "bw", false, 0x2489bb51fe84d02dull},
    {"vit", "bw", true, 0x6be30c016167255dull},
    {"vit", "noopt", false, 0x3267ce6f593d47d4ull},
    {"vit", "noopt", true, 0x358a06912d627aeeull},
    {"ncf", "opt", false, 0xe68985a04f768788ull},
    {"ncf", "opt", true, 0xf0d8c999c0d49a3dull},
    {"ncf", "bw", false, 0x91908332c0262785ull},
    {"ncf", "bw", true, 0xb31271b0ada4e8caull},
    {"ncf", "noopt", false, 0x90da682da04f2784ull},
    {"ncf", "noopt", true, 0xe5a6c0d2b019c030ull},
    {"mlp", "opt", false, 0x5bdb9f0f00da602full},
    {"mlp", "opt", true, 0xd77c82178419ebb2ull},
    {"mlp", "bw", false, 0xac1d78fcbc828e32ull},
    {"mlp", "bw", true, 0x6b8897a0a6fb0219ull},
    {"mlp", "noopt", false, 0x68f757994b38b7a8ull},
    {"mlp", "noopt", true, 0x81e4d983f7d7b43cull},
    {"tiny", "opt", false, 0x68ac35495433c84bull},
    {"tiny", "opt", true, 0x8ad8a4856759425ull},
    {"tiny", "bw", false, 0x5922c761f7e4b73ull},
    {"tiny", "bw", true, 0xda4e149a2993b847ull},
    {"tiny", "noopt", false, 0x19e4cc7b111be5efull},
    {"tiny", "noopt", true, 0xeabe14056d93c403ull},
    {"bert1", "opt", false, 0x25f4c6dbe8d328f1ull},
    {"bert1", "bw", false, 0xee36e02fdae0b80aull},
    {"bert1", "noopt", false, 0x2ff507f1a7a39bebull},
    {"tiny1", "opt", false, 0xc4015a1c7181daa0ull},
    {"tiny1", "bw", false, 0x3141e98a53a8a3full},
    {"tiny1", "noopt", false, 0x3e7bfe95d3c75e23ull},
};

Model
programCaseModel(const std::string &name)
{
    constexpr std::uint32_t kBatch = 6;
    if (name == "bert")
        return bertLargeEncoder(kBatch, 512, true, 1);
    if (name == "vit")
        return vitEncoder(kBatch, true, 1);
    if (name == "ncf")
        return ncf(kBatch);
    if (name == "mlp")
        return mlp(kBatch);
    if (name == "bert1")
        return bertLargeEncoder(1, 512, true, 1);
    if (name == "tiny1")
        return tinyEncoder(1, 32, 64, 2, 128, true);
    return tinyEncoder(kBatch, 32, 64, 4, 128, true);
}

ScheduleOptions
programCaseSchedule(const std::string &name)
{
    if (name == "bw")
        return ScheduleOptions::bwOptimized();
    if (name == "noopt")
        return ScheduleOptions::noOptimize();
    return ScheduleOptions::optimized();
}

/** Compile one row of kProgramCases on a fresh timing-only machine. */
CompiledModel
compileProgramCase(const ProgramCase &c)
{
    auto cfg = core::MachineConfig::vck190();
    if (c.bf16)
        cfg.precision = {Dtype::Bf16, Dtype::Bf16, Dtype::Bf16};
    core::RsnMachine mach(cfg);
    return compileModel(mach, programCaseModel(c.model),
                        programCaseSchedule(c.schedule));
}

/** "<model> <schedule> f32|bf16", for failure messages. */
std::string
caseName(const ProgramCase &c)
{
    return std::string(c.model) + " " + c.schedule +
           (c.bf16 ? " bf16" : " f32");
}

TEST(Codegen, ProgramBytesArePinned)
{
    // Golden ticks alone cannot prove that a codegen rewrite emits the
    // same programs; these bytes do. The hashes were recorded by running
    // this test against the build before the lane wiring was derived
    // from the core/config.hh FU-count constants (it used literal 3s and
    // 6s). The wire carries the uOP dtype tags, so each bf16 row must
    // differ from its f32 row. Every program must also disassemble back
    // to itself, uOP by uOP.
    std::string table;
    std::uint64_t f32_hash = 0;
    for (const ProgramCase &c : kProgramCases) {
        const auto compiled = compileProgramCase(c);
        const std::string what = caseName(c);
        const auto bytes = isa::assemble(compiled.program);
        const std::uint64_t h = fnv1a(bytes);
        EXPECT_EQ(h, c.hash) << what;
        if (!c.bf16)
            f32_hash = c.hash;  // each f32 row precedes its bf16 row
        else
            EXPECT_NE(c.hash, f32_hash) << what << " hashes like f32";
        isa::RsnProgram back;
        const Status st = isa::disassemble(bytes, back);
        ASSERT_TRUE(st.ok()) << what << ": " << st.toString();
        const auto &want = compiled.program.packets();
        ASSERT_EQ(back.size(), want.size()) << what;
        for (std::size_t i = 0; i < want.size(); ++i) {
            const isa::RsnPacket &p = back.packets()[i];
            ASSERT_TRUE(p.opcode == want[i].opcode &&
                        p.mask == want[i].mask && p.last == want[i].last &&
                        p.reuse == want[i].reuse &&
                        p.mops.size() == want[i].mops.size())
                << what << " packet " << i;
            for (std::size_t j = 0; j < p.mops.size(); ++j)
                ASSERT_EQ(p.mops[j], want[i].mops[j])
                    << what << " packet " << i << " mOP " << j << ": "
                    << isa::uopToString(p.mops[j]) << " vs "
                    << isa::uopToString(want[i].mops[j]);
        }
        char row[128];
        std::snprintf(row, sizeof row,
                      "        {\"%s\", \"%s\", %s, 0x%llxull},\n",
                      c.model, c.schedule, c.bf16 ? "true" : "false",
                      static_cast<unsigned long long>(h));
        table += row;
    }
    if (HasFailure())  // the rows to paste when re-recording
        std::printf("%s", table.c_str());
}

TEST(Codegen, MemCReceivesOneChunkPerUop)
{
    // MemC adopts a one-chunk receive's tile by move; a receive of
    // several chunks is legal in the ISA but takes a copy into a staging
    // tile (fu/mem_fus.hh). No program codegen emits takes that path.
    for (const ProgramCase &c : kProgramCases) {
        const auto compiled = compileProgramCase(c);
        const auto &packets = compiled.program.packets();
        for (std::size_t i = 0; i < packets.size(); ++i)
            for (const auto &m : packets[i].mops) {
                if (const auto *u = std::get_if<isa::MemCUop>(&m)) {
                    EXPECT_EQ(u->recv_chunks, 1u)
                        << caseName(c) << " packet " << i << ": "
                        << isa::uopToString(m);
                }
            }
    }
}

} // namespace
