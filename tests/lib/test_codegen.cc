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

TEST(Codegen, CompileIsSingleUse)
{
    core::RsnMachine mach(core::MachineConfig::vck190());
    ProgramBuilder b(mach, ScheduleOptions::optimized());
    auto m = linModel(96, 64, 48);
    (void)b.compile(m);
    EXPECT_THROW((void)b.compile(m), std::logic_error);
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

TEST(Codegen, ProgramBytesArePinned)
{
    // The assembled program of every rsn-sim model (default options:
    // batch 6, seq 512, one layer, fused QKV) under every schedule, f32
    // and all-bf16, on timing-only machines. Golden ticks alone cannot
    // prove that a codegen rewrite emits the same programs; these bytes
    // do. The hashes were recorded by running this test against the
    // build before the lane wiring was derived from the core/config.hh
    // FU-count constants (it used literal 3s and 6s). The assembler
    // encodes no dtype tags, so f32 and bf16 hash alike; the golden bf16
    // ticks pin the precision stamping.
    struct Case {
        const char *model;
        const char *schedule;
        bool bf16;
        std::uint64_t hash;
    };
    const Case cases[] = {
        {"bert", "opt", false, 0x7c1e6108e3f42909ull},
        {"bert", "opt", true, 0x7c1e6108e3f42909ull},
        {"bert", "bw", false, 0x5ac13d06ebb01975ull},
        {"bert", "bw", true, 0x5ac13d06ebb01975ull},
        {"bert", "noopt", false, 0x416b50bb4ff27477ull},
        {"bert", "noopt", true, 0x416b50bb4ff27477ull},
        {"vit", "opt", false, 0x5ae1087419a61357ull},
        {"vit", "opt", true, 0x5ae1087419a61357ull},
        {"vit", "bw", false, 0x2489bb51fe84d02dull},
        {"vit", "bw", true, 0x2489bb51fe84d02dull},
        {"vit", "noopt", false, 0x3267ce6f593d47d4ull},
        {"vit", "noopt", true, 0x3267ce6f593d47d4ull},
        {"ncf", "opt", false, 0xe68985a04f768788ull},
        {"ncf", "opt", true, 0xe68985a04f768788ull},
        {"ncf", "bw", false, 0x91908332c0262785ull},
        {"ncf", "bw", true, 0x91908332c0262785ull},
        {"ncf", "noopt", false, 0x90da682da04f2784ull},
        {"ncf", "noopt", true, 0x90da682da04f2784ull},
        {"mlp", "opt", false, 0x5bdb9f0f00da602full},
        {"mlp", "opt", true, 0x5bdb9f0f00da602full},
        {"mlp", "bw", false, 0xac1d78fcbc828e32ull},
        {"mlp", "bw", true, 0xac1d78fcbc828e32ull},
        {"mlp", "noopt", false, 0x68f757994b38b7a8ull},
        {"mlp", "noopt", true, 0x68f757994b38b7a8ull},
        {"tiny", "opt", false, 0x68ac35495433c84bull},
        {"tiny", "opt", true, 0x68ac35495433c84bull},
        {"tiny", "bw", false, 0x5922c761f7e4b73ull},
        {"tiny", "bw", true, 0x5922c761f7e4b73ull},
        {"tiny", "noopt", false, 0x19e4cc7b111be5efull},
        {"tiny", "noopt", true, 0x19e4cc7b111be5efull},
    };
    auto makeModel = [](const std::string &name) {
        constexpr std::uint32_t kBatch = 6;
        if (name == "bert")
            return bertLargeEncoder(kBatch, 512, true, 1);
        if (name == "vit")
            return vitEncoder(kBatch, true, 1);
        if (name == "ncf")
            return ncf(kBatch);
        if (name == "mlp")
            return mlp(kBatch);
        return tinyEncoder(kBatch, 32, 64, 4, 128, true);
    };
    auto makeSchedule = [](const std::string &name) {
        if (name == "bw")
            return ScheduleOptions::bwOptimized();
        if (name == "noopt")
            return ScheduleOptions::noOptimize();
        return ScheduleOptions::optimized();
    };
    std::string table;
    for (const Case &c : cases) {
        auto cfg = core::MachineConfig::vck190();
        if (c.bf16)
            cfg.precision = {Dtype::Bf16, Dtype::Bf16, Dtype::Bf16};
        core::RsnMachine mach(cfg);
        const auto compiled = compileModel(mach, makeModel(c.model),
                                           makeSchedule(c.schedule));
        const std::uint64_t h = fnv1a(isa::assemble(compiled.program));
        EXPECT_EQ(h, c.hash) << c.model << " " << c.schedule
                             << (c.bf16 ? " bf16" : " f32");
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

} // namespace
