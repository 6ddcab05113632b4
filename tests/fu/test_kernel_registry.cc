/**
 * @file
 * Unit tests for the runtime kernel dispatch (fu/kernel_registry.hh):
 * the runnable-table list (names, best-first order, exact scalar
 * last), the pure RSN_ISA rule envChoice (lenient fallback on a value
 * that names no runnable table), the strict select() used by rsn-sim
 * --isa, and the ScopedIsaOverride RAII contract. The per-kernel
 * numerics live in test_gemm_kernel.cc / test_nonlinear_simd.cc; the
 * end-to-end golden loop in tests/lib/test_golden_e2e.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "fu/gemm_kernel.hh"
#include "fu/kernel_registry.hh"
#include "fu/nonlinear.hh"

namespace {

using namespace rsn;

// ------------------------------------------------- the runnable list --

TEST(KernelRegistry, TableNamesAreTheIsaVocabulary)
{
    const std::set<std::string> vocabulary = {"avx512", "avx2", "portable",
                                              "scalar"};
    std::set<std::string> seen;
    for (const kernel::KernelTable *t : kernel::runnableTables()) {
        EXPECT_TRUE(vocabulary.count(t->name)) << t->name;
        EXPECT_TRUE(seen.insert(t->name).second) << "duplicate " << t->name;
        EXPECT_EQ(t->exact, std::string(t->name) == "scalar") << t->name;
    }
}

TEST(KernelRegistry, RunnableListIsBestFirstWithScalarLast)
{
    const auto runnable = kernel::runnableTables();
    ASSERT_GE(runnable.size(), 2u);
    EXPECT_STRNE(runnable.front()->name, "scalar")
        << "the exact reference is never the default";
    EXPECT_STREQ(runnable.back()->name, "scalar");
    EXPECT_STREQ(runnable[runnable.size() - 2]->name, "portable");
    const std::vector<std::string> rank = {"avx512", "avx2", "portable",
                                           "scalar"};
    const auto rankOf = [&rank](const char *name) {
        return std::find(rank.begin(), rank.end(), name) - rank.begin();
    };
    for (std::size_t i = 1; i < runnable.size(); ++i)
        EXPECT_LT(rankOf(runnable[i - 1]->name), rankOf(runnable[i]->name))
            << runnable[i - 1]->name << " before " << runnable[i]->name;
}

#if defined(__x86_64__) || defined(__i386__)
TEST(KernelRegistry, X86TablesFollowTheCompilerRuntimesCpuCheck)
{
    std::set<std::string> names;
    for (const kernel::KernelTable *t : kernel::runnableTables())
        names.insert(t->name);
    EXPECT_EQ(names.count("avx512") == 1,
              bool(__builtin_cpu_supports("avx512f")));
    EXPECT_EQ(names.count("avx2") == 1,
              __builtin_cpu_supports("avx2") &&
                  __builtin_cpu_supports("fma"));
}
#endif

// ----------------------------------------------------- the RSN_ISA rule --

TEST(KernelRegistry, UnsetRsnIsaUsesTheFrontTable)
{
    const auto runnable = kernel::runnableTables();
    for (const char *unset : {static_cast<const char *>(nullptr), ""}) {
        const kernel::EnvChoice c = kernel::envChoice(unset, runnable);
        EXPECT_EQ(c.table, runnable.front());
        EXPECT_TRUE(c.warning.empty()) << c.warning;
    }
}

TEST(KernelRegistry, RsnIsaSelectsAnyRunnableTable)
{
    const auto runnable = kernel::runnableTables();
    for (const kernel::KernelTable *t : runnable) {
        const kernel::EnvChoice c = kernel::envChoice(t->name, runnable);
        EXPECT_EQ(c.table, t) << t->name;
        EXPECT_TRUE(c.warning.empty()) << c.warning;
    }
}

TEST(KernelRegistry, UnknownRsnIsaFallsBackToTheFrontWithWarning)
{
    const auto runnable = kernel::runnableTables();
    for (const char *bad : {"bogus", "AVX512", "avx2-fma", "exact", "neon"}) {
        const kernel::EnvChoice c = kernel::envChoice(bad, runnable);
        EXPECT_EQ(c.table, runnable.front()) << bad;
        EXPECT_NE(c.warning.find(bad), std::string::npos) << c.warning;
        EXPECT_NE(c.warning.find("scalar"), std::string::npos)
            << "the warning names the runnable tables: " << c.warning;
    }
}

TEST(KernelRegistry, NotRunnableRsnIsaFallsBackWithWarning)
{
    // A CPU that runs only the baseline tables: a vector table named in
    // RSN_ISA is not runnable there, and the front (portable) is used.
    const auto all = kernel::runnableTables();
    const auto baseline = all.last(2);
    ASSERT_STREQ(baseline.front()->name, "portable");
    for (const char *want : {"avx512", "avx2"}) {
        const kernel::EnvChoice c = kernel::envChoice(want, baseline);
        EXPECT_EQ(c.table, baseline.front()) << want;
        EXPECT_NE(c.warning.find(want), std::string::npos) << c.warning;
        EXPECT_NE(c.warning.find("using portable"), std::string::npos)
            << c.warning;
    }
}

// ------------------------------------------- strict select and override --

TEST(KernelRegistry, StrictSelectRejectsNamesThatAreNotRunnable)
{
    const kernel::KernelTable &before = kernel::active();
    for (const char *bad : {"", "mips", "AVX512", "avx2-fma"}) {
        Status st = kernel::select(bad);
        EXPECT_FALSE(st.ok()) << bad;
        EXPECT_EQ(st.code, StatusCode::InvalidConfig) << bad;
        EXPECT_EQ(&kernel::active(), &before)
            << "failed select must leave the selection unchanged";
    }
    // The error names the runnable tables so the CLI message is
    // actionable.
    Status st = kernel::select("mips");
    EXPECT_NE(st.toString().find("portable|scalar"), std::string::npos)
        << st.toString();
}

TEST(KernelRegistry, StrictSelectByNameSwitchesTheActiveTable)
{
    const kernel::KernelTable &before = kernel::active();
    ASSERT_TRUE(kernel::select("scalar").ok());
    EXPECT_STREQ(kernel::active().name, "scalar");

    // Restore for the rest of the process.
    ASSERT_TRUE(kernel::select(before.name).ok());
    EXPECT_EQ(&kernel::active(), &before);
}

TEST(KernelRegistry, ScopedOverrideRestoresTheTable)
{
    const auto runnable = kernel::runnableTables();
    const kernel::KernelTable &before = kernel::active();
    {
        kernel::ScopedIsaOverride pin(*runnable.back());
        EXPECT_STREQ(kernel::active().name, "scalar");
        {
            kernel::ScopedIsaOverride nested(*runnable[runnable.size() - 2]);
            EXPECT_STREQ(kernel::active().name, "portable");
        }
        EXPECT_STREQ(kernel::active().name, "scalar") << "nesting unwinds";
    }
    EXPECT_EQ(&kernel::active(), &before);
}

// ------------------------------------------- scalar table exactness ----

TEST(KernelRegistry, ScalarTableIsBitExactAgainstTheReferenceKernels)
{
    // The scalar table is not an approximation of the reference — it
    // IS the reference, routed through the table. Bit-exact, not
    // tolerance-compared.
    const kernel::KernelTable *scalar = kernel::runnableTables().back();
    ASSERT_STREQ(scalar->name, "scalar");
    EXPECT_TRUE(scalar->exact);

    std::mt19937 rng(71);
    std::uniform_real_distribution<float> dist(-3.f, 3.f);
    const std::uint32_t m = 13, k = 21, n = 17;
    std::vector<float> lhs(m * k), rhs(k * n), acc(m * n);
    for (auto *v : {&lhs, &rhs, &acc})
        for (auto &x : *v)
            x = dist(rng);

    auto want = acc;
    fu::gemmRefAccumulate(want.data(), lhs.data(), rhs.data(), m, k, n);
    auto got = acc;
    fu::GemmScratch scratch;
    scalar->gemm_accumulate(scratch, got.data(), lhs.data(), rhs.data(),
                            m, k, n);
    scratch.release();
    EXPECT_EQ(got, want);

    std::vector<float> tile(5 * 19);
    for (auto &x : tile)
        x = dist(rng);
    auto a = tile, b = tile;
    fu::softmaxRows(a.data(), 5, 19);
    scalar->softmax_rows(b.data(), 5, 19);
    EXPECT_EQ(a, b);
    a = b = tile;
    fu::geluInplace(a.data(), a.size());
    scalar->gelu_inplace(b.data(), b.size());
    EXPECT_EQ(a, b);
    a = b = tile;
    fu::layernormRows(a.data(), 5, 19);
    scalar->layernorm_rows(b.data(), 5, 19);
    EXPECT_EQ(a, b);
}

} // namespace
