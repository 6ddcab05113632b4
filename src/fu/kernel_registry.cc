#include "fu/kernel_registry.hh"

#include <cstdlib>
#include <vector>

#include "common/log.hh"

namespace rsn::kernel {

// Per-variant tables, each defined in its own -march-scoped TU
// (src/fu/kernels/). Which ones exist in this binary is decided by
// CMakeLists.txt, which defines the matching RSN_KERNEL_HAVE_* macros
// for this file only.
namespace scalar {
extern const KernelTable table;
}
namespace portable {
extern const KernelTable table;
}
#ifdef RSN_KERNEL_HAVE_NEON
namespace neon {
extern const KernelTable table;
}
#endif
#ifdef RSN_KERNEL_HAVE_AVX2
namespace avx2 {
extern const KernelTable table;
}
#endif
#ifdef RSN_KERNEL_HAVE_AVX512
namespace avx512 {
extern const KernelTable table;
}
#endif

std::span<const KernelTable *const>
runnableTables()
{
    // Best first, each cpuid probe run once.
    static const std::vector<const KernelTable *> runnable = [] {
        std::vector<const KernelTable *> v;
#if defined(RSN_KERNEL_HAVE_AVX512) || defined(RSN_KERNEL_HAVE_AVX2)
        __builtin_cpu_init();
#endif
#ifdef RSN_KERNEL_HAVE_AVX512
        if (__builtin_cpu_supports("avx512f"))
            v.push_back(&avx512::table);
#endif
#ifdef RSN_KERNEL_HAVE_AVX2
        if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
            v.push_back(&avx2::table);
#endif
#ifdef RSN_KERNEL_HAVE_NEON
        v.push_back(&neon::table);
#endif
        v.push_back(&portable::table);
        v.push_back(&scalar::table);
        return v;
    }();
    return runnable;
}

namespace {

const KernelTable *
find(std::string_view name, std::span<const KernelTable *const> runnable)
{
    for (const KernelTable *t : runnable)
        if (name == t->name)
            return t;
    return nullptr;
}

/** "avx512|avx2|portable|scalar". */
std::string
names(std::span<const KernelTable *const> runnable)
{
    std::string s;
    for (const KernelTable *t : runnable)
        s += std::string(s.empty() ? "" : "|") + t->name;
    return s;
}

} // namespace

EnvChoice
envChoice(const char *value, std::span<const KernelTable *const> runnable)
{
    if (!value || !*value)
        return {runnable.front(), {}};
    if (const KernelTable *t = find(value, runnable))
        return {t, {}};
    return {runnable.front(),
            "RSN_ISA=" + std::string(value) +
                " is not a kernel table this CPU runs (runnable: " +
                names(runnable) + "); using " + runnable.front()->name};
}

Status
select(std::string_view name)
{
    const KernelTable *t = find(name, runnableTables());
    if (!t)
        return Status::error(StatusCode::InvalidConfig,
                             "'" + std::string(name) +
                                 "' is not a kernel table this CPU runs "
                                 "(runnable: " +
                                 names(runnableTables()) + ")");
    detail::g_active.store(t, std::memory_order_relaxed);
    return Status::success();
}

namespace detail {

std::atomic<const KernelTable *> g_active{nullptr};

const KernelTable &
activeSlow()
{
    // The static's initializer runs once even under concurrent first
    // use; it publishes the RSN_ISA choice unless a table was selected
    // already.
    static const bool published = [] {
        const EnvChoice c = envChoice(std::getenv("RSN_ISA"),
                                      runnableTables());
        if (!c.warning.empty())
            rsn_warn("%s", c.warning.c_str());
        const KernelTable *none = nullptr;
        g_active.compare_exchange_strong(none, c.table,
                                         std::memory_order_relaxed);
        return true;
    }();
    (void)published;
    return *g_active.load(std::memory_order_relaxed);
}

} // namespace detail

ScopedIsaOverride::ScopedIsaOverride(const KernelTable &table)
    : prev_(&active())
{
    detail::g_active.store(&table, std::memory_order_relaxed);
}

ScopedIsaOverride::~ScopedIsaOverride()
{
    detail::g_active.store(prev_, std::memory_order_relaxed);
}

} // namespace rsn::kernel
