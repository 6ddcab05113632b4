/**
 * @file
 * Counting replacements of the global `operator new`/`delete`, so an
 * allocation test or a google-benchmark series can count heap
 * allocations per event, chunk or uOP (the engine's allocation-free
 * invariant, sim/engine.hh). Compare g_allocs deltas only around
 * regions where no test or benchmark machinery runs.
 *
 * The replacements are definitions, not declarations: include this
 * header from exactly one source file of a test or benchmark binary.
 */

#ifndef RSN_TESTS_ALLOC_COUNT_HH
#define RSN_TESTS_ALLOC_COUNT_HH

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

/** Global allocations so far: every replaced `operator new` below,
 *  plain, array and aligned, counts one. */
inline std::atomic<std::uint64_t> g_allocs{0};

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

// Aligned-allocation overloads: TilePool allocates its buffers with
// ::operator new(size, std::align_val_t{64}) (cache-line-aligned
// tiles), which does NOT route through the plain overload above — it
// must be intercepted separately or pooled-buffer traffic becomes
// invisible to the counter and the alloc-free pins go blind.
void *
operator new(std::size_t n, std::align_val_t al)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = nullptr;
    if (posix_memalign(&p, std::size_t(al), n ? n : 1) != 0)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return operator new(n, al);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    operator delete(p, std::align_val_t{1});
}

void
operator delete[](void *p, std::align_val_t al) noexcept
{
    operator delete(p, al);
}

void
operator delete[](void *p, std::size_t, std::align_val_t al) noexcept
{
    operator delete(p, al);
}

#endif // RSN_TESTS_ALLOC_COUNT_HH
