#include "sim/tile_pool.hh"

#include <cstring>
#include <new>

namespace rsn::sim {

void *
TileRef::ensureUniqueRaw(std::uint64_t elems)
{
    rsn_assert(h_ && elems > 0 && elems <= len_,
               "ensureUnique of %llu elems on a %llu-elem tile view",
               static_cast<unsigned long long>(elems),
               static_cast<unsigned long long>(h_ ? len_ : 0));
    const std::uint32_t esize = h_->elemBytes();
    if (h_->refs == 1)
        return h_->payload() + std::uint64_t(off_) * esize;
    TileRef copy = h_->pool->acquire(elems, h_->dtype);
    std::memcpy(copy.mutableRaw(),
                h_->payload() + std::uint64_t(off_) * esize,
                elems * esize);
    // Narrow the fresh ref's window to exactly the copied elements: the
    // bucket's spare capacity is uninitialized storage the pre-COW
    // window could not reach either, so it must not become reachable.
    copy.len_ = static_cast<std::uint32_t>(elems);
    *this = std::move(copy);
    return h_->payload();
}

TilePool &
TilePool::instance()
{
    // One pool per thread: a sweep-executor worker lane gets its own
    // pool the first time its machine touches a tile, so the pool (and
    // its plain-integer refcounts) never need locking. See the
    // threading contract in the header / docs/datapath.md.
    thread_local TilePool pool;
    return pool;
}

TileRef
TilePool::acquire(std::uint64_t elems, Dtype dtype)
{
    checkOwner("acquire");
    rsn_assert(elems > 0, "empty tile");
    rsn_assert(elems <= (std::uint64_t(1) << 31),
               "tile too large: %llu elems",
               static_cast<unsigned long long>(elems));
    const std::uint64_t bytes = elems * dtypeBytes(dtype);
    std::uint32_t bucket = bucketFor(bytes);
    rsn_assert(bucket < kBuckets, "tile too large: %llu bytes",
               static_cast<unsigned long long>(bytes));
    ++acquires_;
    ++live_;
    if (detail::TileHdr *h = free_[bucket]) {
        free_[bucket] = h->next;
        h->next = nullptr;
        h->refs = 1;
        h->dtype = dtype;  // storage is dtype-agnostic; restamp
        ++reuses_;
        free_bytes_ -= h->cap;
        return TileRef{h};
    }
    std::uint64_t cap = std::uint64_t(1) << (bucket + kMinBytesLog2);
    // Cache-line-aligned buffers: the header is 32 bytes, so payloads
    // land 32-byte aligned — which the SIMD GEMM packing panels rely on
    // (gemm_kernel.cc) and which keeps tile rows from straddling lines.
    void *raw = ::operator new(sizeof(detail::TileHdr) + cap,
                               std::align_val_t{64});
    auto *h = ::new (raw) detail::TileHdr{
        this, nullptr, cap, 1, static_cast<std::uint16_t>(bucket), dtype};
    ++buffers_allocated_;
    return TileRef{h};
}

void
TilePool::retire(detail::TileHdr *h)
{
    checkOwner("retire");
    rsn_assert(h->pool == this, "tile retired to foreign pool");
    rsn_assert(live_ > 0, "pool live-count underflow");
    --live_;
    h->next = free_[h->bucket];
    free_[h->bucket] = h;
    free_bytes_ += h->cap;
}

std::uint64_t
TilePool::trim()
{
    checkOwner("trim");
    std::uint64_t freed = 0;
    for (detail::TileHdr *&head : free_) {
        while (head) {
            detail::TileHdr *next = head->next;
            head->~TileHdr();
            ::operator delete(static_cast<void *>(head),
                              std::align_val_t{64});
            head = next;
            ++freed;
        }
    }
    buffers_freed_ += freed;
    free_bytes_ = 0;
    return freed;
}

TilePool::~TilePool()
{
    // Live tiles (refs > 0) are owned by their TileRefs; only retired
    // buffers sit on the free lists. A TileRef must not outlive its pool.
    trim();
}

} // namespace rsn::sim
