/**
 * @file
 * TilePool: recycled, refcounted typed tile buffers for Chunk payloads.
 *
 * Functional-mode chunks used to carry a fresh
 * `shared_ptr<const vector<float>>` per payload — one control-block
 * allocation plus one vector allocation per tile on the data plane. The
 * pool replaces both with size-bucketed buffers on intrusive free lists:
 * a producer acquires a tile (reusing a retired buffer of the same
 * bucket), fills it while it is still uniquely owned, and publishes it
 * inside a Chunk. Consumers share the tile by refcount (mesh broadcast
 * copies a Chunk, not the payload) and must treat it as immutable:
 * `TileRef::mutableData()` asserts unique ownership, which pins the
 * copy-on-transform rule at the API level. When the last reference drops,
 * the buffer returns to its bucket's free list — steady-state traffic
 * allocates nothing (pinned by tests/sim/test_stream_alloc.cc).
 *
 * ## Typed tiles (ISSUE 10)
 *
 * Tiles carry a Dtype tag (common/dtype.hh). Buffer capacity and the
 * free-list buckets are **byte**-based, so a retired FP32 buffer is
 * reusable as a bf16 tile of twice the elements and vice versa — the
 * pool is dtype-agnostic storage; only the header tag changes on
 * acquire. TileRef windows (offset/length) stay **element**-based:
 * slicing, COW, and tryExtend never need to know the element width
 * beyond converting to bytes at the copy sites. Typed access is
 * explicit — data()/mutableData() assert F32, data16()/mutableData16()
 * assert a 16-bit dtype, raw() is the untyped byte view (checksums,
 * fault injection) — so a dtype confusion fails loudly at the accessor
 * instead of silently reinterpreting payload bits.
 *
 * ## Views and copy-on-write
 *
 * A TileRef can also be a *view*: an offset/length window into another
 * ref's buffer, created with `slice()`. Views share the buffer's refcount
 * — slicing a row range out of a staged tile is a refcount bump, not an
 * `acquire`+copy — and are how the Mem FUs publish row-slices of a
 * buffered tile without touching the payload (see docs/datapath.md).
 * Writable access follows one rule everywhere: `mutableData()` demands
 * sole ownership (shared tiles are immutable, pinning broadcast
 * semantics), and `ensureUnique()` is the copy-on-write escape hatch —
 * in place when the caller is already the only owner, a copy into a
 * freshly acquired tile when anyone else can still read the buffer.
 *
 * ## Threading contract (docs/datapath.md "Threading contract")
 *
 * A pool — and every tile it owns — belongs to exactly one thread: the
 * *lane* that created it. One simulated machine runs entirely on one
 * thread, so refcounts stay plain integers and the pool free lists need
 * no locking even when N machines sweep in parallel (lib/sweep.hh):
 * each worker lane gets its own pool because `TilePool::instance()` is
 * **thread-local**, and tiles must never cross lanes. Debug builds
 * enforce the contract with an owning-thread check in acquire/retire,
 * so a leaked cross-lane tile fails loudly (rsn_panic naming the
 * contract) instead of silently corrupting a free list or racing a
 * refcount. Independent pools can still be created directly in tests —
 * they are owned by the constructing thread the same way.
 */

#ifndef RSN_SIM_TILE_POOL_HH
#define RSN_SIM_TILE_POOL_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>

#include "common/dtype.hh"
#include "common/log.hh"

/** Owning-thread checks on the tile pool: on in debug builds (the
 *  Release hot path stays branch-free), or force with
 *  -DRSN_THREAD_CHECKS (the TSan CI job does). */
#if !defined(NDEBUG) || defined(RSN_THREAD_CHECKS)
#define RSN_POOL_OWNER_CHECKS 1
#else
#define RSN_POOL_OWNER_CHECKS 0
#endif

namespace rsn::sim {

class TilePool;

namespace detail {

/** Header preceding each pooled buffer's payload storage. */
struct TileHdr {
    TilePool *pool;      ///< Owning pool (for release on last unref).
    TileHdr *next;       ///< Free-list link while retired.
    std::uint64_t cap;   ///< Byte capacity (the bucket size).
    /** Plain (non-atomic) refcount: a tile lives and dies on the one
     *  lane thread that owns its pool, so refs never race. Cross-lane
     *  sharing is a contract violation the pool's owning-thread check
     *  catches in debug builds. */
    std::uint32_t refs;
    /** Bucket index (uint16 keeps the header at 32 bytes now that a
     *  dtype tag shares the word; there are only ~26 buckets). */
    std::uint16_t bucket;
    /** Element type of the current tenant. Storage is dtype-agnostic:
     *  acquire() restamps this on every reuse. */
    Dtype dtype;
    std::uint8_t pad_ = 0;

    std::uint32_t elemBytes() const { return dtypeBytes(dtype); }
    /** Element capacity of the current tenant's dtype. */
    std::uint64_t elemCap() const { return cap / elemBytes(); }

    std::byte *payload() { return reinterpret_cast<std::byte *>(this + 1); }
    const std::byte *payload() const
    {
        return reinterpret_cast<const std::byte *>(this + 1);
    }
};

static_assert(sizeof(TileHdr) == 32,
              "payload must start 32-byte aligned (GEMM panels rely on "
              "it) and the header must not grow the per-tile overhead");

} // namespace detail

/**
 * Shared reference to a pooled tile, or an offset/length view into one.
 * Copy = refcount bump; destruction of the last reference (whole-tile
 * refs and views alike) retires the buffer to its pool's free list.
 */
class TileRef
{
  public:
    TileRef() = default;
    ~TileRef() { release(); }

    TileRef(const TileRef &o) : h_(o.h_), off_(o.off_), len_(o.len_)
    {
        if (h_)
            ++h_->refs;
    }
    TileRef(TileRef &&o) noexcept
        : h_(std::exchange(o.h_, nullptr)), off_(o.off_), len_(o.len_)
    {
    }

    TileRef &
    operator=(const TileRef &o)
    {
        if (this != &o) {
            release();
            h_ = o.h_;
            off_ = o.off_;
            len_ = o.len_;
            if (h_)
                ++h_->refs;
        }
        return *this;
    }
    TileRef &
    operator=(TileRef &&o) noexcept
    {
        if (this != &o) {
            release();
            h_ = std::exchange(o.h_, nullptr);
            off_ = o.off_;
            len_ = o.len_;
        }
        return *this;
    }

    explicit operator bool() const { return h_ != nullptr; }

    /** Element type of the underlying tile (F32 for an empty ref). */
    Dtype dtype() const { return h_ ? h_->dtype : Dtype::F32; }

    /** Read-only payload access (the only access for shared tiles).
     *  Asserts the tile is F32 — typed tiles use data16()/raw(). */
    const float *
    data() const
    {
        rsn_assert(h_, "deref of empty TileRef");
        rsn_assert(h_->dtype == Dtype::F32,
                   "float access to a %s tile", dtypeName(h_->dtype));
        return reinterpret_cast<const float *>(h_->payload()) + off_;
    }

    /** Read-only access to a 16-bit (bf16/f16) tile's payload. */
    const std::uint16_t *
    data16() const
    {
        rsn_assert(h_, "deref of empty TileRef");
        rsn_assert(h_->elemBytes() == 2,
                   "u16 access to a %s tile", dtypeName(h_->dtype));
        return reinterpret_cast<const std::uint16_t *>(h_->payload()) +
               off_;
    }

    /** Untyped byte view of this ref's window (checksums, bit-flip
     *  injection, byte copies). Valid for every dtype. */
    const void *
    raw() const
    {
        rsn_assert(h_, "deref of empty TileRef");
        return h_->payload() + std::uint64_t(off_) * h_->elemBytes();
    }

    /**
     * Writable payload access, legal only while this is the sole
     * reference — mutating a tile another consumer can still read would
     * break broadcast-payload immutability. A sole-owner *view* may
     * write through this too (nobody else can observe the buffer); use
     * ensureUnique() when shared ownership is possible. Asserts F32.
     */
    float *
    mutableData()
    {
        rsn_assert(h_ && h_->refs == 1,
                   "mutable access to a shared or empty tile");
        rsn_assert(h_->dtype == Dtype::F32,
                   "float access to a %s tile", dtypeName(h_->dtype));
        return reinterpret_cast<float *>(h_->payload()) + off_;
    }

    /** Writable access to a sole-owned 16-bit tile's payload. */
    std::uint16_t *
    mutableData16()
    {
        rsn_assert(h_ && h_->refs == 1,
                   "mutable access to a shared or empty tile");
        rsn_assert(h_->elemBytes() == 2,
                   "u16 access to a %s tile", dtypeName(h_->dtype));
        return reinterpret_cast<std::uint16_t *>(h_->payload()) + off_;
    }

    /** Writable untyped view of a sole-owned tile (any dtype). */
    void *
    mutableRaw()
    {
        rsn_assert(h_ && h_->refs == 1,
                   "mutable access to a shared or empty tile");
        return h_->payload() + std::uint64_t(off_) * h_->elemBytes();
    }

    /**
     * Copy-on-write access to this ref's first @p elems elements: in
     * place when this is already the sole reference, otherwise the
     * window is copied into a freshly acquired tile from the same pool
     * (the shared original stays untouched) and this ref re-seats onto
     * the copy, with its window narrowed to exactly @p elems — the new
     * bucket's spare capacity is uninitialized and stays unreachable.
     * Always returns writable storage of >= @p elems floats; elements
     * past @p elems of the old window remain reachable only on the
     * in-place path. Asserts F32 (ensureUniqueRaw serves any dtype).
     */
    float *
    ensureUnique(std::uint64_t elems)
    {
        rsn_assert(h_ && h_->dtype == Dtype::F32,
                   "float COW access to a %s tile",
                   dtypeName(h_ ? h_->dtype : Dtype::F32));
        return static_cast<float *>(ensureUniqueRaw(elems));
    }

    /** Dtype-agnostic copy-on-write: same contract as ensureUnique but
     *  over @p elems elements of the tile's own dtype, returned as an
     *  untyped pointer (the fault injector's bit-flip path and the
     *  typed Mem-FU transforms use this). */
    void *ensureUniqueRaw(std::uint64_t elems);

    /**
     * An offset/length view of this ref's window: shares (and bumps)
     * the buffer refcount, no copy. The view's data()/capacity() cover
     * exactly [off, off+len) of this ref.
     */
    TileRef
    slice(std::uint64_t off, std::uint64_t len) const
    {
        rsn_assert(h_ && len > 0 && off + len <= len_,
                   "slice [%llu,+%llu) outside tile view of %llu elems",
                   static_cast<unsigned long long>(off),
                   static_cast<unsigned long long>(len),
                   static_cast<unsigned long long>(len_));
        ++h_->refs;
        return TileRef{h_, off_ + static_cast<std::uint32_t>(off),
                       static_cast<std::uint32_t>(len)};
    }

    /** Elements reachable through this ref: the bucket capacity for a
     *  whole-tile ref (>= requested size), the window length for a view. */
    std::uint64_t capacity() const { return h_ ? len_ : 0; }

    /** True when this ref is an offset/length window rather than the
     *  whole underlying buffer. */
    bool
    isView() const
    {
        return h_ && (off_ != 0 || len_ != h_->elemCap());
    }

    /**
     * If @p next views the same buffer immediately after this ref's
     * window, widen this window to cover both and return true (the
     * caller then drops @p next; this ref's refcount alone keeps the
     * buffer alive). This is how GatherTile knits row-slices of one
     * staged tile back into a single contiguous segment.
     */
    bool
    tryExtend(const TileRef &next)
    {
        if (!h_ || next.h_ != h_ || off_ + len_ != next.off_)
            return false;
        len_ += next.len_;
        return true;
    }

    /** True when exactly one reference exists. */
    bool unique() const { return h_ && h_->refs == 1; }

    /** Drop this reference (no-op when empty). Forced inline: every
     *  chunk hand-off on the stream hot path drops a ref, and the LTO
     *  inline budget must not be allowed to out-line it (the retire()
     *  slow path stays an out-of-line call either way). */
    [[gnu::always_inline]] void release();

  private:
    friend class TilePool;
    explicit TileRef(detail::TileHdr *h)
        : h_(h), len_(h ? static_cast<std::uint32_t>(h->elemCap()) : 0)
    {
    }
    TileRef(detail::TileHdr *h, std::uint32_t off, std::uint32_t len)
        : h_(h), off_(off), len_(len)
    {
    }

    // 32-bit window fields keep a TileRef at 16 bytes (Chunks move
    // through stream rings by value); the largest bucket is 2^31
    // elements, so element offsets/lengths always fit.
    detail::TileHdr *h_ = nullptr;
    std::uint32_t off_ = 0;  ///< Window start (elements into payload).
    std::uint32_t len_ = 0;  ///< Window length in elements.
};

/**
 * A scatter/gather composition of pooled tile segments.
 *
 * MemC used to assemble a multi-chunk tile by copying every incoming
 * chunk payload into one pooled staging tile. A GatherTile instead
 * *adopts* each arriving payload as a segment — a refcount move, no
 * copy — and only materializes a contiguous buffer when a consumer
 * genuinely needs contiguity the segment list cannot serve:
 *
 *  - `window(off, len)` returns a refcount-bumped view when the range
 *    falls inside one segment (the common case: send-side row slicing
 *    matches receive-side chunking), and materializes first otherwise;
 *  - row-wise transforms (softmax/GELU/LayerNorm/scale-shift/residual)
 *    never need contiguity at all — they run per segment through
 *    `segmentMutable()`, which applies the usual copy-on-write rule
 *    (TileRef::ensureUnique) segment by segment;
 *  - the segment list is a fixed inline array: appending beyond its
 *    capacity first collapses the existing segments into one
 *    (materialize) rather than allocating list storage, so the gather
 *    path stays 0 allocs/tile in steady state.
 *
 * A single-segment GatherTile behaves exactly like the old adopted
 * TileRef (contiguous() is true, window() is a plain slice).
 */
class GatherTile
{
  public:
    /** Segment-list capacity; covers every recv_chunks codegen emits
     *  (one chunk per MME row-slice), with materialize as overflow. */
    static constexpr std::size_t kInlineSegments = 16;

    /** Drop every segment (releases the refs). */
    void
    clear()
    {
        for (std::size_t i = 0; i < count_; ++i)
            segs_[i].tile.release();
        count_ = 0;
        total_ = 0;
    }

    bool empty() const { return count_ == 0; }
    std::size_t segments() const { return count_; }
    /** Total logical elements across segments. */
    std::uint64_t elems() const { return total_; }
    /** True when the whole gather is one contiguous tile (or empty). */
    bool contiguous() const { return count_ <= 1; }

    /** Element type of the gathered segments (F32 when empty). All
     *  segments share one dtype — append() asserts it. */
    Dtype
    dtype() const
    {
        return count_ ? segs_[0].tile.dtype() : Dtype::F32;
    }

    /** Adopt @p tile as the next @p elems logical elements. Segments
     *  must agree on dtype (one staged tile has one element type). */
    void append(TileRef tile, std::uint64_t elems);

    const TileRef &
    segment(std::size_t i) const
    {
        rsn_assert(i < count_, "gather segment out of range");
        return segs_[i].tile;
    }

    std::uint64_t
    segmentElems(std::size_t i) const
    {
        rsn_assert(i < count_, "gather segment out of range");
        return segs_[i].elems;
    }

    /**
     * Writable access to segment @p i (copy-on-write when the segment
     * is still shared with its producer — TileRef::ensureUnique).
     * F32 gathers only.
     */
    float *
    segmentMutable(std::size_t i)
    {
        rsn_assert(i < count_, "gather segment out of range");
        return segs_[i].tile.ensureUnique(segs_[i].elems);
    }

    /**
     * Collapse to a single contiguous tile covering all elements. A
     * refcount no-op when already contiguous; otherwise copies every
     * segment into one freshly acquired pool tile (the one legitimate
     * copy on the assembly path). Returns the contiguous ref.
     */
    TileRef &materialize();

    /**
     * A contiguous view of logical elements [off, off+len): a refcount
     * bump when the range lies inside one segment, else materializes
     * first. This is how the Mem FUs publish row-slices of staged data.
     */
    TileRef window(std::uint64_t off, std::uint64_t len);

  private:
    struct Seg {
        TileRef tile;
        std::uint64_t elems = 0;
    };

    std::array<Seg, kInlineSegments> segs_;
    std::uint32_t count_ = 0;
    std::uint64_t total_ = 0;
};

/** Size-bucketed free-list allocator of FP32 tiles; see file comment. */
class TilePool
{
  public:
    TilePool() : owner_(std::this_thread::get_id()) {}
    ~TilePool();
    TilePool(const TilePool &) = delete;
    TilePool &operator=(const TilePool &) = delete;

    /**
     * The calling thread's lane-owned pool (thread-local): the one
     * makeDataChunk and the FUs use. Every machine built and run on a
     * thread draws all its tiles from that thread's pool, which is what
     * keeps refcounts non-atomic under the parallel sweep executor.
     * RsnMachine's constructor touches this before any tile exists so
     * the pool outlives machine-holding objects on the same thread
     * (thread-local destruction runs in reverse construction order).
     */
    static TilePool &instance();

    /**
     * Acquire a tile of at least @p elems elements of @p dtype.
     * Contents are uninitialized; the caller fills via
     * TileRef::mutableData() (F32) / mutableData16() (bf16, f16).
     * Buckets are byte-based, so any retired buffer of a sufficient
     * byte capacity is reused regardless of its previous dtype.
     */
    TileRef acquire(std::uint64_t elems, Dtype dtype = Dtype::F32);

    /** @{ Stats (for tests and reports). */
    std::uint64_t buffersAllocated() const { return buffers_allocated_; }
    std::uint64_t acquires() const { return acquires_; }
    std::uint64_t reuses() const { return reuses_; }
    std::uint64_t liveTiles() const { return live_; }
    std::uint64_t buffersFreed() const { return buffers_freed_; }
    /** Bytes currently parked on the free lists (payload only). */
    std::uint64_t freeBytes() const { return free_bytes_; }
    /** @} */

    /**
     * Arena reset: free every retired buffer back to the system and
     * return how many were released. Live tiles (refs > 0) are
     * untouched — they retire to the (now empty) free lists as usual.
     * This is the quarantine hook for long-running serving processes
     * (serve/scheduler.cc): one faulted run can balloon the pool with
     * oversized buckets its retry never needs again, and without a trim
     * that growth is carried for the life of the lane thread. Callers
     * on the steady-state path should NOT trim — the free lists are the
     * whole point of the pool; trim only at machine-rebuild boundaries.
     */
    std::uint64_t trim();

  private:
    friend class TileRef;

    /** Smallest bucket: 2^8 = 256 bytes (an 8x8 FP32 tile). */
    static constexpr std::uint32_t kMinBytesLog2 = 8;
    /** Largest bucket: 2^33 bytes (8 GiB); far above any tile. */
    static constexpr std::uint32_t kBuckets = 26;

    static std::uint32_t
    bucketFor(std::uint64_t bytes)
    {
        std::uint32_t log2 = std::bit_width(bytes - 1);
        return log2 <= kMinBytesLog2 ? 0 : log2 - kMinBytesLog2;
    }

    void retire(detail::TileHdr *h);

    /** Owning-thread check (debug builds): tiles must not cross lanes. */
    void
    checkOwner(const char *op) const
    {
#if RSN_POOL_OWNER_CHECKS
        rsn_assert(std::this_thread::get_id() == owner_,
                   "TilePool::%s from a foreign thread — tiles are "
                   "lane-owned and must not cross sweep lanes "
                   "(docs/datapath.md, threading contract)",
                   op);
#else
        (void)op;
#endif
    }

    /** The lane (thread) this pool and all its tiles belong to. */
    std::thread::id owner_;
    std::array<detail::TileHdr *, kBuckets> free_{};
    std::uint64_t buffers_allocated_ = 0;
    std::uint64_t acquires_ = 0;
    std::uint64_t reuses_ = 0;
    std::uint64_t live_ = 0;
    std::uint64_t buffers_freed_ = 0;
    std::uint64_t free_bytes_ = 0;
};

inline void
TileRef::release()
{
    if (!h_)
        return;
    rsn_assert(h_->refs > 0, "tile refcount underflow");
    if (--h_->refs == 0)
        h_->pool->retire(h_);
    h_ = nullptr;
}

} // namespace rsn::sim

#endif // RSN_SIM_TILE_POOL_HH
