/**
 * @file
 * Discrete-event simulation engine. Time is measured in PL clock ticks.
 *
 * ## Event slots
 *
 * Events live in 32-byte POD slots inside a recycling arena. A slot holds
 * one of the two things the datapath schedules: a bare
 * `std::coroutine_handle<>` (an FU kernel resume — `resumeAt`,
 * `resumeNow`, `delay`/`delayUntil`; the dominant event in every
 * simulation) or a raw `void (*)(void *)` callback with its argument
 * (`callAt`; stream link completions). Slots at the same tick form an
 * intrusive FIFO list through their `next` index.
 * Only the simulated datapath (FUs, streams, decoder, DRAM) schedules
 * events during a run; observers such as kernel-span recording
 * (fu::Fu::recordSpans) only read now(), so observing a run never moves
 * its ticks.
 *
 * ## One queue: a hierarchical timing wheel over all 64 tick bits
 *
 * Pending ticks are organized as an 8-level timing wheel (256 buckets per
 * level, so level L buckets span 256^L ticks and the top level covers
 * every bit of Tick) aligned to the wheel base. Scheduling appends to the
 * bucket whose level is the highest byte in which the target tick
 * differs from the base — O(1) with a bitmap of occupied buckets per
 * level. As time advances into a higher-level bucket's segment, that
 * bucket cascades its events to lower levels (an event moves at most
 * once per level). A level-0 bucket holds exactly one tick, so its
 * intrusive list *is* the tick's FIFO batch.
 * A "now-queue" fast path appends zero-delay events directly to the batch
 * currently being drained, which is how channel/stream wakeups
 * (`resumeNow`) bypass the wheel entirely.
 *
 * ## Allocation-free invariant
 *
 * In steady state the schedule/dispatch path performs **zero heap
 * allocations**: slots are recycled through a free list, the wheel is
 * fixed-size inline storage, and an event stores nothing but a handle or
 * a (callback, argument) pair. The only allocating path is one-time
 * growth of the arena, amortized away after warmup. The engine owns no
 * event payload: coroutine frames belong to their Task and callback
 * arguments to their scheduler, so a destroyed engine drops its pending
 * events without invoking or freeing anything.
 *
 * ## Ordering contract
 *
 * Events at the same tick run in FIFO order of scheduling — including
 * events scheduled *at the current tick during dispatch*, which run after
 * everything already queued for that tick. Cascades preserve intra-bucket
 * list order and segments are aligned, so an event can never be scheduled
 * into a same-tick bucket "ahead of" an earlier event still waiting at a
 * higher level. This makes simulations fully deterministic and is pinned
 * by tests/sim/test_engine_stress.cc against a reference
 * single-priority-queue engine with (tick, sequence) ordering.
 *
 * ## Tick-limit contract (run)
 *
 * `run(max_ticks)` executes batches whose tick is <= max_ticks. If the
 * next pending event lies beyond the limit, run() returns false and
 * leaves `now()` at max(now(), max_ticks): a limit in the past never
 * rewinds time. If the queue drains, run() returns true and `now()`
 * stays at the tick of the last executed event. Ticks must be < kTickMax,
 * which is reserved as the "no limit" sentinel.
 *
 * ## Watchdog and stop requests
 *
 * A drained queue is necessary but not *sufficient* for a healthy finish:
 * a coroutine parked on a channel or stream that nobody will ever wake
 * holds no pending event, so run() historically returned true on such a
 * silent deadlock. Primitives with parked parties now register as
 * Waitable; after a drain the caller asks `drainedClean()` /
 * `drainDiagnosis()` to detect and name stuck endpoints. Two run-loop
 * guards complete the contract: `requestStop()` (used by the fault
 * injector on an unrecoverable fault) aborts at the next batch boundary,
 * and a per-tick event budget (`setEventsPerTickBudget`) trips
 * `watchdogTripped()` when a single tick dispatches pathologically many
 * events — a zero-delay livelock that would otherwise hang forever.
 * Both guards make run() return false; see docs/robustness.md.
 */

#ifndef RSN_SIM_ENGINE_HH
#define RSN_SIM_ENGINE_HH

#include <array>
#include <bit>
#include <coroutine>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace rsn::sim {

/**
 * Registry record for a primitive that can hold parked coroutines
 * (Channel, Stream). The engine keeps these so that a drained event
 * queue can be checked for silent deadlocks: waiters that no pending
 * event will ever wake. Deliberately type-erased function pointers, not
 * a virtual base — a vtable pointer would shift every hot member of
 * Channel/Stream and cost measurable data-plane throughput for what is
 * a post-run-only query surface.
 */
struct WaitableRec {
    const void *obj;
    /** True when nothing is parked on (or lost in) the primitive. */
    bool (*quiet)(const void *);
    /** Name the stuck endpoints for a deadlock diagnosis. */
    std::string (*describe)(const void *);
};

/** Discrete-event engine; see file comment. */
class Engine
{
  public:
    Engine() = default;
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Current simulated time in ticks. */
    Tick now() const { return now_; }

    /** Schedule resumption of a coroutine at absolute tick @p when. */
    void
    resumeAt(Tick when, std::coroutine_handle<> h)
    {
        Slot &s = slotFor(when);
        s.u.coro = h;
        s.kind = Kind::Coro;
    }

    /**
     * Schedule the raw callback `fn(arg)` at absolute tick @p when.
     * Dispatch reads two pointers and calls. @p arg must stay valid
     * until the event runs or the engine is destroyed. Used by the
     * stream link scheduler's per-chunk completion events.
     */
    void
    callAt(Tick when, void (*fn)(void *), void *arg)
    {
        Slot &s = slotFor(when);
        s.u.pair.fn = fn;
        s.u.pair.arg = arg;
        s.kind = Kind::Ptr;
    }

    /**
     * Resume @p h at the current tick, after all events already queued for
     * it (same-tick FIFO). This is the zero-delay now-queue fast path used
     * by channel/stream wakeups: during dispatch it is a single append to
     * the draining batch, with no wheel or heap traffic.
     */
    [[gnu::always_inline]] inline void
    resumeNow(std::coroutine_handle<> h)
    {
        // Cold branch out of line: the idle-engine case drags the whole
        // wheel-insertion path into this function's inline cost and can
        // push the per-delivery hot append out of callers (measured on
        // BM_StreamChunkTransfer; hence also the always_inline above —
        // once the translation unit nears gcc's inline-growth cap this
        // is the first hot function the heuristic abandons).
        if (!draining_) [[unlikely]] {
            resumeNowIdle(h);
            return;
        }
        std::uint32_t idx = grabSlot();
        Slot &s = arena_[idx];
        s.u.coro = h;
        s.when = now_;
        s.next = kNil;
        s.kind = Kind::Coro;
        ++pending_;
        arena_[active_tail_].next = idx;
        active_tail_ = idx;
    }

    /**
     * Run events until the queue is empty or @p max_ticks is reached.
     * See the tick-limit contract in the file comment.
     *
     * @return true if the queue drained (simulation quiesced), false if the
     *         tick limit stopped execution first.
     */
    bool run(Tick max_ticks = kTickMax);

    /**
     * Rewind simulated time to tick 0 for a fresh run. Only legal when
     * the queue is drained (a completed Engine::run): pending events
     * hold `when` stamps that a rewound clock would misorder. The slot
     * arena and free list survive, so a reset engine re-enters steady
     * state with zero warmup allocations — this is what lets one
     * machine serve many sweep points (lib::SweepLane).
     */
    void
    reset()
    {
        rsn_assert(pending_ == 0 && active_head_ == kNil,
                   "engine reset with %llu pending events",
                   static_cast<unsigned long long>(pending_));
        now_ = 0;
        base_ = 0;
        events_processed_ = 0;
        stop_requested_ = false;
        watchdog_tripped_ = false;
    }

    /** @{ Waitable registry for silent-deadlock detection (file comment).
     *  Channel and Stream register on construction; @p T provides
     *  `waitQuiet()` and `describeBlocked()`. */
    template <class T>
    [[gnu::cold]] void
    registerWaitable(const T *w)
    {
        waitables_.push_back(WaitableRec{
            w,
            [](const void *p) {
                return static_cast<const T *>(p)->waitQuiet();
            },
            [](const void *p) {
                return static_cast<const T *>(p)->describeBlocked();
            }});
    }
    [[gnu::cold]] void
    unregisterWaitable(const void *w)
    {
        for (auto it = waitables_.begin(); it != waitables_.end(); ++it) {
            if (it->obj == w) {
                *it = waitables_.back();
                waitables_.pop_back();
                return;
            }
        }
    }
    /** True iff no registered primitive holds a parked party. Meaningful
     *  after run() returned true: a drain that is not clean is a silent
     *  deadlock. */
    bool drainedClean() const;
    /** Name every blocked endpoint (one line per primitive). */
    std::string drainDiagnosis() const;
    /** @} */

    /**
     * Ask run() to stop at the next batch boundary (end of the current
     * tick's dispatch). Used by the fault injector when an unrecoverable
     * fault is diagnosed: the run ends with state intact for reporting.
     * Sticky until reset().
     */
    void requestStop() { stop_requested_ = true; }
    bool stopRequested() const { return stop_requested_; }

    /**
     * Watchdog: cap the events dispatched within one tick. Zero-delay
     * wakeup cycles extend the current batch forever without advancing
     * time; the budget turns that hang into a diagnosable stop
     * (watchdogTripped() true, run() returns false). 0 = unlimited.
     */
    void
    setEventsPerTickBudget(std::uint64_t n)
    {
        budget_ = n ? n : ~std::uint64_t(0);
    }
    bool watchdogTripped() const { return watchdog_tripped_; }

    /** Number of events processed so far (for stats / microbenchmarks). */
    std::uint64_t eventsProcessed() const { return events_processed_; }

    /** Number of events scheduled but not yet dispatched. */
    std::uint64_t pendingEvents() const { return pending_; }

    /** True if no events are pending. */
    bool idle() const { return pending_ == 0; }

    /**
     * Awaitable that suspends the current coroutine for @p delay ticks.
     * `co_await engine.delay(n);`
     */
    auto delay(Tick d);

    /** Awaitable that suspends until absolute tick @p when. */
    auto delayUntil(Tick when);

  private:
    enum class Kind : std::uint8_t {
        Coro,  ///< Resume u.coro.
        Ptr,   ///< Call u.pair.fn(u.pair.arg).
    };

    /** POD event slot; see file comment. Trivially copyable so the arena
     *  grows by memcpy. */
    struct Slot {
        union Payload {
            // coroutine_handle's default ctor is non-trivial; leave the
            // union uninitialized until a resume/call fills it.
            Payload() {}
            std::coroutine_handle<> coro;
            struct {
                void (*fn)(void *);
                void *arg;
            } pair;
        } u;
        Tick when;           ///< Target tick (needed by cascades).
        std::uint32_t next;  ///< Next slot in the same-tick FIFO.
        Kind kind;
    };
    static_assert(std::is_trivially_copyable_v<Slot>);
    static_assert(sizeof(Slot) == 32, "two slots per cache line");

    static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
    static constexpr int kLevelBits = 8;
    static constexpr int kLevels = 64 / kLevelBits;  ///< Covers all of Tick.
    static constexpr std::uint32_t kBucketsPerLevel = 1u << kLevelBits;
    static constexpr Tick kBucketMask = kBucketsPerLevel - 1;

    struct Bucket {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };
    struct Level {
        std::array<Bucket, kBucketsPerLevel> b{};
        std::array<std::uint64_t, kBucketsPerLevel / 64> occupied{};
    };

    /** Wheel level holding tick @p when, given x = when ^ base_:
     *  the highest differing byte. */
    static int
    levelFor(Tick x)
    {
        return (std::bit_width(x | 1) - 1) >> 3;
    }

    void
    appendBucket(int lvl, std::uint32_t bi, std::uint32_t idx)
    {
        Level &l = wheel_[lvl];
        Bucket &b = l.b[bi];
        if (b.head == kNil) {
            b.head = b.tail = idx;
            l.occupied[bi >> 6] |= std::uint64_t(1) << (bi & 63);
        } else {
            arena_[b.tail].next = idx;
            b.tail = idx;
        }
    }

    /** Out-of-line cold half of resumeNow(): the engine is idle, take
     *  the full wheel-insertion path. */
    [[gnu::noinline]] void
    resumeNowIdle(std::coroutine_handle<> h)
    {
        resumeAt(now_, h);
    }

    /** Arena growth, out of line: vector reallocation is steady-state
     *  cold and would otherwise bloat every scheduling call site's
     *  inline cost. */
    [[gnu::noinline]] std::uint32_t
    growArena()
    {
        arena_.emplace_back();
        return static_cast<std::uint32_t>(arena_.size() - 1);
    }

    /** Pop a slot off the intrusive free list, or grow the arena. */
    std::uint32_t
    grabSlot()
    {
        if (free_head_ != kNil) [[likely]] {
            std::uint32_t idx = free_head_;
            free_head_ = arena_[idx].next;
            return idx;
        }
        return growArena();
    }

    /** Pop a recycled slot (or grow the arena), link it into the batch for
     *  @p when, and return it for payload fill-in. */
    Slot &
    slotFor(Tick when)
    {
        rsn_assert(when >= now_, "scheduling into the past");
        std::uint32_t idx = grabSlot();
        Slot &s = arena_[idx];
        s.when = when;
        s.next = kNil;
        ++pending_;
        if (when == now_ && draining_) {
            // Now-queue fast path: extend the batch being dispatched.
            arena_[active_tail_].next = idx;
            active_tail_ = idx;
            return s;
        }
        const int lvl = levelFor(when ^ base_);
        appendBucket(lvl, (when >> (kLevelBits * lvl)) & kBucketMask, idx);
        return s;
    }

    /** Next occupied bucket index >= @p from, or -1. */
    static int
    findNextSet(const std::array<std::uint64_t, kBucketsPerLevel / 64> &bm,
                std::uint32_t from)
    {
        if (from >= kBucketsPerLevel)
            return -1;
        std::uint32_t w = from >> 6;
        std::uint64_t word = bm[w] & (~std::uint64_t(0) << (from & 63));
        for (;;) {
            if (word)
                return int(w * 64 + std::countr_zero(word));
            if (++w == bm.size())
                return -1;
            word = bm[w];
        }
    }

    Tick nextEventTick(Tick max_ticks);
    void cascade(int lvl, std::uint32_t bi);

    std::vector<Slot> arena_;
    std::uint32_t free_head_ = kNil;  ///< Intrusive free list via Slot::next.
    std::array<Level, kLevels> wheel_{};
    std::uint32_t active_head_ = kNil;  ///< Batch being drained by run().
    std::uint32_t active_tail_ = kNil;
    // stop_requested_ and the watchdog state sit here, among the scalars
    // run() already touches every batch, so the per-batch checks read a
    // cache line that is hot anyway instead of a fresh one at the end of
    // the object.
    bool draining_ = false;
    bool stop_requested_ = false;
    bool watchdog_tripped_ = false;
    Tick now_ = 0;
    Tick base_ = 0;  ///< Wheel alignment base; base_ <= now() between runs.
    std::uint64_t budget_ = ~std::uint64_t(0);  ///< Events per tick.
    std::uint64_t pending_ = 0;
    std::uint64_t events_processed_ = 0;
    std::vector<WaitableRec> waitables_;
};

/** Awaitable suspending a coroutine until a given absolute tick. */
struct DelayAwaiter {
    Engine &eng;
    Tick when;

    bool await_ready() const noexcept { return when <= eng.now(); }
    void await_suspend(std::coroutine_handle<> h) { eng.resumeAt(when, h); }
    void await_resume() const noexcept {}
};

inline auto
Engine::delay(Tick d)
{
    return DelayAwaiter{*this, now_ + d};
}

inline auto
Engine::delayUntil(Tick when)
{
    return DelayAwaiter{*this, when};
}

} // namespace rsn::sim

#endif // RSN_SIM_ENGINE_HH
