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
 * ## One queue: a small heap of same-tick runs
 *
 * A *run* is an intrusive FIFO list of slots that share one tick. The
 * pending runs form a 4-ary min-heap ordered by (tick, sequence), the
 * sequence numbering runs in creation order. Scheduling at the tick of
 * the newest run appends to it in O(1), so a same-tick burst stays one
 * run; any other tick starts a new run. Only the newest run's tail
 * still moves, so it waits outside the heap and enters it when a newer
 * run replaces it. Dispatch takes every run at the minimum tick, in
 * sequence order, and splices them into the one batch it drains.
 * A "now-queue" fast path appends zero-delay events directly to the batch
 * currently being drained, which is how channel/stream wakeups
 * (`resumeNow`) bypass the heap entirely.
 *
 * Why a heap fits: the datapath's queue is shallow and sparse in time.
 * FU compute and link latencies put most delays between 128 and 8191
 * ticks, and a perfbench `sweep` run dispatches 1.38 events per tick
 * with 6.9 ticks pending on average (21 at most). A heap that few runs
 * deep costs a handful of compares per tick, where a timing wheel spent
 * its time cascading events between levels and scanning occupancy
 * bitmaps. A queue thousands of distinct ticks deep (the
 * BM_EngineEventDispatch microbench) pays O(log n) per tick instead.
 *
 * ## Allocation-free invariant
 *
 * In steady state the schedule/dispatch path performs **zero heap
 * allocations**: slots are recycled through a free list, the heap keeps
 * its capacity, and an event stores nothing but a handle or a
 * (callback, argument) pair. The only allocating paths are one-time
 * growth of the arena and of the heap, amortized away after warmup. The
 * engine owns no event payload: coroutine frames belong to their Task
 * and callback arguments to their scheduler, so a destroyed engine drops
 * its pending events without invoking or freeing anything.
 *
 * ## Ordering contract
 *
 * Events at the same tick run in FIFO order of scheduling — including
 * events scheduled *at the current tick during dispatch*, which run after
 * everything already queued for that tick. An event joins either the
 * newest run or a new one, so every run at a tick holds events scheduled
 * after those of the runs before it, and dispatch splices runs in
 * sequence order. This makes simulations fully deterministic and is
 * pinned by tests/sim/test_engine_stress.cc against a reference
 * single-priority-queue engine with (tick, sequence) ordering.
 *
 * ## Tick-limit contract (run)
 *
 * `run(max_ticks)` executes batches whose tick is <= max_ticks. If the
 * next pending event lies beyond the limit, run() returns false and
 * leaves `now()` at max(now(), max_ticks): a limit in the past never
 * rewinds time. If the queue drains, run() returns true and `now()`
 * stays at the tick of the last executed event. Runs beyond the limit
 * stay queued as they were: a later schedule at the newest run's tick
 * still joins it. Ticks must be < kTickMax, which is reserved as the
 * "no limit" sentinel (and marks "no newest run" inside the engine).
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
    /** Reserves the run heap for the datapath's depth (at most 21
     *  pending ticks measured), so it never grows in a run. Allocated
     *  here, with the machine, rather than among a first run's
     *  transient blocks, where it pinned the top of the malloc heap:
     *  +0.5 MB peak RSS on perfbench `sweep`. */
    Engine() { heap_.reserve(64); }
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
     * the draining batch, with no run or heap traffic.
     */
    [[gnu::always_inline]] inline void
    resumeNow(std::coroutine_handle<> h)
    {
        // Cold branch out of line: the idle-engine case drags the whole
        // run-insertion path into this function's inline cost and can
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
        ++scheduled_;
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
        rsn_assert(idle() && active_head_ == kNil,
                   "engine reset with %llu pending events",
                   static_cast<unsigned long long>(pendingEvents()));
        now_ = 0;
        next_seq_ = 0;
        scheduled_ = 0;
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
    std::uint64_t
    pendingEvents() const
    {
        return scheduled_ - events_processed_;
    }

    /** True if no events are pending. */
    bool idle() const { return scheduled_ == events_processed_; }

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
        /**
         * Target tick. No code reads it (runs carry their tick), but it
         * pads a slot to 32 bytes: two per cache line, none straddling
         * one. A 24-byte slot without it, where one slot in four spans
         * two lines, ran BM_EngineDatapathMix 2–24% slower (median 7%)
         * in 5 of 6 alternating 0.3 s rounds on a 4-core Xeon, while
         * BM_StreamChunkTransfer stayed inside its own noise.
         */
        Tick when;
        std::uint32_t next;  ///< Next slot in the same-tick FIFO.
        Kind kind;
    };
    static_assert(std::is_trivially_copyable_v<Slot>);
    static_assert(sizeof(Slot) == 32, "two slots per cache line");

    static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

    /** A same-tick run: slots head..tail, linked through Slot::next. */
    struct Run {
        Tick tick;
        std::uint64_t seq;  ///< Creation order; breaks same-tick ties.
        std::uint32_t head;
        std::uint32_t tail;

        bool
        operator<(const Run &o) const
        {
            return tick < o.tick || (tick == o.tick && seq < o.seq);
        }
    };

    /** Out-of-line cold half of resumeNow(): the engine is idle, take
     *  the full run-insertion path. */
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
        if (when < now_ || when == kTickMax) [[unlikely]]
            badTick(when);
        std::uint32_t idx = grabSlot();
        Slot &s = arena_[idx];
        s.when = when;
        s.next = kNil;
        ++scheduled_;
        if (when == now_ && draining_) {
            // Now-queue fast path: extend the batch being dispatched.
            arena_[active_tail_].next = idx;
            active_tail_ = idx;
        } else if (when == newest_.tick) {
            arena_[newest_.tail].next = idx;
            newest_.tail = idx;
        } else {
            // The newest run can no longer grow: it joins the heap.
            if (newest_.tick != kTickMax)
                pushRun();
            newest_ = Run{when, next_seq_++, idx, idx};
        }
        return s;
    }

    /** Panic on a tick in the past or at the kTickMax sentinel. Cold and
     *  out of line: an inline rsn_assert's message formatting gave
     *  slotFor() a stack frame that every schedule paid for. */
    [[noreturn, gnu::cold, gnu::noinline]] void badTick(Tick when) const;

    /** Sift newest_ into the heap. Out of line: inlined, the sift and
     *  the vector's growth path gave slotFor() a six-register prologue
     *  that every append paid. */
    [[gnu::noinline]] void pushRun();
    void popRun();
    void splice(const Run &r);

    std::vector<Slot> arena_;
    std::uint32_t free_head_ = kNil;  ///< Intrusive free list via Slot::next.
    /** Every pending run but the newest: a 4-ary min-heap. */
    std::vector<Run> heap_;
    /** The newest run, outside the heap while it may still grow;
     *  tick kTickMax when there is none. */
    Run newest_{kTickMax, 0, kNil, kNil};
    std::uint64_t next_seq_ = 0;
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
    std::uint64_t budget_ = ~std::uint64_t(0);  ///< Events per tick.
    /** Events ever scheduled; pending = scheduled_ - events_processed_.
     *  A pending count of its own cost dispatch a read-modify-write per
     *  event, which gcc paired with events_processed_ into one 16-byte
     *  access that stalled on the 8-byte store of the event's own
     *  schedule (failed store-to-load forwarding). */
    std::uint64_t scheduled_ = 0;
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
