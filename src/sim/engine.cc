#include "sim/engine.hh"

namespace rsn::sim {

/**
 * Redistribute every event of wheel bucket (lvl, bi) to its proper level
 * relative to the (just advanced) wheel base. Events near the base drop
 * several levels at once — e.g. the first 256 ticks of a level-2 segment
 * belong directly in level 0. List order is preserved, which preserves
 * same-tick FIFO order.
 */
void
Engine::cascade(int lvl, std::uint32_t bi)
{
    Level &l = wheel_[lvl];
    Bucket b = l.b[bi];
    l.b[bi] = Bucket{};
    l.occupied[bi >> 6] &= ~(std::uint64_t(1) << (bi & 63));
    for (std::uint32_t i = b.head; i != kNil;) {
        std::uint32_t nxt = arena_[i].next;
        arena_[i].next = kNil;
        Tick when = arena_[i].when;
        int lv = levelFor(when ^ base_);
        appendBucket(lv, (when >> (kLevelBits * lv)) & kBucketMask, i);
        i = nxt;
    }
}

/**
 * Find the tick of the next pending batch, cascading wheel levels as the
 * search advances — but never past a segment floor beyond @p max_ticks,
 * so an aborted run leaves the wheel base at or below the clamped now().
 * Returns kTickMax when no events are pending; a return value >
 * max_ticks may be a lower bound rather than an exact tick.
 */
Tick
Engine::nextEventTick(Tick max_ticks)
{
    for (;;) {
        int i = findNextSet(wheel_[0].occupied,
                            std::uint32_t(base_ & kBucketMask));
        if (i >= 0)
            return (base_ & ~kBucketMask) | Tick(i);

        int lvl = 1;
        for (; lvl < kLevels; ++lvl) {
            const int shift = kLevelBits * lvl;
            const int j = findNextSet(
                wheel_[lvl].occupied,
                std::uint32_t((base_ >> shift) & kBucketMask) + 1);
            if (j < 0)
                continue;
            // The segment keeps base_'s bytes above this level (none at
            // the top level) with this level's byte set to j. Masking
            // rather than shifting by shift + kLevelBits avoids the
            // undefined shift by 64 at the top.
            const Tick below = (Tick(1) << shift) - 1;
            const Tick floor = (base_ & ~((kBucketMask << shift) | below)) |
                               (Tick(j) << shift);
            if (floor > max_ticks)
                return floor;  // beyond the limit: do not enter the segment
            base_ = floor;
            cascade(lvl, std::uint32_t(j));
            break;
        }
        if (lvl == kLevels)
            return kTickMax;  // every level empty
        // Cascaded one level; rescan from level 0.
    }
}

bool
Engine::run(Tick max_ticks)
{
    // Watchdog countdown, rebased at every batch boundary. A local so it
    // lives in a callee-saved register across dispatches: the hot loop
    // pays one decrement-and-branch per event, no memory traffic
    // (events_processed_ alone cannot bound a batch — a zero-delay
    // wakeup cycle extends the *current* batch forever).
    std::uint64_t budget_left = budget_;
    while (true) {
        if (active_head_ == kNil) {
            draining_ = false;
            if (stop_requested_) [[unlikely]]
                return false;  // fault-diagnosed stop at a batch boundary
            Tick t = nextEventTick(max_ticks);
            if (t == kTickMax)
                return true;
            if (t > max_ticks) {
                // Clamp forward only: a limit in the past must not rewind
                // time (tick-limit contract in engine.hh).
                if (max_ticks > now_)
                    now_ = max_ticks;
                return false;
            }
            std::uint32_t bi = std::uint32_t(t & kBucketMask);
            Bucket batch = wheel_[0].b[bi];
            wheel_[0].b[bi] = Bucket{};
            wheel_[0].occupied[bi >> 6] &=
                ~(std::uint64_t(1) << (bi & 63));
            now_ = base_ = t;
            active_head_ = batch.head;
            active_tail_ = batch.tail;
            draining_ = true;
            budget_left = budget_;
        }
        // Watchdog: a batch that keeps extending itself through the
        // now-queue (a zero-delay wakeup cycle) would spin here forever
        // without advancing time.
        if (budget_left-- == 0) [[unlikely]] {
            watchdog_tripped_ = true;
            return false;
        }
        std::uint32_t cur = active_head_;
        --pending_;
        ++events_processed_;
        // Read the payload into registers before dispatch: the event may
        // schedule and grow the arena, invalidating references into it.
        const Slot &s = arena_[cur];
        if (s.kind == Kind::Coro) {
            std::coroutine_handle<> h = s.u.coro;
            h.resume();
        } else {
            void (*fn)(void *) = s.u.pair.fn;
            void *arg = s.u.pair.arg;
            fn(arg);
        }
        // Re-read after dispatch: the event may have extended its own
        // batch through the now-queue fast path. Only then may the slot
        // be threaded onto the free list (which reuses `next`).
        std::uint32_t nxt = arena_[cur].next;
        arena_[cur].next = free_head_;
        free_head_ = cur;
        active_head_ = nxt;
    }
}

bool
Engine::drainedClean() const
{
    for (const WaitableRec &w : waitables_)
        if (!w.quiet(w.obj))
            return false;
    return true;
}

std::string
Engine::drainDiagnosis() const
{
    std::string s;
    for (const WaitableRec &w : waitables_)
        if (!w.quiet(w.obj))
            s += w.describe(w.obj) + "\n";
    return s;
}

} // namespace rsn::sim
