#include "sim/engine.hh"

namespace rsn::sim {

void
Engine::badTick(Tick when) const
{
    rsn_panic("scheduling at tick %llu with now() at %llu: %s",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now_),
              when < now_ ? "into the past" : "kTickMax is reserved");
}

void
Engine::pushRun()
{
    heap_.push_back(newest_);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
        std::size_t parent = (i - 1) / 4;
        if (!(newest_ < heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = newest_;
}

/** Remove the heap's minimum run (sift-down of the last entry). */
void
Engine::popRun()
{
    const Run last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0)
        return;
    std::size_t i = 0;
    for (;;) {
        const std::size_t first = 4 * i + 1;
        if (first >= n)
            break;
        std::size_t min = first;
        for (std::size_t c = first + 1; c < first + 4 && c < n; ++c)
            if (heap_[c] < heap_[min])
                min = c;
        if (!(heap_[min] < last))
            break;
        heap_[i] = heap_[min];
        i = min;
    }
    heap_[i] = last;
}

/** Append run @p r's slots to the batch being assembled. */
void
Engine::splice(const Run &r)
{
    if (active_head_ == kNil)
        active_head_ = r.head;
    else
        arena_[active_tail_].next = r.head;
    active_tail_ = r.tail;
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
            // The newest run has the highest sequence, so at a shared
            // tick it goes last, after the heap's runs.
            Tick t = newest_.tick;
            if (!heap_.empty() && heap_[0].tick < t)
                t = heap_[0].tick;
            if (t == kTickMax)
                return true;
            if (t > max_ticks) {
                // Clamp forward only: a limit in the past must not rewind
                // time (tick-limit contract in engine.hh).
                if (max_ticks > now_)
                    now_ = max_ticks;
                return false;
            }
            while (!heap_.empty() && heap_[0].tick == t) {
                splice(heap_[0]);
                popRun();
            }
            if (newest_.tick == t) {
                splice(newest_);
                newest_.tick = kTickMax;
            }
            now_ = t;
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
