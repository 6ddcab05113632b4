/**
 * @file
 * Stream: a link-timed, bounded, latency-insensitive channel of Chunks.
 *
 * This is an edge of the RSN network (paper Sec. 3.1). On top of Channel
 * semantics (FIFO, back-pressure) it models *link occupancy*: a chunk of B
 * bytes occupies the link for ceil(B / width) ticks, and transfers serialize
 * on the link. A full downstream FIFO back-pressures the link: the transfer
 * does not start until a slot is reserved.
 *
 * ## Coroutine-free data plane
 *
 * The send path spawns no coroutine frames and performs no heap
 * allocations in steady state. `send()` returns a plain awaitable: the
 * sender's chunk enters an internal ring of pending transfers and the
 * stream itself drives link occupancy with engine events — one inline
 * (SBO) completion callback per chunk, scheduled at the transfer's end
 * tick. Completions deliver in link order, wake the receiver and the
 * sender through the engine's now-queue, and admit the next pending
 * sender synchronously when a FIFO slot frees. Slot admission is strictly
 * FIFO over send/post/trySend arrival order, which preserves the
 * reservation discipline the old coroutine implementation enforced with
 * waiter queues. `co_await send(c)` still resumes the sender at delivery
 * time, so FU kernel overlap semantics are unchanged.
 *
 * Producers that must not suspend have two entry points: `trySend()`
 * (succeeds only when a slot is free right now) and `post()`
 * (unconditionally enqueues, like a detached send). `flush()` awaits the
 * send side draining — the mesh FU uses post+flush to overlap one
 * broadcast chunk across all destination links.
 *
 * ## Lifetime
 *
 * Every chunk admitted to the link holds a raw `this` in its engine
 * completion event, so a Stream with admitted, undelivered chunks must
 * not be destroyed while its engine may still dispatch — the same rule
 * Task imposes for coroutine frames. The machine guarantees this by
 * destroying streams only after Engine::run returned and never running
 * that engine again (events pending at engine destruction are dropped,
 * never invoked).
 */

#ifndef RSN_SIM_STREAM_HH
#define RSN_SIM_STREAM_HH

#include <bit>
#include <cmath>
#include <coroutine>
#include <string>

#include "common/log.hh"
#include "sim/chunk.hh"
#include "sim/engine.hh"
#include "sim/fault.hh"
#include "sim/ring.hh"

namespace rsn::sim {

class Stream
{
  public:
    /**
     * @param eng the event engine
     * @param bytes_per_tick link width (bytes transferred per PL cycle)
     * @param depth_chunks FIFO capacity in chunks
     * @param name stream name for diagnostics
     */
    Stream(Engine &eng, double bytes_per_tick, std::size_t depth_chunks,
           std::string name)
        : eng_(eng), bytes_per_tick_(bytes_per_tick), cap_(depth_chunks),
          name_(std::move(name))
    {
        rsn_assert(bytes_per_tick > 0, "stream width must be positive");
        rsn_assert(depth_chunks > 0, "stream depth must be positive");
        // Every configured link width is a whole byte count; keep an
        // integer copy so transferTicks is exact ceil-division (the
        // double formula mis-rounds once bytes exceed 2^53). Power-of-two
        // widths additionally get a shift instead of a divide.
        if (bytes_per_tick == std::floor(bytes_per_tick) &&
            bytes_per_tick < 9.0e18) {
            bpt_int_ = static_cast<Bytes>(bytes_per_tick);
            if ((bpt_int_ & (bpt_int_ - 1)) == 0)
                bpt_shift_ = std::countr_zero(bpt_int_);
        }
        eng_.registerWaitable(this);
    }

    ~Stream() { eng_.unregisterWaitable(this); }

    Stream(const Stream &) = delete;
    Stream &operator=(const Stream &) = delete;

    /**
     * Arm link-layer fault injection for this stream (docs/robustness.md).
     * The hot path pays one null check when faults are off; when on,
     * admit() folds the injector's stalls and retransmissions into link
     * occupancy, and a transfer whose retries are exhausted is lost —
     * the chunk is destroyed and a waiting sender stays parked, which
     * the engine's drain diagnosis then names.
     */
    [[gnu::cold]] void
    attachFaultInjector(FaultInjector *fi)
    {
        fault_ = fi;
        fault_site_ = fi ? fi->registerSite("stream " + name_) : 0;
    }

    /** @{ Silent-deadlock detection (Engine::drainedClean). */
    bool
    waitQuiet() const
    {
        return pending_.empty() && recv_waiters_.empty() &&
               flush_waiters_.empty() && dead_sends_ == 0;
    }
    [[gnu::cold]] std::string
    describeBlocked() const
    {
        std::string s = "stream " + name_ + ":";
        if (!pending_.empty())
            s += " " + std::to_string(pending_.size()) +
                 " parked sender(s)";
        if (!recv_waiters_.empty())
            s += " " + std::to_string(recv_waiters_.size()) +
                 " parked receiver(s)";
        if (!flush_waiters_.empty())
            s += " " + std::to_string(flush_waiters_.size()) +
                 " parked flusher(s)";
        if (dead_sends_ > 0)
            s += " " + std::to_string(dead_sends_) +
                 " send(s) lost to a dead link";
        return s;
    }
    /** @} */

    const std::string &name() const { return name_; }

    /** Total bytes delivered (stats). */
    Bytes bytesTransferred() const { return bytes_transferred_; }
    /** Total chunks delivered (stats). */
    std::uint64_t chunksTransferred() const { return chunks_transferred_; }
    /** Ticks the link spent busy transferring (stats). Includes injected
     *  stalls and retry/backoff occupancy when faults are armed. */
    Tick busyTicks() const { return busy_ticks_; }
    /** Injected-fault recovery stats: successful retransmissions and
     *  chunks lost to a dead link. */
    std::uint64_t linkRetries() const { return link_retries_; }
    std::uint64_t deadSends() const { return dead_sends_; }

    /** True if a chunk is waiting for a FIFO slot (back-pressure). */
    bool hasBlockedSender() const { return !pending_.empty(); }
    bool hasBlockedReceiver() const { return !recv_waiters_.empty(); }
    std::size_t queued() const { return q_.size(); }

    /** Transfer duration in ticks for a chunk of @p b bytes (>= 1). */
    Tick
    transferTicks(Bytes b) const
    {
        if (bpt_int_ > 0) {
            Tick t = bpt_shift_ >= 0
                         ? (b + bpt_int_ - 1) >> bpt_shift_
                         : (b + bpt_int_ - 1) / bpt_int_;
            return t ? t : 1;
        }
        // Fractional link width: fall back to double ceil.
        auto t = static_cast<Tick>(
            std::ceil(static_cast<double>(b) / bytes_per_tick_));
        return t ? t : 1;
    }

    /**
     * Awaitable send: reserve a FIFO slot (FIFO-fair if full), occupy the
     * link for the transfer duration, then deliver. The awaiting
     * coroutine resumes at delivery time.
     */
    auto send(Chunk c) { return SendAwaiter{*this, std::move(c)}; }

    /**
     * Non-suspending send for producers that cannot block: succeeds only
     * when no sender is queued ahead and a FIFO slot is free right now.
     * The transfer then proceeds exactly as for send().
     *
     * @return false if the chunk was not accepted.
     */
    bool
    trySend(Chunk c)
    {
        if (!pending_.empty() || claimed() >= cap_)
            return false;
        admit(std::move(c), {});
        return true;
    }

    /**
     * Detached send: unconditionally enqueue (never suspends, never
     * fails). Pair with flush() to wait for delivery.
     */
    void
    post(Chunk c)
    {
        if (pending_.empty() && claimed() < cap_)
            admit(std::move(c), {});
        else
            pending_.push_back(Xfer{std::move(c), {}, 0});
    }

    /**
     * Awaitable: resume once the send side is fully drained (no chunk
     * pending a slot or occupying the link). With a single producer —
     * every stream is a point-to-point edge, so that is the normal case
     * — this means "everything I enqueued was delivered". A producer
     * that keeps enqueueing concurrently keeps pushing the drain point
     * out; flush() is not a per-chunk completion.
     */
    auto flush() { return FlushAwaiter{*this}; }

    /** Awaitable receive of the next chunk; blocks while empty. */
    auto recv() { return RecvAwaiter{*this, {}, {}, false}; }

    /**
     * Clear stats and link occupancy for a fresh run on a rewound
     * engine (RsnMachine::reset). Only legal when the stream is fully
     * drained — no queued chunks, no transfer in flight, no blocked
     * party — which a completed program run guarantees.
     */
    void
    reset()
    {
        rsn_assert(q_.empty() && pending_.empty() && xfer_.empty() &&
                       recv_waiters_.empty() && flush_waiters_.empty(),
                   "reset of non-drained stream %s", name_.c_str());
        link_free_ = 0;
        busy_ticks_ = 0;
        bytes_transferred_ = 0;
        chunks_transferred_ = 0;
        link_retries_ = 0;
        dead_sends_ = 0;
    }

  private:
    /** One send operation: payload, waiting sender, completion tick. */
    struct Xfer {
        Chunk c;
        std::coroutine_handle<> waiter;  ///< Null for post()/trySend().
        Tick end = 0;                    ///< Valid once admitted.
    };

    /** Slots claimed = delivered-and-queued + admitted to the link. */
    std::size_t claimed() const { return q_.size() + xfer_.size(); }

    /**
     * Cold path of admit(): consult the injector and fold the outcome
     * into @p dur. Returns false when the link is dead (the chunk must
     * be lost). Kept out of line so the chaos machinery never bloats the
     * fault-free admit() past the inliner's budget — with faults off the
     * hot path pays exactly one null check.
     */
    [[gnu::cold, gnu::noinline]] bool
    admitFaulted(Tick &dur)
    {
        FaultInjector::Outcome o = fault_->onLinkAdmit(fault_site_, dur);
        if (o.dead) {
            // Unrecoverable link fault: the chunk is lost and a
            // suspended sender is never resumed — the injector has
            // already recorded the diagnosis and asked the engine to
            // stop; waitQuiet() keeps the loss visible to the drain
            // diagnosis either way.
            ++dead_sends_;
            return false;
        }
        dur += o.extra;  // stalls + retransmissions + tick backoff
        link_retries_ += o.retries;
        return true;
    }

    /** Claim a slot and put @p c on the link behind earlier transfers. */
    void
    admit(Chunk &&c, std::coroutine_handle<> waiter)
    {
        Tick start = std::max(eng_.now(), link_free_);
        Tick dur = transferTicks(c.bytes());
        if (fault_) [[unlikely]]
            if (!admitFaulted(dur))
                return;  // dead link: the chunk dies here
        Tick end = start + dur;
        busy_ticks_ += dur;
        link_free_ = end;
        bool link_was_idle = xfer_.empty();
        xfer_.push_back(Xfer{std::move(c), waiter, end});
        if (link_was_idle)
            scheduleCompletion(end);
    }

    /** Admit pending senders while FIFO slots are free (FIFO order). */
    void
    pump()
    {
        while (!pending_.empty() && claimed() < cap_) {
            Xfer &p = pending_.front();
            Chunk c = std::move(p.c);
            std::coroutine_handle<> waiter = p.waiter;
            pending_.drop_front();
            admit(std::move(c), waiter);
        }
    }

    /** Raw engine callback firing at a transfer's end tick. */
    void
    scheduleCompletion(Tick when)
    {
        eng_.callAt(
            when,
            [](void *p) { static_cast<Stream *>(p)->onTransferDone(); },
            this);
    }

    /**
     * A transfer finished: free the link head, hand the chunk over, and
     * resume the parties. Receiver and sender continuations are resumed
     * *directly* (not via the engine now-queue): the completion event is
     * the only engine event on the per-chunk path, and all resumptions
     * happen at the same tick either way. The next completion is
     * scheduled before anyone resumes, so continuations observe a
     * consistent link pipeline.
     */
    void
    onTransferDone()
    {
        rsn_assert(!xfer_.empty(), "completion with no transfer in flight");
        rsn_assert(xfer_.front().end == eng_.now(), "completion mistimed");
        // Consume the head transfer in place (one Chunk move straight to
        // its destination) instead of moving the whole Xfer out.
        Xfer &head = xfer_.front();
        Chunk c = std::move(head.c);
        std::coroutine_handle<> sender = head.waiter;
        xfer_.drop_front();
        bytes_transferred_ += c.bytes();
        ++chunks_transferred_;
        if (!xfer_.empty())
            scheduleCompletion(xfer_.front().end);
        if (!recv_waiters_.empty()) {
            // Direct handoff: the chunk never touches the FIFO, so its
            // slot frees immediately — admit pending senders first to
            // keep claim accounting consistent, then resume.
            rsn_assert(q_.empty(), "receiver waiting on non-empty stream");
            RecvAwaiter *w = recv_waiters_.pop_front();
            w->got = std::move(c);
            w->has_got = true;
            pump();
            w->waiter.resume();
        } else {
            q_.push_back(std::move(c));
        }
        if (sender)
            sender.resume();
        if (xfer_.empty() && pending_.empty())
            while (!flush_waiters_.empty())
                eng_.resumeNow(flush_waiters_.pop_front());
    }

    struct SendAwaiter {
        Stream &s;
        Chunk c;

        /** Delivery is at least one tick away, so always suspend. */
        bool await_ready() const noexcept { return false; }
        void
        await_suspend(std::coroutine_handle<> h)
        {
            if (s.pending_.empty() && s.claimed() < s.cap_)
                s.admit(std::move(c), h);
            else
                s.pending_.push_back(Xfer{std::move(c), h, 0});
        }
        void await_resume() const noexcept {}
    };

    struct FlushAwaiter {
        Stream &s;

        bool await_ready() const noexcept
        {
            return s.pending_.empty() && s.xfer_.empty();
        }
        void await_suspend(std::coroutine_handle<> h)
        {
            s.flush_waiters_.push_back(h);
        }
        void await_resume() const noexcept {}
    };

    /**
     * Waiting receivers register the awaiter itself (it lives in the
     * suspended coroutine's frame, so the pointer is stable): delivery
     * moves the chunk straight into the frame and resumes — a waiting
     * receiver never round-trips through the FIFO or the event queue.
     * Consequence: whenever a receiver waits the FIFO is empty, so no
     * pop-reservation bookkeeping is needed.
     */
    struct RecvAwaiter {
        Stream &s;
        std::coroutine_handle<> waiter;
        Chunk got;
        bool has_got = false;

        bool await_ready() const
        {
            return s.recv_waiters_.empty() && !s.q_.empty();
        }
        void await_suspend(std::coroutine_handle<> h)
        {
            waiter = h;
            s.recv_waiters_.push_back(this);
        }
        Chunk await_resume()
        {
            if (has_got)
                return std::move(got);
            rsn_assert(!s.q_.empty(), "stream underflow");
            Chunk c = std::move(s.q_.front());
            s.q_.pop_front();
            s.pump();
            return c;
        }
    };

    Engine &eng_;
    double bytes_per_tick_;
    Bytes bpt_int_ = 0;   ///< Integer link width (0 if fractional).
    int bpt_shift_ = -1;  ///< log2(width) when a power of two, else -1.
    std::size_t cap_;
    std::string name_;

    Ring<Chunk> q_;          ///< Delivered chunks awaiting recv().
    Ring<Xfer> pending_;     ///< Sends waiting for a FIFO slot.
    Ring<Xfer> xfer_;        ///< Admitted transfers, in link order.
    Ring<RecvAwaiter *> recv_waiters_;
    Ring<std::coroutine_handle<>> flush_waiters_;

    Tick link_free_ = 0;
    Tick busy_ticks_ = 0;
    Bytes bytes_transferred_ = 0;
    std::uint64_t chunks_transferred_ = 0;

    FaultInjector *fault_ = nullptr;  ///< Null unless chaos is armed.
    FaultInjector::SiteId fault_site_ = 0;
    std::uint64_t link_retries_ = 0;
    std::uint64_t dead_sends_ = 0;
};

} // namespace rsn::sim

#endif // RSN_SIM_STREAM_HH
