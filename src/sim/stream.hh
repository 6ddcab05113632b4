/**
 * @file
 * Stream: a link-timed, bounded, latency-insensitive channel of Chunks.
 *
 * This is an edge of the RSN network (paper Sec. 3.1). On top of Channel
 * semantics (FIFO, back-pressure) it models *link occupancy*: a chunk of B
 * bytes occupies the link for ceil(B / width) ticks, with an integer
 * width in bytes per tick. A full downstream FIFO back-pressures the
 * link: the transfer does not start until a slot is free.
 *
 * ## One writer, one reader, one chunk outstanding
 *
 * The RSN datapath is circuit-switched: every stream is a point-to-point
 * edge from one FU to another (paper Fig. 10), and each FU kernel keeps
 * at most one chunk outstanding per output — `co_await send(c)` resumes
 * at delivery, and the mesh FU flushes each broadcast copy before the
 * next. So a stream holds one outstanding transfer (waiting for a FIFO
 * slot or on the link), at most one parked receiver and one parked
 * flusher. A second concurrent sender, receiver or flusher, or a
 * `post()` before the previous chunk was flushed, is a wiring bug and
 * trips rsn_assert naming the stream.
 *
 * ## Coroutine-free data plane
 *
 * The send path spawns no coroutine frames and performs no heap
 * allocations. `send()` returns a plain awaitable: the sender's chunk
 * enters the outstanding-transfer slot and the stream itself drives link
 * occupancy with one engine completion event per chunk, scheduled at the
 * transfer's end tick. A transfer starts when it is admitted — the link
 * is free, since the chunk is the only one outstanding. The completion
 * hands the chunk to a parked receiver (or the FIFO) and resumes the
 * receiver, then the sender, directly; a parked flusher resumes through
 * the engine's now-queue.
 *
 * A producer that must not suspend uses `post()` (a detached send) and
 * then `flush()`, which awaits its delivery — the mesh FU uses post+flush
 * to overlap one broadcast chunk across all destination links.
 *
 * ## Lifetime
 *
 * A chunk on the link holds a raw `this` in its engine completion event,
 * so a Stream with a transfer in flight must not be destroyed while its
 * engine may still dispatch — the same rule Task imposes for coroutine
 * frames. The machine guarantees this by destroying streams only after
 * Engine::run returned and never running that engine again (events
 * pending at engine destruction are dropped, never invoked).
 */

#ifndef RSN_SIM_STREAM_HH
#define RSN_SIM_STREAM_HH

#include <coroutine>
#include <string>
#include <utility>

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
    Stream(Engine &eng, Bytes bytes_per_tick, std::size_t depth_chunks,
           std::string name)
        : eng_(eng), bpt_(bytes_per_tick), cap_(depth_chunks),
          name_(std::move(name)), q_(depth_chunks)
    {
        rsn_assert(bytes_per_tick > 0, "stream width must be positive");
        rsn_assert(depth_chunks > 0, "stream depth must be positive");
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
        return out_state_ != Out::Blocked && !receiver_ && !flusher_ &&
               dead_sends_ == 0;
    }
    [[gnu::cold]] std::string
    describeBlocked() const
    {
        std::string s = "stream " + name_ + ":";
        if (out_state_ == Out::Blocked)
            s += " 1 parked sender(s)";
        if (receiver_)
            s += " 1 parked receiver(s)";
        if (flusher_)
            s += " 1 parked flusher(s)";
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
    bool hasBlockedSender() const { return out_state_ == Out::Blocked; }
    bool hasBlockedReceiver() const { return receiver_ != nullptr; }
    std::size_t queued() const { return q_.size(); }

    /** Transfer duration in ticks for a chunk of @p b bytes (>= 1). */
    Tick
    transferTicks(Bytes b) const
    {
        Tick t = (b + bpt_ - 1) / bpt_;
        return t ? t : 1;
    }

    /**
     * Awaitable send: wait for a FIFO slot, occupy the link for the
     * transfer duration, then deliver. The awaiting coroutine resumes at
     * delivery time.
     */
    auto send(Chunk c) { return SendAwaiter{*this, std::move(c)}; }

    /**
     * Detached send: enqueue without suspending. Pair with flush() to
     * wait for delivery before the next post().
     */
    void post(Chunk c) { enqueue(std::move(c), {}); }

    /**
     * Awaitable: resume once the outstanding chunk was delivered (at
     * once if none is outstanding).
     */
    auto flush() { return FlushAwaiter{*this}; }

    /** Awaitable receive of the next chunk; blocks while empty. */
    auto recv() { return RecvAwaiter{*this, {}, {}, false}; }

    /**
     * Clear stats for a fresh run on a rewound engine
     * (RsnMachine::reset). Only legal when the stream is fully drained —
     * no queued chunk, no transfer outstanding, no parked party — which
     * a completed program run guarantees.
     */
    void
    reset()
    {
        rsn_assert(q_.empty() && out_state_ == Out::None && !receiver_ &&
                       !flusher_,
                   "reset of non-drained stream %s", name_.c_str());
        busy_ticks_ = 0;
        bytes_transferred_ = 0;
        chunks_transferred_ = 0;
        link_retries_ = 0;
        dead_sends_ = 0;
    }

  private:
    /** Where the outstanding chunk is. */
    enum class Out : std::uint8_t {
        None,     ///< No chunk outstanding.
        Blocked,  ///< Waiting for a FIFO slot.
        OnLink,   ///< Transferring; its completion event is scheduled.
    };

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

    /** Take @p c as the outstanding chunk; start it if a slot is free. */
    void
    enqueue(Chunk &&c, std::coroutine_handle<> sender)
    {
        rsn_assert(out_state_ == Out::None,
                   "stream %s has a second concurrent sender",
                   name_.c_str());
        out_ = std::move(c);
        sender_ = sender;
        out_state_ = Out::Blocked;
        if (q_.size() < cap_)
            admit();
    }

    /** Put the outstanding chunk on the link, now. */
    void
    admit()
    {
        Tick dur = transferTicks(out_.bytes());
        if (fault_) [[unlikely]]
            if (!admitFaulted(dur)) {
                out_ = Chunk{};  // dead link: the chunk dies here
                sender_ = {};
                out_state_ = Out::None;
                return;
            }
        busy_ticks_ += dur;
        out_state_ = Out::OnLink;
        eng_.callAt(
            eng_.now() + dur,
            [](void *p) { static_cast<Stream *>(p)->onTransferDone(); },
            this);
    }

    /**
     * The transfer finished: hand the chunk over and resume the parties.
     * Receiver and sender continuations are resumed *directly* (not via
     * the engine now-queue): the completion event is the only engine
     * event on the per-chunk path, and all resumptions happen at the same
     * tick either way. The slot is free before anyone resumes, so the
     * sender may send its next chunk at once.
     */
    void
    onTransferDone()
    {
        rsn_assert(out_state_ == Out::OnLink,
                   "completion with no transfer in flight");
        Chunk c = std::move(out_);
        std::coroutine_handle<> sender = std::exchange(sender_, {});
        out_state_ = Out::None;
        bytes_transferred_ += c.bytes();
        ++chunks_transferred_;
        if (receiver_) {
            // Direct handoff: the chunk never touches the FIFO.
            rsn_assert(q_.empty(), "receiver waiting on non-empty stream");
            RecvAwaiter *w = std::exchange(receiver_, nullptr);
            w->got = std::move(c);
            w->has_got = true;
            w->waiter.resume();
        } else {
            q_.push_back(std::move(c));
        }
        if (sender)
            sender.resume();
        if (out_state_ == Out::None && flusher_)
            eng_.resumeNow(std::exchange(flusher_, {}));
    }

    struct SendAwaiter {
        Stream &s;
        Chunk c;

        /** Delivery is at least one tick away, so always suspend. */
        bool await_ready() const noexcept { return false; }
        void
        await_suspend(std::coroutine_handle<> h)
        {
            s.enqueue(std::move(c), h);
        }
        void await_resume() const noexcept {}
    };

    struct FlushAwaiter {
        Stream &s;

        bool await_ready() const noexcept
        {
            return s.out_state_ == Out::None;
        }
        void await_suspend(std::coroutine_handle<> h)
        {
            rsn_assert(!s.flusher_,
                       "stream %s has a second concurrent flusher",
                       s.name_.c_str());
            s.flusher_ = h;
        }
        void await_resume() const noexcept {}
    };

    /**
     * A parked receiver registers the awaiter itself (it lives in the
     * suspended coroutine's frame, so the pointer is stable): delivery
     * moves the chunk straight into the frame and resumes — a parked
     * receiver never round-trips through the FIFO or the event queue.
     * Consequence: whenever a receiver waits the FIFO is empty.
     */
    struct RecvAwaiter {
        Stream &s;
        std::coroutine_handle<> waiter;
        Chunk got;
        bool has_got = false;

        bool await_ready() const { return !s.q_.empty(); }
        void await_suspend(std::coroutine_handle<> h)
        {
            rsn_assert(!s.receiver_,
                       "stream %s has a second concurrent receiver",
                       s.name_.c_str());
            waiter = h;
            s.receiver_ = this;
        }
        Chunk await_resume()
        {
            if (has_got)
                return std::move(got);
            rsn_assert(!s.q_.empty(), "stream underflow");
            Chunk c = std::move(s.q_.front());
            s.q_.drop_front();
            if (s.out_state_ == Out::Blocked)
                s.admit();  // the pop freed the slot it waited for
            return c;
        }
    };

    Engine &eng_;
    Bytes bpt_;  ///< Link width in bytes per tick.
    std::size_t cap_;
    std::string name_;

    Ring<Chunk> q_;  ///< Delivered chunks awaiting recv().
    Chunk out_;      ///< The outstanding chunk (out_state_ != None).
    std::coroutine_handle<> sender_;   ///< Its sender; null for post().
    Out out_state_ = Out::None;
    RecvAwaiter *receiver_ = nullptr;  ///< Parked reader, if any.
    std::coroutine_handle<> flusher_;  ///< Parked flusher, if any.

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
