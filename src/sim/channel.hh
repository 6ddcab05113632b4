/**
 * @file
 * Bounded latency-insensitive FIFO joining one writer coroutine to one
 * reader coroutine.
 *
 * A Channel<T> holds at most `capacity` items. The sender suspends while
 * the channel is full; the receiver suspends while it is empty. This is
 * the control-plane primitive of the RSN abstraction: "communication is
 * latency-insensitive, meaning that the correctness of execution does
 * not depend on timing, and the FUs are stallable" (paper Sec. 3.1).
 *
 * One writer, one reader: every channel in the datapath — the fetch
 * unit's packet FIFO into each type decoder, and each type decoder's
 * uOP queue into an FU — has exactly one producer and one consumer
 * (paper Fig. 8). So the channel parks at most one sender and one
 * receiver, and a second concurrent one trips rsn_assert. No
 * reservations are needed: a wakeup hands the freed slot or the new
 * item to the only party that can take it. Wakeups enqueue the parked
 * coroutine handle on the engine's now-queue (Engine::resumeNow) — no
 * lambda trampoline, no allocation.
 */

#ifndef RSN_SIM_CHANNEL_HH
#define RSN_SIM_CHANNEL_HH

#include <coroutine>
#include <string>
#include <utility>

#include "common/log.hh"
#include "sim/engine.hh"
#include "sim/ring.hh"

namespace rsn::sim {

template <typename T>
class Channel
{
  public:
    Channel(Engine &eng, std::size_t capacity, std::string name = "chan")
        : eng_(eng), cap_(capacity), name_(std::move(name)), q_(capacity)
    {
        rsn_assert(capacity > 0, "channel capacity must be positive");
        eng_.registerWaitable(this);
    }

    ~Channel() { eng_.unregisterWaitable(this); }

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    /** @{ Silent-deadlock detection (Engine::drainedClean): a drained
     *  engine must leave no coroutine parked on this channel. */
    bool waitQuiet() const { return !sender_ && !receiver_; }
    [[gnu::cold]] std::string
    describeBlocked() const
    {
        std::string s = "channel " + name_ + ":";
        if (sender_)
            s += " 1 parked sender(s)";
        if (receiver_)
            s += " 1 parked receiver(s)";
        return s;
    }
    /** @} */

    std::size_t capacity() const { return cap_; }
    std::size_t size() const { return q_.size(); }
    bool empty() const { return q_.empty(); }

    /** True if the writer / reader is currently parked. */
    bool hasBlockedSender() const { return bool(sender_); }
    bool hasBlockedReceiver() const { return bool(receiver_); }

    /** Awaitable: suspend until a slot is free, then enqueue @p v. */
    auto send(T v) { return SendAwaiter{*this, std::move(v)}; }

    /** Awaitable: suspend until an item is available, then dequeue it. */
    auto recv() { return RecvAwaiter{*this}; }

  private:
    /** Park @p h in @p slot; the slot must be free (one party per side). */
    void
    park(std::coroutine_handle<> &slot, std::coroutine_handle<> h,
         const char *side)
    {
        rsn_assert(!slot, "channel %s has a second concurrent %s",
                   name_.c_str(), side);
        slot = h;
    }

    /** Resume the party parked in @p slot, if any. */
    void
    wake(std::coroutine_handle<> &slot)
    {
        if (slot)
            eng_.resumeNow(std::exchange(slot, {}));
    }

    struct SendAwaiter {
        Channel &ch;
        T v;

        bool await_ready() const { return ch.q_.size() < ch.cap_; }
        void await_suspend(std::coroutine_handle<> h)
        {
            ch.park(ch.sender_, h, "sender");
        }
        void await_resume()
        {
            rsn_assert(ch.q_.size() < ch.cap_, "channel overflow");
            ch.q_.push_back(std::move(v));
            ch.wake(ch.receiver_);
        }
    };

    struct RecvAwaiter {
        Channel &ch;

        bool await_ready() const { return !ch.q_.empty(); }
        void await_suspend(std::coroutine_handle<> h)
        {
            ch.park(ch.receiver_, h, "receiver");
        }
        T await_resume()
        {
            rsn_assert(!ch.q_.empty(), "channel underflow");
            T v = std::move(ch.q_.front());
            ch.q_.drop_front();
            ch.wake(ch.sender_);
            return v;
        }
    };

    Engine &eng_;
    std::size_t cap_;
    std::string name_;
    Ring<T> q_;
    std::coroutine_handle<> sender_;    ///< Parked writer, if any.
    std::coroutine_handle<> receiver_;  ///< Parked reader, if any.
};

} // namespace rsn::sim

#endif // RSN_SIM_CHANNEL_HH
