/**
 * @file
 * Ring: a fixed-capacity power-of-two FIFO ring buffer.
 *
 * Replacement for std::deque on the sim hot paths (channel payloads,
 * stream FIFOs): a deque pays block-map indexing on every access, while
 * the ring is a single masked index into contiguous storage that is
 * recycled in place. Its storage is allocated once, at construction, for
 * the owner's depth, so pushes and pops never allocate and a push into a
 * full ring trips rsn_assert.
 *
 * T must be default-constructible and movable; a retired slot keeps its
 * moved-from value, which for the sim's payload types (uOP references,
 * packet pointers, Chunks) is free.
 */

#ifndef RSN_SIM_RING_HH
#define RSN_SIM_RING_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/log.hh"

namespace rsn::sim {

template <typename T>
class Ring
{
  public:
    /** Room for at least @p capacity items (rounded up to a power of 2). */
    explicit Ring(std::size_t capacity) : buf_(std::bit_ceil(capacity)) {}

    bool empty() const { return head_ == tail_; }
    std::size_t size() const { return tail_ - head_; }

    // front/drop_front are forced inline: they sit inside the engine's
    // per-event delivery loop, and under LTO the global inline budget can
    // otherwise evict them once unrelated code grows.
    [[gnu::always_inline]] T &front()
    {
        rsn_assert(!empty(), "ring underflow");
        return buf_[head_ & mask()];
    }

    void
    push_back(T v)
    {
        rsn_assert(size() < buf_.size(), "ring overflow");
        buf_[tail_++ & mask()] = std::move(v);
    }

    /** Retire the front slot; callers consume it through front() first. */
    [[gnu::always_inline]] void
    drop_front()
    {
        rsn_assert(!empty(), "ring underflow");
        ++head_;
    }

  private:
    std::size_t mask() const { return buf_.size() - 1; }

    std::vector<T> buf_;
    std::uint64_t head_ = 0;  ///< Free-running; index = head_ & mask().
    std::uint64_t tail_ = 0;
};

} // namespace rsn::sim

#endif // RSN_SIM_RING_HH
