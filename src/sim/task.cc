#include "sim/task.hh"

#include <array>
#include <new>
#include <utility>

// AddressSanitizer must see every frame's allocation and release, so
// under it the pool passes frames straight through.
#if defined(__SANITIZE_ADDRESS__)
#define RSN_FRAME_POOL 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RSN_FRAME_POOL 0
#endif
#endif
#ifndef RSN_FRAME_POOL
#define RSN_FRAME_POOL 1
#endif

namespace rsn::sim {

namespace {

#if RSN_FRAME_POOL

/** Size classes of kGrain bytes; larger frames are not pooled. */
constexpr std::size_t kGrain = 64;
constexpr std::size_t kClasses = 32;

/** True once this thread's pool was destroyed (trivially destructible,
 *  so it stays readable through the rest of thread exit). */
thread_local bool t_pool_gone = false;

struct FreeFrame {
    FreeFrame *next;
};

/** One thread's free lists, intrusive through the freed frames. */
struct FramePool {
    std::array<FreeFrame *, kClasses> free{};

    ~FramePool()
    {
        for (FreeFrame *&head : free)
            while (head)
                ::operator delete(std::exchange(head, head->next));
        t_pool_gone = true;
    }
};

/** This thread's free list for @p bytes frames; null when they are
 *  not pooled. */
FreeFrame **
freeList(std::size_t bytes)
{
    thread_local FramePool pool;
    const std::size_t cls = (bytes - 1) / kGrain;
    return cls < kClasses && !t_pool_gone ? &pool.free[cls] : nullptr;
}

#endif // RSN_FRAME_POOL

} // namespace

namespace detail {

void *
allocateFrame(std::size_t bytes)
{
#if RSN_FRAME_POOL
    if (FreeFrame **head = freeList(bytes)) {
        if (FreeFrame *f = *head) {
            *head = f->next;
            return f;
        }
        return ::operator new((bytes + kGrain - 1) / kGrain * kGrain);
    }
#endif
    return ::operator new(bytes);
}

void
deallocateFrame(void *frame, std::size_t bytes) noexcept
{
#if RSN_FRAME_POOL
    if (FreeFrame **head = freeList(bytes)) {
        *head = ::new (frame) FreeFrame{*head};
        return;
    }
#endif
    (void)bytes;
    ::operator delete(frame);
}

} // namespace detail

void
warmFramePool()
{
#if RSN_FRAME_POOL
    freeList(1);
#endif
}

} // namespace rsn::sim
