/**
 * @file
 * The coroutine task type of FU kernels and decoders.
 *
 * A Task is an *eagerly started* coroutine: calling the coroutine function
 * runs it until its first suspension point. It is awaitable, so a parent
 * coroutine can `co_await` a child kernel; awaiting a task that already
 * completed resumes immediately. Two eager tasks awaited in sequence
 * execute concurrently in simulated time — this is how FU kernels express
 * the paper's "load and send execute in parallel" (Fig. 7b).
 *
 * Lifetime rules: the Task object owns the coroutine frame and destroys it in
 * its destructor. Never destroy a Task whose coroutine might still be resumed
 * by the engine; the simulator guarantees this by destroying FUs (and their
 * tasks) only after Engine::run has returned.
 *
 * Completion hand-off uses symmetric transfer (the final awaiter returns
 * the parent's handle), so awaiting a child never round-trips through the
 * engine's event queue. When engine-timed resumption *is* wanted, pass
 * handle() to Engine::resumeAt/resumeNow directly — the engine stores raw
 * coroutine handles in POD event slots, so no wrapper lambda is needed.
 * A DRAM access is not a coroutine: mem::DramChannel::access() returns
 * the tick its service completes, and the kernel awaits
 * Engine::delayUntil of it.
 *
 * Frame storage: every FU kernel and ping-pong half is a coroutine, so a
 * run creates several frames per uOP. The promise takes its frames from
 * a thread-local recycling pool (free lists per 64-byte size class;
 * larger frames go to ::operator new), so a warm machine runs without
 * heap traffic for frames. A frame may be freed on another thread than
 * the one that allocated it: it joins that thread's free lists. The pool
 * lives until its thread exits; RsnMachine's constructor touches it
 * (warmFramePool) so it outlives any thread_local object that holds a
 * machine, and a frame freed after the pool is gone goes straight back
 * to ::operator delete. Under AddressSanitizer the pool passes every
 * frame through to ::operator new / delete, so a use-after-free of a
 * frame is still reported (docs/datapath.md, "Coroutine frames").
 */

#ifndef RSN_SIM_TASK_HH
#define RSN_SIM_TASK_HH

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

namespace rsn::sim {

namespace detail {

/** @{ Coroutine frame storage from this thread's pool (file comment). */
void *allocateFrame(std::size_t bytes);
void deallocateFrame(void *frame, std::size_t bytes) noexcept;
/** @} */

} // namespace detail

/**
 * Create this thread's frame pool if it does not exist yet. Objects
 * constructed after it on the same thread are destroyed before it at
 * thread exit, so their frames return to a live pool.
 */
void warmFramePool();

/** Eagerly-started coroutine returning nothing. See file comment. */
class [[nodiscard]] Task
{
  public:
    struct promise_type {
        std::coroutine_handle<> continuation;

        static void *
        operator new(std::size_t n)
        {
            return detail::allocateFrame(n);
        }
        static void
        operator delete(void *p, std::size_t n) noexcept
        {
            detail::deallocateFrame(p, n);
        }

        Task get_return_object()
        {
            return Task{
                std::coroutine_handle<promise_type>::from_promise(*this)};
        }
        std::suspend_never initial_suspend() noexcept { return {}; }
        /** Transfer control back to an awaiting parent, if any. */
        auto final_suspend() noexcept
        {
            struct FinalAwaiter {
                bool await_ready() const noexcept { return false; }
                std::coroutine_handle<>
                await_suspend(std::coroutine_handle<promise_type> h) noexcept
                {
                    auto cont = h.promise().continuation;
                    return cont ? cont : std::noop_coroutine();
                }
                void await_resume() const noexcept {}
            };
            return FinalAwaiter{};
        }
        void return_void() noexcept {}
        void unhandled_exception() { std::terminate(); }
    };

    Task() = default;
    explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
    Task(Task &&o) noexcept : h_(std::exchange(o.h_, {})) {}
    Task &operator=(Task &&o) noexcept
    {
        if (this != &o) {
            reset();
            h_ = std::exchange(o.h_, {});
        }
        return *this;
    }
    ~Task() { reset(); }

    /** True when the coroutine ran to completion (or is empty). */
    bool done() const { return !h_ || h_.done(); }

    /**
     * The raw coroutine handle (null for an empty task). Lets callers
     * enqueue the suspended coroutine on the engine directly
     * (e.g. `eng.resumeNow(t.handle())`); ownership stays with the Task.
     */
    std::coroutine_handle<> handle() const noexcept { return h_; }

    /** Destroy the owned coroutine frame (must not be live in the engine). */
    void reset()
    {
        if (h_) {
            h_.destroy();
            h_ = {};
        }
    }

    /** Awaiting a Task suspends the parent until the task completes. */
    auto operator co_await() const noexcept
    {
        struct Awaiter {
            std::coroutine_handle<promise_type> h;
            bool await_ready() const noexcept { return !h || h.done(); }
            void await_suspend(std::coroutine_handle<> parent) noexcept
            {
                h.promise().continuation = parent;
            }
            void await_resume() const noexcept {}
        };
        return Awaiter{h_};
    }

  private:
    std::coroutine_handle<promise_type> h_;
};

} // namespace rsn::sim

#endif // RSN_SIM_TASK_HH
