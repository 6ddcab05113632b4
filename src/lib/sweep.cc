#include "lib/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "common/log.hh"
#include "fu/kernel_registry.hh"
#include "lib/codegen.hh"
#include "sim/tile_pool.hh"

namespace rsn::lib {

core::RsnMachine &
SweepLane::machine(const core::MachineConfig &cfg)
{
    if (mach_ && mach_->resettable() &&
        cfg_.equalsIgnoringFaultSeed(cfg)) {
        // Same datapath, same fault sources — at most the fault *seed*
        // differs (the serving scheduler salts one chaos seed per
        // request). reset() rewinds, setFaultSeed re-arms the injector;
        // both are identical in outcome to a cold build.
        mach_->reset();
        if (cfg_.fault.seed != cfg.fault.seed) {
            mach_->setFaultSeed(cfg.fault.seed);
            cfg_.fault.seed = cfg.fault.seed;
        }
        ++reused_;
    } else {
        // Config changed, first use, or the previous run did not
        // complete (a deadlocked/timed-out machine holds suspended
        // kernel frames and cannot be reset — rebuild instead).
        mach_ = std::make_unique<core::RsnMachine>(cfg_ = cfg);
        ++built_;
    }
    return *mach_;
}

std::uint64_t
SweepLane::discard()
{
    mach_.reset();
    // A quarantine rebuild is the one moment pool growth can leak
    // across requests: the dead machine's tiles have just retired to
    // this thread's free lists, and the replacement machine re-acquires
    // from scratch. Trim returns that storage to the system so a
    // long-serving process's footprint stays bounded by its *live*
    // fleet, not its fault history (pool-stat test in
    // tests/sim/test_tile_pool.cc).
    return sim::TilePool::instance().trim();
}

unsigned
SweepExecutor::defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

unsigned
SweepExecutor::resolveJobs(long requested)
{
    if (requested == 0)
        return defaultJobs();
    return requested < 1 ? 1u : static_cast<unsigned>(requested);
}

void
SweepExecutor::forEach(std::size_t count, const Job &fn) const
{
    if (count == 0)
        return;

    // Apply RSN_ISA before any lane runs: selection is main-thread
    // state, lanes only ever read the published table.
    kernel::active();

    const std::size_t lanes =
        std::min<std::size_t>(jobs_, count);
    if (lanes <= 1) {
        // Inline: no threads, the lane (and its machine, and the tile
        // pool it uses) lives on the calling thread. This is the
        // reference execution the parallel path must match bit-for-bit.
        SweepLane lane(0);
        for (std::size_t i = 0; i < count; ++i)
            fn(lane, i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> abort{false};
    std::mutex error_mutex;
    std::exception_ptr first_error;

    const auto worker = [&](std::size_t lane_idx) {
        // The lane is constructed *and destroyed* on this thread, so
        // its machine's tiles retire into this thread's pool — the
        // TilePool ownership contract.
        SweepLane lane(lane_idx);
        while (!abort.load(std::memory_order_relaxed)) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                break;
            try {
                fn(lane, i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
                abort.store(true, std::memory_order_relaxed);
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(lanes);
    for (std::size_t l = 0; l < lanes; ++l)
        threads.emplace_back(worker, l);
    for (std::thread &t : threads)
        t.join();

    if (first_error)
        std::rethrow_exception(first_error);
}

std::vector<CheckedRun>
runSweep(const SweepExecutor &ex, const std::vector<SweepPoint> &points)
{
    return ex.map<CheckedRun>(
        points.size(), [&](SweepLane &lane, std::size_t i) {
            const SweepPoint &p = points[i];
            core::RsnMachine &mach = lane.machine(p.cfg);
            const CompiledModel compiled =
                compileModel(mach, p.model, p.opts);
            return runModelChecked(mach, p.model, compiled, p.seed);
        });
}

} // namespace rsn::lib
