/**
 * @file
 * Deterministic parallel sweep executor (ROADMAP item 1(a)).
 *
 * The single-machine hot path is mined out — payload math is ~0.8 ms of
 * a 0.92 ms BERT-Large run — so the next throughput lever is running N
 * independent RsnMachines at once: every fig/table sweep and the
 * rsn-sim batch mode is a list of *independent* (config, model) points,
 * which is embarrassingly parallel as long as nothing is shared. This
 * module is the "nothing is shared" part made explicit.
 *
 * ## Lane model — no work stealing, no shared mutable state
 *
 * A SweepExecutor owns a fixed set of worker threads. Each worker owns
 * one **SweepLane**: its own cached RsnMachine (reused via reset()
 * across equal-config points, rebuilt on a config change or after a
 * non-resettable run), and — by construction on its own thread — its
 * own thread-local TilePool (sim/tile_pool.hh), its own GemmScratch
 * (machine-owned, inside each MME FU), and its own FaultInjector
 * (machine-owned). Workers pull job indices from one shared atomic
 * counter; that counter is the *only* cross-thread state on the sweep
 * path. Results land in a caller-sized vector slot keyed by job index,
 * so output order is independent of scheduling.
 *
 * ## Determinism — bit-identical to --jobs 1
 *
 * A simulation's outcome is a pure function of (config, model, schedule
 * options, seed): the engine is event-driven with no wall-clock inputs,
 * the fault schedule is a pure hash of (seed, site, sequence), and
 * reset() rewinds a machine to the pristine state a fresh build would
 * have. Which lane runs which job therefore cannot change any result —
 * tick counts and functional outputs are bit-identical for every jobs
 * value, which tests/lib/test_sweep.cc pins.
 *
 * ## Threading contract (docs/datapath.md)
 *
 * - Tiles never cross lanes: each lane's pool is thread-local and
 *   debug builds assert ownership on acquire/retire.
 * - Job callbacks must not touch process-wide selection
 *   (kernel::select, ScopedIsaOverride, setenv, setLogLevel): those
 *   are main-thread-only, with no sweep running. The executor calls
 *   kernel::active() before spawning so RSN_ISA is read on the
 *   calling thread.
 * - Logging (rsn_warn / rsn_inform) is safe from lanes (mutex-backed).
 */

#ifndef RSN_LIB_SWEEP_HH
#define RSN_LIB_SWEEP_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/machine.hh"
#include "lib/runner.hh"
#include "lib/schedule.hh"

namespace rsn::lib {

/**
 * One worker's private execution context: a cached machine plus reuse
 * stats. Constructed on the thread that will run its jobs (so the
 * machine's tile pool is that thread's pool) and never shared.
 */
class SweepLane
{
  public:
    explicit SweepLane(std::size_t index) : index_(index) {}

    SweepLane(const SweepLane &) = delete;
    SweepLane &operator=(const SweepLane &) = delete;

    /** Which lane this is: [0, jobs). Stable across the sweep. */
    std::size_t index() const { return index_; }

    /**
     * A pristine machine for @p cfg: the cached instance reset when the
     * config is unchanged and the previous run completed, a fresh build
     * otherwise. Identical semantics to a cold build — reset() rewinds
     * clock, stats, and host memory — so caching is invisible to
     * results.
     */
    core::RsnMachine &machine(const core::MachineConfig &cfg);

    /**
     * Drop the cached machine and trim this thread's TilePool free
     * lists back to the system. The circuit breaker calls this when it
     * quarantines a lane slot (serve/scheduler.cc): the next machine()
     * call is guaranteed a cold rebuild, and the dead machine's pooled
     * buffers cannot accumulate across quarantine cycles. Returns the
     * number of pooled buffers released.
     */
    std::uint64_t discard();

    /** @{ Reuse accounting (bench labels, tests). */
    std::size_t machinesBuilt() const { return built_; }
    std::size_t machinesReused() const { return reused_; }
    /** @} */

  private:
    std::size_t index_;
    core::MachineConfig cfg_;
    std::unique_ptr<core::RsnMachine> mach_;
    std::size_t built_ = 0;
    std::size_t reused_ = 0;
};

/**
 * Fixed-width deterministic sweep executor. jobs == 1 runs every job
 * inline on the calling thread (no pool, no atomics on the result
 * path); jobs > 1 spawns min(jobs, count) workers per forEach call.
 * Threads are per-call rather than pooled: a sweep point simulates for
 * milliseconds to seconds, so thread start-up is noise, and per-call
 * workers let each lane's machine be built *and destroyed* on its own
 * thread — which the thread-local TilePool ownership contract requires.
 */
class SweepExecutor
{
  public:
    explicit SweepExecutor(unsigned jobs = 1) : jobs_(jobs ? jobs : 1) {}

    unsigned jobs() const { return jobs_; }

    /** What `--jobs 0` / `RSN_JOBS=0` means: every hardware thread. */
    static unsigned defaultJobs();

    /**
     * Resolve a user-facing jobs request: 0 means defaultJobs(),
     * anything else is taken as-is (clamped to >= 1).
     */
    static unsigned resolveJobs(long requested);

    using Job = std::function<void(SweepLane &, std::size_t)>;

    /**
     * Run fn(lane, i) for every i in [0, count), spread across lanes.
     * Blocks until all jobs finish. If a job throws, remaining jobs are
     * abandoned (in-flight ones finish), workers drain, and the first
     * exception rethrows on the calling thread.
     */
    void forEach(std::size_t count, const Job &fn) const;

    /**
     * forEach with a pre-sized result vector: out[i] = fn(lane, i).
     * Output order is job order, independent of scheduling. R must be
     * default-constructible and (for jobs > 1) move-assignable.
     */
    template <typename R, typename Fn>
    std::vector<R>
    map(std::size_t count, Fn &&fn) const
    {
        std::vector<R> out(count);
        forEach(count, [&](SweepLane &lane, std::size_t i) {
            out[i] = fn(lane, i);
        });
        return out;
    }

  private:
    unsigned jobs_;
};

/** One (config, model) sweep point for runSweep. */
struct SweepPoint {
    core::MachineConfig cfg;
    Model model;
    ScheduleOptions opts;
    std::uint32_t seed = 2025;
};

/**
 * Checked-run convenience over the executor: compile and execute every
 * point through lib::runModelChecked (its accuracy contract included)
 * on its lane's machine. Results are in point order. This is the
 * rsn-sim --sweep-batch / chaos-sweep path; the bench binaries use
 * bench_util.hh's runSweepPoints instead (they want timing and traffic
 * aggregates, not functional verification).
 */
std::vector<CheckedRun> runSweep(const SweepExecutor &ex,
                                 const std::vector<SweepPoint> &points);

} // namespace rsn::lib

#endif // RSN_LIB_SWEEP_HH
