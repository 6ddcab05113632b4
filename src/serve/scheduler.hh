/**
 * @file
 * Fault-tolerant serving scheduler over the sweep-executor substrate
 * (ROADMAP item 5: "simulate millions of users").
 *
 * An open-loop serving simulation: seeded Poisson (or trace-replay)
 * arrivals of mixed request classes flow through per-class FIFO queues
 * onto a fixed fleet of SweepLane-cached RsnMachines, entirely on a
 * simulated clock. One simulation is single-threaded and pure — its
 * ServingReport is a function of (spec, seed) only — and `--jobs`
 * parallelism happens *across* load points via runServingSweep, so
 * byte-identical reports at any jobs value are inherited from the sweep
 * executor's determinism contract rather than re-proven.
 *
 * ## Robustness model (docs/robustness.md, "Serving under faults")
 *
 * Every admitted request resolves to exactly one of five outcomes — ok,
 * retried (ok after >= 1 retry), shed, timeout, faulted — never a hang:
 *
 * - **Deadlines** cancel queued work: an expiry event removes a request
 *   still waiting in its class queue; a request whose batch completes
 *   past its deadline counts as timeout even though the run finished.
 * - **Retries**: a batch whose run ends FaultDiagnosed / Deadlock /
 *   Livelock / Timeout re-enqueues its requests after an exponential
 *   backoff (base << attempt) plus seed-derived jitter, up to
 *   max_retries per request; exhaustion resolves the request faulted.
 * - **Verification failures** are not retried: a batch whose run ends
 *   OutputMismatch resolves its requests faulted at once and leaves
 *   the slot's breaker state alone. A dispatch of one (class, batch)
 *   always replays the same memoized program on the same seeded
 *   image, so a retry would mismatch again.
 * - **Load shedding**: arrivals are refused (shed) when total queue
 *   depth reaches queue_capacity, or when the projected wait — an
 *   integer EWMA of observed service ticks times the queued batch
 *   count over the live fleet — crosses shed_wait_watermark.
 * - **Circuit breaker**, per machine slot: breaker_threshold
 *   consecutive hard-fault runs open the breaker — the slot's cached
 *   machine is discarded (SweepLane::discard, which also trims the
 *   lane's TilePool so quarantine cycles cannot leak pool growth) and
 *   the slot sits out breaker_cooldown ticks; it then half-opens and
 *   serves a single-request probe batch. A successful probe closes the
 *   breaker; a failed one reopens it.
 *
 * ## Fault salting
 *
 * One chaos seed (spec.cfg.fault.seed) drives the whole fleet: each
 * dispatch derives its machine's fault seed as
 * mix64(chaos_seed ^ dispatch-index), so different batches see
 * different fault schedules, yet the whole serving run replays exactly
 * from the one seed. Lane machines absorb the per-dispatch seed via
 * reset() + RsnMachine::setFaultSeed — no rebuild, so the machine cache
 * works at full strength under chaos (lib/sweep.hh).
 */

#ifndef RSN_SERVE_SCHEDULER_HH
#define RSN_SERVE_SCHEDULER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hh"
#include "lib/sweep.hh"
#include "serve/arrivals.hh"
#include "serve/latency.hh"

namespace rsn::serve {

/** Scheduler knobs: fleet shape, batching, and every robustness lever.
 *  Defaults are a small-but-serving configuration the tests build on. */
struct ServePolicy {
    std::size_t fleet = 2;          ///< Machine slots (one lane each).
    std::uint32_t max_batch = 4;    ///< Requests co-batched per run.
    Tick batch_linger = 4096;       ///< Head-of-line wait for batchmates.
    Tick deadline = 0;              ///< Per-request, from arrival; 0 = off.
    std::size_t queue_capacity = 256;  ///< Total queued before shedding.
    Tick shed_wait_watermark = 0;   ///< Projected-wait shed bound; 0 = off.
    std::uint32_t max_retries = 2;  ///< Re-dispatches per request.
    Tick backoff_base = 1024;       ///< Retry k waits base << k ticks...
    Tick retry_jitter = 512;        ///< ...plus seeded jitter in [0, j).
    std::uint32_t breaker_threshold = 3;  ///< Consecutive hard faults.
    Tick breaker_cooldown = 65536;  ///< Open-state quarantine ticks.
    Tick run_tick_budget = 10'000'000;  ///< Inner-run max_ticks bound.

    Status validate() const;

    bool operator==(const ServePolicy &) const = default;
};

/** One serving simulation: machine + mix + policy + load. */
struct ServeSpec {
    core::MachineConfig cfg;        ///< Fleet config; cfg.fault arms chaos.
    std::vector<RequestClass> classes;  ///< Request mix (>= 1 class).
    ServePolicy policy;
    std::uint64_t seed = 1;         ///< Arrival stream + retry jitter.
    double offered_load = 20000;    ///< Requests per simulated second.
    std::size_t num_requests = 64;  ///< Poisson stream length.
    std::vector<Arrival> trace;     ///< Non-empty: replay instead.

    /** Mean Poisson inter-arrival gap in PL ticks (>= 1). */
    Tick meanGapTicks() const;
};

/**
 * The structured outcome of one serving simulation. Every counter is
 * integer and the quantiles come from the integer histogram, so two
 * runs of the same spec compare byte-identical via toString() — which
 * is exactly what the chaos-serving smoke diffs across --jobs values.
 */
struct ServingReport {
    double offered_load = 0;        ///< Echo of the spec (curve label).
    std::uint64_t offered = 0;      ///< Arrivals presented.

    /** @{ Outcome census; sums to offered (the no-hang invariant). */
    std::uint64_t ok = 0;           ///< Completed, no retries needed.
    std::uint64_t retried = 0;      ///< Completed after >= 1 retry.
    std::uint64_t shed = 0;         ///< Refused at admission.
    std::uint64_t timeout = 0;      ///< Deadline expired (queued or late).
    std::uint64_t faulted = 0;      ///< Retries exhausted, or mismatched.
    /** @} */

    std::uint64_t retry_dispatches = 0;  ///< Re-enqueues performed.
    std::uint64_t runs = 0;              ///< Inner simulations executed.
    /** Programs compiled: exactly one per distinct (class, batch)
     *  dispatched, the serving memo's entry count. Not rendered by
     *  toString(). */
    std::uint64_t programs = 0;
    /** FP32 reference evaluations: one per memo entry on a functional
     *  fleet, none on a timing-only one. Not rendered by toString(). */
    std::uint64_t references = 0;
    /** Requests resolved faulted because their batch's outputs failed
     *  the accuracy contract (OutputMismatch): never retried, never
     *  counted toward a breaker. Not rendered by toString(). */
    std::uint64_t mismatched = 0;
    std::uint64_t faults_injected = 0;   ///< Across all inner runs.
    std::uint64_t machines_built = 0;    ///< Fleet builds (incl. rebuilds).
    std::uint64_t machines_reused = 0;   ///< reset()-path dispatches.
    std::uint64_t breaker_opened = 0;
    std::uint64_t breaker_half_opened = 0;
    std::uint64_t breaker_closed = 0;
    std::uint64_t pool_trimmed = 0;      ///< Buffers freed at quarantine.
    std::uint64_t max_queue_depth = 0;
    Tick horizon = 0;               ///< Tick the last request resolved.

    /** @{ Queue-to-completion latency of ok + retried requests. */
    Tick p50 = 0, p95 = 0, p99 = 0, max_latency = 0;
    /** @} */

    double goodput = 0;  ///< (ok + retried) per simulated second.

    std::uint64_t
    resolved() const
    {
        return ok + retried + shed + timeout + faulted;
    }
    std::uint64_t served() const { return ok + retried; }

    /** Stable multi-line rendering (the byte-compared artifact). */
    std::string toString() const;

    bool operator==(const ServingReport &) const = default;
};

/** Run one serving simulation to completion on the calling thread. */
ServingReport runServing(const ServeSpec &spec);

/**
 * Run several serving simulations (typically one per offered-load
 * point) across the executor's lanes; results in spec order. Each
 * simulation owns its fleet on its worker thread, so any --jobs value
 * produces bit-identical reports.
 */
std::vector<ServingReport> runServingSweep(
    const lib::SweepExecutor &ex, const std::vector<ServeSpec> &specs);

} // namespace rsn::serve

#endif // RSN_SERVE_SCHEDULER_HH
