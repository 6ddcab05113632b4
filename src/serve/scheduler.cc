#include "serve/scheduler.hh"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <queue>
#include <utility>

#include "common/log.hh"
#include "lib/codegen.hh"
#include "lib/runner.hh"
#include "lib/schedule.hh"

namespace rsn::serve {

Status
ServePolicy::validate() const
{
    auto invalid = [](std::string msg) {
        return Status::error(StatusCode::InvalidConfig, std::move(msg));
    };
    if (fleet < 1)
        return invalid("serve fleet must be >= 1 machine");
    if (max_batch < 1)
        return invalid("serve max_batch must be >= 1");
    if (queue_capacity < 1)
        return invalid("serve queue_capacity must be >= 1");
    if (breaker_threshold < 1)
        return invalid("serve breaker_threshold must be >= 1");
    if (breaker_cooldown < 1)
        return invalid("serve breaker_cooldown must be >= 1 tick");
    if (backoff_base < 1)
        return invalid("serve backoff_base must be >= 1 tick");
    if (run_tick_budget < 1)
        return invalid("serve run_tick_budget must be >= 1 tick");
    return Status::success();
}

Tick
ServeSpec::meanGapTicks() const
{
    rsn_assert(offered_load > 0, "offered load must be positive");
    const double gap = kPlHz / offered_load;
    return gap < 1 ? Tick(1) : Tick(gap);
}

std::string
ServingReport::toString() const
{
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "serving load=%.6g req/s offered=%llu\n"
        "  outcomes: ok=%llu retried=%llu shed=%llu timeout=%llu "
        "faulted=%llu (resolved=%llu)\n"
        "  latency ticks: p50=%llu p95=%llu p99=%llu max=%llu\n"
        "  queue: max_depth=%llu horizon=%llu goodput=%.6g req/s\n"
        "  fleet: runs=%llu built=%llu reused=%llu retries=%llu "
        "faults_injected=%llu\n"
        "  breaker: opened=%llu half_opened=%llu closed=%llu "
        "pool_trimmed=%llu\n",
        offered_load, (unsigned long long)offered,
        (unsigned long long)ok, (unsigned long long)retried,
        (unsigned long long)shed, (unsigned long long)timeout,
        (unsigned long long)faulted, (unsigned long long)resolved(),
        (unsigned long long)p50, (unsigned long long)p95,
        (unsigned long long)p99, (unsigned long long)max_latency,
        (unsigned long long)max_queue_depth, (unsigned long long)horizon,
        goodput, (unsigned long long)runs,
        (unsigned long long)machines_built,
        (unsigned long long)machines_reused,
        (unsigned long long)retry_dispatches,
        (unsigned long long)faults_injected,
        (unsigned long long)breaker_opened,
        (unsigned long long)breaker_half_opened,
        (unsigned long long)breaker_closed,
        (unsigned long long)pool_trimmed);
    return buf;
}

namespace {

/**
 * The whole simulation state for one runServing call. Single-threaded
 * by construction: the fleet's SweepLanes (and so their machines and
 * this thread's TilePool) live and die on the calling thread, which is
 * what lets runServingSweep hand one simulation per executor lane.
 */
class ServingSim
{
  public:
    explicit ServingSim(const ServeSpec &spec) : spec_(spec)
    {
        const Status pv = spec_.policy.validate();
        rsn_assert(pv.ok(), "invalid serve policy: %s",
                   pv.toString().c_str());
        rsn_assert(!spec_.classes.empty(),
                   "serving needs >= 1 request class");
        for (std::size_t i = 0; i < spec_.policy.fleet; ++i)
            slots_.emplace_back(i);
        queues_.resize(spec_.classes.size());
        linger_pending_.assign(spec_.classes.size(), kTickMax);
    }

    ServingReport run();

  private:
    enum class EvKind : std::uint8_t {
        Arrival,     ///< a = request id.
        Expiry,      ///< a = request id (deadline).
        Linger,      ///< a = class index (batch head aged out).
        Retry,       ///< a = request id (backoff elapsed).
        Completion,  ///< a = slot index (its flight finished).
        HalfOpen,    ///< a = slot index (breaker cooldown elapsed).
    };

    struct Event {
        Tick tick = 0;
        std::uint64_t seq = 0;  ///< Push order: total, stable tie-break.
        EvKind kind = EvKind::Arrival;
        std::uint64_t a = 0;
    };
    struct EventAfter {
        bool
        operator()(const Event &x, const Event &y) const
        {
            return x.tick != y.tick ? x.tick > y.tick : x.seq > y.seq;
        }
    };

    struct Request {
        std::uint32_t cls = 0;
        Tick arrival = 0;
        std::uint32_t attempts = 0;  ///< Dispatches so far.
        bool ever_retried = false;
        enum class St : std::uint8_t {
            Pending,   ///< Not yet arrived.
            Queued,    ///< In its class queue.
            Waiting,   ///< Backing off before a retry.
            InFlight,  ///< In a dispatched batch.
            Resolved,
        } st = St::Pending;
    };

    /** One dispatched batch awaiting its completion event. */
    struct Flight {
        std::vector<std::uint64_t> reqs;
        StatusCode status = StatusCode::Ok;  ///< The inner run's outcome.
        bool probe = false;
        Tick ticks = 1;
    };

    struct Slot {
        explicit Slot(std::size_t i) : lane(i) {}
        lib::SweepLane lane;
        enum class St : std::uint8_t {
            Idle,
            Busy,
            Open,      ///< Breaker open: quarantined, machine discarded.
            HalfOpen,  ///< Cooldown over: next dispatch is a probe.
        } st = St::Idle;
        std::uint32_t consec_hard = 0;  ///< Consecutive hard-fault runs.
        Flight flight;  ///< The batch in flight while Busy.
    };

    /** Everything a dispatch of one (class, batch) needs before it
     *  runs. All of it is a pure function of the key: the lane machines
     *  share the spec config apart from the fault seed, and every
     *  dispatch checks the same data seed. */
    struct Memo {
        lib::CompiledModel compiled;
        lib::SeededImage image;  ///< Captured before any run.
        /** The reference with its tolerances; empty on a timing-only
         *  fleet. */
        lib::Expectations expect;
    };

    enum class Outcome : std::uint8_t { Ok, Shed, Timeout, Faulted };

    void
    push(Tick tick, EvKind kind, std::uint64_t a)
    {
        events_.push({tick, event_seq_++, kind, a});
    }

    void
    resolve(std::uint64_t rid, Outcome o, Tick now)
    {
        Request &r = reqs_[rid];
        rsn_assert(r.st != Request::St::Resolved,
                   "request resolved twice");
        r.st = Request::St::Resolved;
        ++resolved_;
        if (now > rep_.horizon)
            rep_.horizon = now;
        switch (o) {
          case Outcome::Ok:
            ++(r.ever_retried ? rep_.retried : rep_.ok);
            hist_.record(now - r.arrival);
            break;
          case Outcome::Shed: ++rep_.shed; break;
          case Outcome::Timeout: ++rep_.timeout; break;
          case Outcome::Faulted: ++rep_.faulted; break;
        }
    }

    void
    enqueue(std::uint64_t rid, Tick now)
    {
        Request &r = reqs_[rid];
        r.st = Request::St::Queued;
        queues_[r.cls].push_back(rid);
        ++queued_total_;
        if (queued_total_ > rep_.max_queue_depth)
            rep_.max_queue_depth = queued_total_;
        tryDispatch(now);
    }

    /** Admission control: full queue or projected wait over watermark. */
    bool
    shouldShed() const
    {
        const ServePolicy &p = spec_.policy;
        if (queued_total_ >= p.queue_capacity)
            return true;
        if (p.shed_wait_watermark == 0 || est_service_ == 0)
            return false;
        std::uint64_t active = 0;
        for (const Slot &s : slots_)
            if (s.st != Slot::St::Open)
                ++active;
        if (active == 0)
            active = 1;
        const std::uint64_t batches =
            queued_total_ / p.max_batch + 1;
        return est_service_ * batches / active > p.shed_wait_watermark;
    }

    void onArrival(std::uint64_t rid, Tick now);
    void onExpiry(std::uint64_t rid, Tick now);
    void onCompletion(std::uint64_t slot, Tick now);
    void onHalfOpen(std::uint64_t slot, Tick now);
    void tryDispatch(Tick now);
    void dispatch(Tick now, std::size_t slot, std::uint32_t cls,
                  std::uint32_t cap);
    void openBreaker(std::size_t slot, Tick now);
    /** Put the (cls, n) program and its seeded image on @p mach, which
     *  lane reset left pristine: the first dispatch of a key compiles,
     *  seeds and evaluates the reference into memo_; every later one
     *  restores from it. */
    const Memo &prepare(std::uint32_t cls, std::uint32_t n,
                        core::RsnMachine &mach);

    /** Every dispatch checks the same data seed, so a dispatch's
     *  reference is a function of its (class, batch) alone. */
    static constexpr std::uint32_t kDataSeed = 2025;

    const ServeSpec &spec_;
    ServingReport rep_;
    LatencyHistogram hist_;
    std::vector<Request> reqs_;
    std::deque<Slot> slots_;  ///< deque: SweepLane is immovable.
    std::vector<std::deque<std::uint64_t>> queues_;
    std::vector<Tick> linger_pending_;  ///< Earliest pending, per class.
    std::priority_queue<Event, std::vector<Event>, EventAfter> events_;
    std::uint64_t event_seq_ = 0;
    std::uint64_t dispatch_seq_ = 0;
    std::uint64_t queued_total_ = 0;
    std::uint64_t resolved_ = 0;
    Tick est_service_ = 0;  ///< Integer EWMA of observed run ticks.
    /** Per (class, batch), filled by the first dispatch of a key.
     *  Scoped to this simulation (docs/datapath.md, "Serving memo"). */
    std::map<std::pair<std::uint32_t, std::uint32_t>, Memo> memo_;
};

void
ServingSim::onArrival(std::uint64_t rid, Tick now)
{
    if (shouldShed()) {
        resolve(rid, Outcome::Shed, now);
        return;
    }
    if (spec_.policy.deadline)
        push(now + spec_.policy.deadline, EvKind::Expiry, rid);
    enqueue(rid, now);
}

void
ServingSim::onExpiry(std::uint64_t rid, Tick now)
{
    Request &r = reqs_[rid];
    if (r.st != Request::St::Queued)
        return;  // In flight (judged at completion) or already resolved.
    auto &q = queues_[r.cls];
    q.erase(std::find(q.begin(), q.end(), rid));
    --queued_total_;
    resolve(rid, Outcome::Timeout, now);
}

void
ServingSim::openBreaker(std::size_t slot, Tick now)
{
    Slot &s = slots_[slot];
    ++rep_.breaker_opened;
    rep_.pool_trimmed += s.lane.discard();
    s.st = Slot::St::Open;
    s.consec_hard = 0;
    push(now + spec_.policy.breaker_cooldown, EvKind::HalfOpen, slot);
}

void
ServingSim::onHalfOpen(std::uint64_t slot, Tick now)
{
    Slot &s = slots_[slot];
    rsn_assert(s.st == Slot::St::Open, "half-open of a non-open slot");
    s.st = Slot::St::HalfOpen;
    ++rep_.breaker_half_opened;
    tryDispatch(now);
}

void
ServingSim::onCompletion(std::uint64_t slot, Tick now)
{
    Slot &s = slots_[slot];
    const Flight &f = s.flight;
    const ServePolicy &p = spec_.policy;
    est_service_ =
        est_service_ ? (est_service_ * 7 + f.ticks) / 8 : f.ticks;

    if (f.status == StatusCode::Ok ||
        f.status == StatusCode::OutputMismatch) {
        // The run completed, so the slot is healthy. A mismatch is a
        // verification failure, not a hard fault: its (class, batch)
        // replays the same program on the same image, so a retry would
        // fail the same way. Its requests resolve faulted at once.
        for (std::uint64_t rid : f.reqs) {
            const Request &r = reqs_[rid];
            if (f.status == StatusCode::OutputMismatch) {
                ++rep_.mismatched;
                resolve(rid, Outcome::Faulted, now);
            } else if (p.deadline && now > r.arrival + p.deadline) {
                resolve(rid, Outcome::Timeout, now);
            } else {
                resolve(rid, Outcome::Ok, now);
            }
        }
        s.consec_hard = 0;
        if (f.probe)
            ++rep_.breaker_closed;
        s.st = Slot::St::Idle;
        tryDispatch(now);
        return;
    }

    // Failed run: bounded retry with exponential backoff + seeded
    // jitter per request; the machine is left non-resettable, so the
    // slot's next dispatch rebuilds it (or the breaker discards it).
    for (std::uint64_t rid : f.reqs) {
        Request &r = reqs_[rid];
        if (r.attempts > p.max_retries) {
            resolve(rid, Outcome::Faulted, now);
            continue;
        }
        const std::uint32_t k = r.attempts - 1;
        const Tick backoff = p.backoff_base << (k < 20 ? k : 20);
        const Tick jitter =
            p.retry_jitter
                ? mix64(spec_.seed ^ 0x5245545259ull ^
                        (rid << 20) ^ r.attempts) % p.retry_jitter
                : 0;
        const Tick at = now + backoff + jitter;
        if (p.deadline && at > r.arrival + p.deadline) {
            resolve(rid, Outcome::Timeout, now);
            continue;
        }
        r.st = Request::St::Waiting;
        r.ever_retried = true;
        ++rep_.retry_dispatches;
        push(at, EvKind::Retry, rid);
    }

    if (f.status == StatusCode::FaultDiagnosed)
        ++s.consec_hard;
    if (f.probe || s.consec_hard >= p.breaker_threshold) {
        // A failed probe reopens immediately; a closed slot opens once
        // the consecutive hard-fault threshold trips.
        openBreaker(slot, now);
    } else {
        s.st = Slot::St::Idle;
    }
    tryDispatch(now);
}

void
ServingSim::tryDispatch(Tick now)
{
    const ServePolicy &p = spec_.policy;
    for (std::size_t si = 0; si < slots_.size(); ++si) {
        if (queued_total_ == 0)
            return;
        Slot &s = slots_[si];
        const bool probe = s.st == Slot::St::HalfOpen;
        if (s.st != Slot::St::Idle && !probe)
            continue;
        const std::uint32_t cap = probe ? 1 : p.max_batch;

        // Oldest-head class wins; readiness (a full batch, an aged
        // head, or a probe) beats age so a ready class is never held
        // behind a lingering one.
        std::size_t best = queues_.size();
        Tick best_arr = kTickMax;
        bool best_ready = false;
        for (std::size_t c = 0; c < queues_.size(); ++c) {
            if (queues_[c].empty())
                continue;
            const Tick head = reqs_[queues_[c].front()].arrival;
            const bool ready = probe || queues_[c].size() >= cap ||
                               now >= head + p.batch_linger;
            if (best == queues_.size() || (ready && !best_ready) ||
                (ready == best_ready && head < best_arr)) {
                best = c;
                best_arr = head;
                best_ready = ready;
            }
        }
        if (best == queues_.size())
            return;  // Nothing queued (can't happen: queued_total_ > 0).
        if (!best_ready) {
            // Give the head a chance to collect batchmates: wake when
            // its linger expires (deduped per class).
            const Tick at = best_arr + p.batch_linger;
            if (linger_pending_[best] > at) {
                linger_pending_[best] = at;
                push(at, EvKind::Linger, best);
            }
            continue;  // A later half-open slot may still probe.
        }
        dispatch(now, si, static_cast<std::uint32_t>(best), cap);
    }
}

void
ServingSim::dispatch(Tick now, std::size_t slot, std::uint32_t cls,
                     std::uint32_t cap)
{
    Slot &s = slots_[slot];
    auto &q = queues_[cls];
    const std::uint32_t n =
        static_cast<std::uint32_t>(std::min<std::size_t>(cap, q.size()));
    Flight &f = s.flight;
    f.probe = s.st == Slot::St::HalfOpen;
    f.reqs.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint64_t rid = q.front();
        q.pop_front();
        --queued_total_;
        reqs_[rid].st = Request::St::InFlight;
        ++reqs_[rid].attempts;
        f.reqs.push_back(rid);
    }
    s.st = Slot::St::Busy;

    // Per-dispatch fault-seed salting: one chaos seed drives the whole
    // fleet, each batch replaying its own schedule. The lane absorbs
    // the new seed on its reset() path (no rebuild).
    core::MachineConfig cfg = spec_.cfg;
    if (cfg.fault.enabled())
        cfg.fault.seed =
            mix64(spec_.cfg.fault.seed ^ (dispatch_seq_ + 1));
    ++dispatch_seq_;

    core::RsnMachine &mach = s.lane.machine(cfg);
    const Memo &m = prepare(cls, n, mach);
    const lib::CheckedRun cr = lib::runVerified(
        mach, m.compiled, m.expect, spec_.policy.run_tick_budget);
    ++rep_.runs;
    rep_.faults_injected += cr.report.faults_injected;
    f.status = cr.report.status.code;
    f.ticks = cr.report.result.ticks ? cr.report.result.ticks : 1;
    push(now + f.ticks, EvKind::Completion, slot);
}

const ServingSim::Memo &
ServingSim::prepare(std::uint32_t cls, std::uint32_t n,
                    core::RsnMachine &mach)
{
    auto [it, miss] = memo_.try_emplace({cls, n});
    Memo &m = it->second;
    if (!miss) {
        lib::restoreTensors(mach, m.compiled, m.image);
        return m;
    }
    const lib::Model model = spec_.classes[cls].build(n);
    m.compiled =
        lib::compileModel(mach, model, lib::ScheduleOptions::optimized());
    ++rep_.programs;
    lib::initTensors(mach, m.compiled, kDataSeed);
    m.image = lib::captureSeeded(mach, m.compiled);
    if (mach.host().functional()) {
        m.expect = lib::expectations(
            lib::referenceForward(mach, model, m.compiled),
            mach.config().precision);
        ++rep_.references;
    }
    return m;
}

ServingReport
ServingSim::run()
{
    const std::vector<Arrival> arrivals =
        spec_.trace.empty()
            ? poissonArrivals(spec_.seed, spec_.meanGapTicks(),
                              spec_.num_requests, spec_.classes)
            : spec_.trace;
    rep_.offered_load = spec_.offered_load;
    rep_.offered = arrivals.size();

    reqs_.resize(arrivals.size());
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        reqs_[i].cls = arrivals[i].cls;
        reqs_[i].arrival = arrivals[i].tick;
        push(arrivals[i].tick, EvKind::Arrival, i);
    }

    while (!events_.empty()) {
        const Event ev = events_.top();
        events_.pop();
        switch (ev.kind) {
          case EvKind::Arrival: onArrival(ev.a, ev.tick); break;
          case EvKind::Expiry: onExpiry(ev.a, ev.tick); break;
          case EvKind::Linger:
            linger_pending_[ev.a] = kTickMax;
            tryDispatch(ev.tick);
            break;
          case EvKind::Retry: enqueue(ev.a, ev.tick); break;
          case EvKind::Completion: onCompletion(ev.a, ev.tick); break;
          case EvKind::HalfOpen: onHalfOpen(ev.a, ev.tick); break;
        }
    }

    // The no-hang invariant: the event loop drained, so every admitted
    // request must have resolved to exactly one outcome.
    rsn_assert(resolved_ == rep_.offered,
               "%llu of %llu requests left unresolved",
               (unsigned long long)(rep_.offered - resolved_),
               (unsigned long long)rep_.offered);
    rsn_assert(queued_total_ == 0, "queued requests after drain");

    rep_.p50 = hist_.p50();
    rep_.p95 = hist_.p95();
    rep_.p99 = hist_.p99();
    rep_.max_latency = hist_.max();
    for (const Slot &s : slots_) {
        rep_.machines_built += s.lane.machinesBuilt();
        rep_.machines_reused += s.lane.machinesReused();
    }
    if (rep_.horizon > 0)
        rep_.goodput = double(rep_.served()) * kPlHz / double(rep_.horizon);
    return rep_;
}

} // namespace

ServingReport
runServing(const ServeSpec &spec)
{
    return ServingSim(spec).run();
}

std::vector<ServingReport>
runServingSweep(const lib::SweepExecutor &ex,
                const std::vector<ServeSpec> &specs)
{
    return ex.map<ServingReport>(
        specs.size(), [&](lib::SweepLane &, std::size_t i) {
            // The executor lane's machine cache is deliberately unused:
            // a serving simulation owns its whole fleet (and so this
            // worker thread's TilePool) for its duration, which is what
            // makes the report independent of the jobs value.
            return runServing(specs[i]);
        });
}

} // namespace rsn::serve
