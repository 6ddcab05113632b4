/**
 * @file
 * rsn-serve: fault-tolerant serving harness driver (serve/scheduler.hh).
 *
 * Runs one open-loop serving simulation per offered-load point — seeded
 * Poisson (or trace-replay) arrivals of mixed tiny-encoder request
 * classes onto a fixed fleet of lane-cached machines — and prints each
 * point's ServingReport. Points are spread across --jobs worker lanes;
 * the printed bytes are identical for every jobs value (the chaos
 * smoke in tools/smoke.sh diffs jobs=1 against jobs=4).
 *
 * Usage:
 *   rsn-serve [options]
 *     --load LIST            offered loads in requests per simulated
 *                            second, comma-separated (default 20000)
 *     --requests N           Poisson stream length (default 64)
 *     --seed N               arrival/jitter seed (default 1)
 *     --jobs N               worker lanes across load points (default
 *                            1; 0 = all hardware threads)
 *     --fleet N              machine slots (default 2)
 *     --max-batch N          requests co-batched per run (default 4)
 *     --linger T             batch head wait in ticks (default 4096)
 *     --deadline T           per-request deadline in ticks (0 = off)
 *     --queue-cap N          queued requests before shedding (def. 256)
 *     --watermark T          projected-wait shed bound in ticks (0=off)
 *     --retries N            max re-dispatches per request (default 2)
 *     --backoff T            retry backoff base in ticks (default 1024)
 *     --jitter T             retry jitter bound in ticks (default 512)
 *     --breaker-threshold N  consecutive hard faults to open (def. 3)
 *     --breaker-cooldown T   open-state ticks before half-open (65536)
 *     --budget T             per-run tick budget (default 10000000)
 *     --timing-only          skip FP32 payloads + output verification
 *     --fault-spec SPEC      arm fault injection ("key=value,..." per
 *                            sim/fault.hh, or the preset name "chaos")
 *     --fault-seed N         chaos seed; each dispatch salts it
 *     --trace FILE           replay arrivals from FILE ("<tick> <cls>"
 *                            per line) instead of the Poisson stream
 *
 * Exit codes:
 *   0  every load point drained (all requests resolved)
 *   2  usage error (unknown flag, a missing value, a load that is not
 *      a number > 0, or a numeric value that is not wholly an integer
 *      of its field's type); the reason goes to stderr
 *   3  invalid configuration (machine config, fault spec, policy, trace)
 *
 * Examples:
 *   rsn-serve --load 10000,20000,40000 --requests 128 --jobs 4
 *   rsn-serve --fault-seed 7 --deadline 2000000 --load 30000
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/log.hh"
#include "common/parse.hh"
#include "core/machine.hh"
#include "lib/sweep.hh"
#include "serve/scheduler.hh"

namespace {

struct Options {
    std::string loads = "20000";
    std::size_t requests = 64;
    std::uint64_t seed = 1;
    unsigned jobs = 1;  ///< 0 = all hardware threads.
    rsn::serve::ServePolicy policy;
    bool timing_only = false;
    std::string fault_spec;
    std::uint64_t fault_seed = 0;
    bool fault_seed_set = false;
    std::string trace_path;
};

/** Reject the command line with a named reason (exit 2). */
[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "rsn-serve: %s (see the header of tools/rsn_serve.cc for "
                 "usage)\n",
                 why.c_str());
    std::exit(2);
}

/** @p text, whole, as a T in [lo, hi], or a usage error naming
 *  @p flag (common/parse.hh). */
template <typename T>
T
parseFlag(const std::string &flag, const std::string &text,
          T lo = std::numeric_limits<T>::lowest(),
          T hi = std::numeric_limits<T>::max())
{
    T v{};
    if (rsn::Status st = rsn::parseNumber(flag, text, v, lo, hi); !st.ok())
        usage(st.message);
    return v;
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage(a + " needs a value");
            return argv[i];
        };
        // Parse the next value as the type of @p field.
        auto num = [&](auto &field) {
            field = parseFlag<std::remove_reference_t<decltype(field)>>(
                a, next());
        };
        if (a == "--load")
            o.loads = next();
        else if (a == "--requests")
            num(o.requests);
        else if (a == "--seed")
            num(o.seed);
        else if (a == "--jobs")
            num(o.jobs);
        else if (a == "--fleet")
            num(o.policy.fleet);
        else if (a == "--max-batch")
            num(o.policy.max_batch);
        else if (a == "--linger")
            num(o.policy.batch_linger);
        else if (a == "--deadline")
            num(o.policy.deadline);
        else if (a == "--queue-cap")
            num(o.policy.queue_capacity);
        else if (a == "--watermark")
            num(o.policy.shed_wait_watermark);
        else if (a == "--retries")
            num(o.policy.max_retries);
        else if (a == "--backoff")
            num(o.policy.backoff_base);
        else if (a == "--jitter")
            num(o.policy.retry_jitter);
        else if (a == "--breaker-threshold")
            num(o.policy.breaker_threshold);
        else if (a == "--breaker-cooldown")
            num(o.policy.breaker_cooldown);
        else if (a == "--budget")
            num(o.policy.run_tick_budget);
        else if (a == "--timing-only")
            o.timing_only = true;
        else if (a == "--fault-spec")
            o.fault_spec = next();
        else if (a == "--fault-seed") {
            num(o.fault_seed);
            o.fault_seed_set = true;
        } else if (a == "--trace")
            o.trace_path = next();
        else
            usage("unknown option " + a);
    }
    return o;
}

int
runMain(const Options &o)
{
    using namespace rsn;

    serve::ServeSpec base;
    base.cfg = core::MachineConfig::vck190(
        /*functional=*/!o.timing_only);
    base.classes = serve::defaultClasses();
    base.policy = o.policy;
    base.seed = o.seed;
    base.num_requests = o.requests;

    if (!o.fault_spec.empty()) {
        Status st;
        base.cfg.fault = sim::FaultSpec::parse(o.fault_spec, &st);
        if (!st.ok()) {
            std::fprintf(stderr, "%s\n", st.toString().c_str());
            return 3;
        }
    }
    if (o.fault_seed_set) {
        // Like rsn-sim: a bare --fault-seed arms the chaos preset; with
        // --fault-spec it overrides that spec's seed.
        if (o.fault_spec.empty())
            base.cfg.fault = sim::FaultSpec::chaosPreset(o.fault_seed);
        else
            base.cfg.fault.seed = o.fault_seed;
    }
    if (Status st = base.cfg.validate(); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.toString().c_str());
        return 3;
    }
    if (Status st = base.policy.validate(); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.toString().c_str());
        return 3;
    }

    if (!o.trace_path.empty()) {
        std::ifstream in(o.trace_path);
        if (!in) {
            std::fprintf(stderr, "cannot read trace %s\n",
                         o.trace_path.c_str());
            return 3;
        }
        std::ostringstream text;
        text << in.rdbuf();
        Status st;
        base.trace = serve::parseTrace(text.str(), base.classes.size(),
                                       &st);
        if (!st.ok()) {
            std::fprintf(stderr, "%s\n", st.toString().c_str());
            return 3;
        }
    }

    std::vector<serve::ServeSpec> specs;
    std::size_t pos = 0;
    while (pos < o.loads.size()) {
        std::size_t comma = o.loads.find(',', pos);
        if (comma == std::string::npos)
            comma = o.loads.size();
        const std::string text = o.loads.substr(pos, comma - pos);
        const double load = parseFlag<double>("--load", text);
        if (load <= 0)
            usage("--load expects loads > 0, got '" + text + "'");
        serve::ServeSpec s = base;
        s.offered_load = load;
        specs.push_back(std::move(s));
        pos = comma + 1;
    }

    const lib::SweepExecutor executor(
        lib::SweepExecutor::resolveJobs(o.jobs));
    const auto reports = serve::runServingSweep(executor, specs);

    // The lane count goes to stderr: stdout is the determinism artifact
    // tools/smoke.sh byte-compares across --jobs values, and lanes are
    // the one input allowed to differ.
    std::fprintf(stderr, "rsn-serve: %u lane%s\n", executor.jobs(),
                 executor.jobs() == 1 ? "" : "s");
    std::printf("rsn-serve: %zu load point%s, fleet=%zu\n", specs.size(),
                specs.size() == 1 ? "" : "s", base.policy.fleet);
    for (const auto &rep : reports)
        std::printf("%s", rep.toString().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parse(argc, argv);
    try {
        return runMain(o);
    } catch (const rsn::FatalError &) {
        return 3;  // rsn_fatal already reported it on stderr
    } catch (const std::runtime_error &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 3;
    }
}
