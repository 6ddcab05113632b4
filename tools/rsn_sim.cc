/**
 * @file
 * rsn-sim: command-line driver for the RSN simulator.
 *
 * Usage:
 *   rsn-sim [options]
 *     --model bert|vit|ncf|mlp|tiny   workload (default bert)
 *     --batch N                       batch size (default 6)
 *     --seq N                         sequence length (default 512)
 *     --layers N                      encoder layers (default 1)
 *     --schedule opt|bw|noopt         optimization level (default opt)
 *     --no-fuse-qkv                   keep Q/K/V as separate GEMMs
 *     --bw-scale F                    scale both DRAM channels by F
 *     --functional                    carry FP32 data and self-check
 *     --isa NAME                      payload kernel table: avx512,
 *                                     avx2 (both x86), portable, or
 *                                     scalar (the exact reference);
 *                                     default is the best this CPU
 *                                     supports, or $RSN_ISA. Affects
 *                                     payload math only, never tick
 *                                     counts.
 *     --trace FILE                    record every FU's exact kernel
 *                                     spans and write them as Chrome
 *                                     trace JSON (ticks are unchanged)
 *     --plan                          print the segmentation plan
 *     --dot                           print the datapath as Graphviz DOT
 *     --instr                         print instruction statistics
 *     --fault-spec SPEC               arm fault injection; SPEC is
 *                                     "key=value,..." (sim/fault.hh) or
 *                                     the preset name "chaos"
 *     --fault-seed N                  seed for the fault schedule
 *     --sweep-batch LIST              sweep mode: run the model once per
 *                                     batch size in the comma-separated
 *                                     LIST (e.g. 1,2,3,6,12,24) and
 *                                     print one summary row per point
 *     --jobs N                        worker lanes for --sweep-batch
 *                                     (default 1; 0 = all hardware
 *                                     threads). Results are bit-
 *                                     identical for every N. --trace,
 *                                     --plan, --dot and --instr do not
 *                                     apply to a sweep.
 *
 * Exit codes (exitCode() below maps a run's Status to them):
 *   0  run completed (outputs verified when --functional)
 *   1  run completed but outputs mismatched the FP32 reference
 *   2  usage error (unknown flag / model / schedule / --isa name, a
 *      numeric value that is not wholly a number in its flag's range —
 *      --batch/--seq/--layers take integers >= 1, --jobs and
 *      --fault-seed integers >= 0, --bw-scale a number > 0 — or a
 *      single-run option combined with --sweep-batch); the reason goes
 *      to stderr
 *   3  invalid configuration (bad machine config or fault spec)
 *   4  run diagnosed: injected hard fault, deadlock, livelock, timeout
 *
 * Examples:
 *   rsn-sim --model bert --batch 6 --seq 512
 *   rsn-sim --model bert --schedule noopt --instr
 *   rsn-sim --model tiny --functional
 *   rsn-sim --model tiny --functional --fault-spec chaos --fault-seed 7
 *   rsn-sim --model bert --trace /tmp/rsn.json
 *   rsn-sim --model bert --sweep-batch 1,2,3,6,12,24 --jobs 8
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

#include <vector>

#include "common/log.hh"
#include "common/parse.hh"
#include "core/machine.hh"
#include "core/power.hh"
#include "fu/kernel_registry.hh"
#include "core/tracer.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"
#include "lib/runner.hh"
#include "lib/segmenter.hh"
#include "lib/sweep.hh"
#include "ref/ref_math.hh"

namespace {

struct Options {
    std::string model = "bert";
    std::uint32_t batch = 6;
    std::uint32_t seq = 512;
    std::uint32_t layers = 1;
    std::string schedule = "opt";
    bool fuse_qkv = true;
    double bw_scale = 1.0;
    bool functional = false;
    std::string isa;
    std::string trace_path;
    bool print_plan = false;
    bool print_dot = false;
    bool print_instr = false;
    std::string fault_spec;
    std::uint64_t fault_seed = 0;
    bool fault_seed_set = false;
    std::string sweep_batch;
    unsigned jobs = 1;  ///< 0 = all hardware threads.
};

/** Reject the command line with a named reason (exit 2). */
[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "rsn-sim: %s (see the header of tools/rsn_sim.cc for "
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

/** @p text as an integer >= 1 that fits 32 bits, or a usage error. */
std::uint32_t
parseCount(const std::string &flag, const std::string &text)
{
    return parseFlag<std::uint32_t>(flag, text, 1);
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
        if (a == "--model")
            o.model = next();
        else if (a == "--batch")
            o.batch = parseCount(a, next());
        else if (a == "--seq")
            o.seq = parseCount(a, next());
        else if (a == "--layers")
            o.layers = parseCount(a, next());
        else if (a == "--schedule")
            o.schedule = next();
        else if (a == "--no-fuse-qkv")
            o.fuse_qkv = false;
        else if (a == "--bw-scale") {
            const std::string text = next();
            o.bw_scale = parseFlag<double>(a, text);
            if (o.bw_scale <= 0)
                usage(a + " expects a factor > 0, got '" + text + "'");
        } else if (a == "--functional")
            o.functional = true;
        else if (a == "--isa")
            o.isa = next();
        else if (a == "--trace")
            o.trace_path = next();
        else if (a == "--plan")
            o.print_plan = true;
        else if (a == "--dot")
            o.print_dot = true;
        else if (a == "--instr")
            o.print_instr = true;
        else if (a == "--fault-spec")
            o.fault_spec = next();
        else if (a == "--fault-seed") {
            o.fault_seed = parseFlag<std::uint64_t>(a, next());
            o.fault_seed_set = true;
        } else if (a == "--sweep-batch")
            o.sweep_batch = next();
        else if (a == "--jobs")
            o.jobs = parseFlag<unsigned>(a, next());
        else
            usage("unknown option " + a);
    }
    if (!o.sweep_batch.empty() &&
        (!o.trace_path.empty() || o.print_plan || o.print_dot ||
         o.print_instr))
        usage("--trace, --plan, --dot and --instr do not apply to "
              "--sweep-batch");
    return o;
}

/** The exit code for a run or configuration outcome (see the header). */
int
exitCode(rsn::StatusCode code)
{
    switch (code) {
      case rsn::StatusCode::Ok: return 0;
      case rsn::StatusCode::OutputMismatch: return 1;
      case rsn::StatusCode::InvalidConfig: return 3;
      default: return 4;  // a diagnosed run: fault, deadlock, ...
    }
}

int runMain(const Options &o);

} // namespace

int
main(int argc, char **argv)
{
    Options o = parse(argc, argv);
    try {
        return runMain(o);
    } catch (const rsn::FatalError &) {
        // rsn_fatal: a user/config error, already reported on stderr.
        return exitCode(rsn::StatusCode::InvalidConfig);
    } catch (const std::runtime_error &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return exitCode(rsn::StatusCode::InvalidConfig);
    }
}

namespace {

int
runMain(const Options &o)
{
    using namespace rsn;

    if (!o.isa.empty()) {
        // Strict, unlike the RSN_ISA env fallback: an artifact told to
        // run a specific kernel table must not silently run another.
        Status st = kernel::select(o.isa);
        if (!st.ok()) {
            std::fprintf(stderr, "--isa %s: %s\n", o.isa.c_str(),
                         st.toString().c_str());
            return 2;
        }
    }

    const auto makeModel = [&](std::uint32_t batch) {
        lib::Model m;
        if (o.model == "bert")
            m = lib::bertLargeEncoder(batch, o.seq, o.fuse_qkv, o.layers);
        else if (o.model == "vit")
            m = lib::vitEncoder(batch, o.fuse_qkv, o.layers);
        else if (o.model == "ncf")
            m = lib::ncf(batch);
        else if (o.model == "mlp")
            m = lib::mlp(batch);
        else if (o.model == "tiny")
            m = lib::tinyEncoder(batch, 32, 64, 4, 128, o.fuse_qkv);
        else
            usage("unknown model " + o.model);
        return m;
    };
    lib::Model model = makeModel(o.batch);

    lib::ScheduleOptions sched;
    if (o.schedule == "opt")
        sched = lib::ScheduleOptions::optimized();
    else if (o.schedule == "bw")
        sched = lib::ScheduleOptions::bwOptimized();
    else if (o.schedule == "noopt")
        sched = lib::ScheduleOptions::noOptimize();
    else
        usage("unknown schedule " + o.schedule);

    auto cfg = core::MachineConfig::vck190(o.functional);
    if (o.bw_scale != 1.0) {
        cfg.ddr.read_gbps *= o.bw_scale;
        cfg.ddr.write_gbps *= o.bw_scale;
        cfg.lpddr.read_gbps *= o.bw_scale;
        cfg.lpddr.write_gbps *= o.bw_scale;
    }
    if (!o.fault_spec.empty()) {
        Status st;
        cfg.fault = sim::FaultSpec::parse(o.fault_spec, &st);
        if (!st.ok()) {
            std::fprintf(stderr, "%s\n", st.toString().c_str());
            return exitCode(st.code);
        }
    }
    if (o.fault_seed_set) {
        // A bare --fault-seed arms the chaos preset; with --fault-spec it
        // just overrides the spec's seed.
        if (o.fault_spec.empty())
            cfg.fault = sim::FaultSpec::chaosPreset(o.fault_seed);
        else
            cfg.fault.seed = o.fault_seed;
    }
    if (Status st = cfg.validate(); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.toString().c_str());
        return exitCode(st.code);
    }

    if (!o.sweep_batch.empty()) {
        // Sweep mode: one point per batch size, spread across --jobs
        // worker lanes. Every point is a full checked run (functional
        // verification included when --functional); outcomes and tick
        // counts are independent of the jobs value.
        std::vector<lib::SweepPoint> points;
        std::vector<std::uint32_t> batches;
        std::size_t pos = 0;
        while (pos < o.sweep_batch.size()) {
            std::size_t comma = o.sweep_batch.find(',', pos);
            if (comma == std::string::npos)
                comma = o.sweep_batch.size();
            const std::uint32_t batch = parseCount(
                "--sweep-batch", o.sweep_batch.substr(pos, comma - pos));
            batches.push_back(batch);
            points.push_back({cfg, makeModel(batch), sched, 2025});
            pos = comma + 1;
        }
        const lib::SweepExecutor executor(
            lib::SweepExecutor::resolveJobs(o.jobs));
        const auto runs = lib::runSweep(executor, points);

        std::printf("%s sweep, %s schedule, %u lanes\n", o.model.c_str(),
                    o.schedule.c_str(), executor.jobs());
        std::printf("  %8s %14s %12s %10s  %s\n", "batch", "ticks", "ms",
                    "tasks/s", "status");
        int rc = 0;
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const Status &st = runs[i].report.status;
            const auto &r = runs[i].report.result;
            const std::uint32_t batch = batches[i];
            rc = std::max(rc, exitCode(st.code));
            std::string what = st.ok() ? "ok"
                               : st.code == StatusCode::OutputMismatch
                                   ? "MISMATCH"
                                   : st.toString();
            // One line per point: a failed run's stall detail is cut.
            what.resize(std::min(what.size(), what.find('\n')));
            std::printf("  %8u %14llu %12.3f %10.1f  %s\n", batch,
                        (unsigned long long)r.ticks, r.ms,
                        r.ms > 0 ? batch / (r.ms / 1e3) : 0.0,
                        what.c_str());
        }
        return rc;
    }

    core::RsnMachine mach(cfg);

    if (o.print_plan) {
        lib::Segmenter seg(lib::PlatformBudget{});
        std::printf("%s\n", seg.plan(model).toString().c_str());
    }
    if (o.print_dot)
        std::printf("%s\n", mach.topology().toDot().c_str());

    auto compiled = lib::compileModel(mach, model, sched);
    if (o.print_instr) {
        std::printf("instructions: %zu packets, %llu bytes (uOPs: ",
                    compiled.program.size(),
                    (unsigned long long)compiled.program.totalBytes());
        Bytes uop_bytes = 0;
        for (int t = 0; t < kNumFuTypes; ++t)
            uop_bytes += compiled.program.expandedUopBytes(
                static_cast<FuType>(t));
        std::printf("%llu bytes, %.1fx compression)\n",
                    (unsigned long long)uop_bytes,
                    double(uop_bytes) / compiled.program.totalBytes());
    }

    if (!o.trace_path.empty())
        for (const auto &f : mach.fus())
            f->recordSpans(true);

    auto checked = lib::runModelChecked(mach, model, compiled, 2025);
    const auto &r = checked.report.result;
    const StatusCode code = checked.report.status.code;
    if (code != StatusCode::Ok && code != StatusCode::OutputMismatch) {
        std::printf("RUN DID NOT COMPLETE\n%s\n",
                    checked.report.toString().c_str());
        return exitCode(code);
    }

    std::printf("%s: %u x %u, %s schedule\n", model.name.c_str(),
                o.batch, o.seq, o.schedule.c_str());
    std::printf("  latency   : %.3f ms (%llu ticks @ 260 MHz)\n", r.ms,
                (unsigned long long)r.ticks);
    std::printf("  kernels   : %s\n", kernel::active().name);
    std::printf("  compute   : %.2f achieved TFLOPS (peak %.2f)\n",
                mach.achievedTflops(r), mach.peakTflops());
    std::printf("  DDR       : %.1f MB read, %.1f MB written (%.0f%% "
                "busy)\n",
                mach.ddrChannel().bytesRead() / 1e6,
                mach.ddrChannel().bytesWritten() / 1e6,
                100 * mach.ddrChannel().utilization(r.ticks));
    std::printf("  LPDDR     : %.1f MB read (%.0f%% busy)\n",
                mach.lpddrChannel().bytesRead() / 1e6,
                100 * mach.lpddrChannel().utilization(r.ticks));
    core::PowerModel power;
    std::printf("  power     : %.1f W operating / %.1f W dynamic\n",
                power.operatingWatts(mach, r),
                power.dynamicWatts(mach, r));

    if (mach.faultInjector()) {
        std::printf("  faults    : %llu injected and recovered (spec %s)\n",
                    (unsigned long long)checked.report.faults_injected,
                    cfg.fault.toString().c_str());
    }
    if (o.functional) {
        std::printf("  functional: %s\n",
                    checked.ok() ? "all tensors match the FP32 reference"
                                 : "MISMATCH");
        for (const auto &name : checked.mismatched)
            std::printf("    diverged: %s\n", name.c_str());
        if (!checked.ok())
            return exitCode(code);
    }
    if (!o.trace_path.empty()) {
        std::size_t spans = 0;
        for (const auto &f : mach.fus())
            spans += f->spans().size();
        std::ofstream out(o.trace_path);
        out << core::kernelSpansToChromeJson(mach);
        if (out)
            std::printf("  trace     : %s (%zu kernel spans; open in "
                        "chrome://tracing)\n",
                        o.trace_path.c_str(), spans);
        else
            std::printf("  trace     : FAILED to write %s\n",
                        o.trace_path.c_str());
    }
    return exitCode(code);
}

} // namespace
