/**
 * @file
 * Shared helpers for the benchmark harness: compile a model with given
 * schedule options, run it on a VCK190 machine, and return the
 * interesting aggregates. Every bench binary prints paper-reported
 * values alongside measured ones so the reproduction is auditable.
 *
 * Bench binaries run their data points through lib::SweepExecutor
 * (runSweepPoints below): each worker lane owns a cached machine that
 * is reset() between equal-config points instead of rebuilt, results
 * land in point order, and tick counts are bit-identical for every
 * --jobs value. Pass `--jobs N` (or RSN_JOBS=N; 0 = all hardware
 * threads) to any sweep bench; the default stays 1 so
 * paper-reproduction output is unchanged unless parallelism is asked
 * for.
 */

#ifndef RSN_BENCH_BENCH_UTIL_HH
#define RSN_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "core/machine.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"
#include "lib/schedule.hh"
#include "lib/sweep.hh"

namespace rsn::bench {

struct EncoderRun {
    Status status;
    core::RunResult result;
    double achieved_tflops = 0;
    double ddr_read_mb = 0;
    double ddr_write_mb = 0;
    double lpddr_read_mb = 0;
    std::size_t packets = 0;
    std::uint64_t mm_flops = 0;
};

/** One timing sweep point for runSweepPoints. */
struct SweepJob {
    lib::Model model;
    lib::ScheduleOptions opts;
    core::MachineConfig cfg = core::MachineConfig::vck190();
};

/**
 * Compile + run every job (timing-only) on the executor's lanes and
 * gather the aggregates every figure/table bench reports; results are
 * in job order regardless of --jobs.
 */
inline std::vector<EncoderRun>
runSweepPoints(const lib::SweepExecutor &ex,
               const std::vector<SweepJob> &jobs)
{
    return ex.map<EncoderRun>(
        jobs.size(), [&](lib::SweepLane &lane, std::size_t i) {
            core::RsnMachine &mach = lane.machine(jobs[i].cfg);
            const auto compiled =
                lib::compileModel(mach, jobs[i].model, jobs[i].opts);
            const core::RunReport rep = mach.runChecked(compiled.program);
            if (!rep.ok())
                std::fprintf(stderr, "run did not complete:\n%s\n",
                             rep.status.message.c_str());
            EncoderRun out;
            out.status = rep.status;
            out.result = rep.result;
            out.achieved_tflops = mach.achievedTflops(rep.result);
            out.ddr_read_mb = mach.ddrChannel().bytesRead() / 1e6;
            out.ddr_write_mb = mach.ddrChannel().bytesWritten() / 1e6;
            out.lpddr_read_mb = mach.lpddrChannel().bytesRead() / 1e6;
            out.packets = compiled.program.size();
            out.mm_flops = compiled.mm_flops;
            return out;
        });
}

/**
 * Parse the sweep-parallelism request for a bench binary: `--jobs N` or
 * `--jobs=N` on the command line wins, else the RSN_JOBS environment
 * variable, else 1 (sequential — the paper-reproduction default). 0
 * means every hardware thread; a value that is not wholly an integer
 * >= 0 exits 2 naming its source. Unrelated arguments are ignored, so
 * benches can keep their existing flag handling.
 */
inline unsigned
benchJobs(int argc, char **argv)
{
    unsigned requested = 1;
    const auto parse = [&requested](const char *what, const char *text) {
        if (Status st = parseNumber(what, text, requested); !st.ok()) {
            std::fprintf(stderr, "%s\n", st.message.c_str());
            std::exit(2);
        }
    };
    if (const char *env = std::getenv("RSN_JOBS"))
        parse("RSN_JOBS", env);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc)
            parse("--jobs", argv[i + 1]);
        else if (std::strncmp(argv[i], "--jobs=", 7) == 0)
            parse("--jobs", argv[i] + 7);
    }
    return lib::SweepExecutor::resolveJobs(requested);
}

/** A single linear-layer model (for per-segment experiments). */
inline lib::Model
linearModel(const std::string &name, std::uint32_t m, std::uint32_t k,
            std::uint32_t n, bool bias, bool gelu = false,
            bool layernorm = false, bool residual = false)
{
    lib::Model mod;
    mod.name = name;
    mod.input_rows = m;
    mod.input_cols = k;
    lib::LinearLayer l;
    l.name = name;
    l.m = m;
    l.k = k;
    l.n = n;
    l.bias = bias;
    l.gelu = gelu;
    l.layernorm = layernorm;
    l.residual = residual && k == n;
    l.in_src = "input";
    if (l.residual)
        l.residual_src = "input";
    l.out_name = "out";
    mod.segments.emplace_back(l);
    return mod;
}

/** A standalone attention model reading fused Q/K/V from the input. */
inline lib::Model
attentionModel(std::uint32_t batch, std::uint32_t seq,
               std::uint32_t heads_per_batch, std::uint32_t dhead)
{
    lib::Model mod;
    mod.name = "attention";
    const std::uint32_t hidden = heads_per_batch * dhead;
    mod.input_rows = batch * seq;
    mod.input_cols = 3 * hidden;
    lib::AttentionBlock a;
    a.name = "attention";
    a.heads = batch * heads_per_batch;
    a.heads_per_batch = heads_per_batch;
    a.seq = seq;
    a.dhead = dhead;
    a.q_src = a.k_src = a.v_src = "input";
    a.q_col_off = 0;
    a.k_col_off = hidden;
    a.v_col_off = 2 * hidden;
    a.out_name = "out";
    mod.segments.emplace_back(a);
    return mod;
}

} // namespace rsn::bench

#endif // RSN_BENCH_BENCH_UTIL_HH
