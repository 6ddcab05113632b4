/**
 * @file
 * pcsample: a statistical program-counter sampler to LD_PRELOAD into any
 * binary, for attributing host time where gprof cannot (gprof's mcount
 * instrumentation does not survive LTO, and LTO is how every benchmark
 * here is built).
 *
 * On load it arms ITIMER_PROF; each SIGPROF records the interrupted
 * thread's instruction pointer into a fixed buffer (no allocation, no
 * locks in the handler). At exit it writes `pcsample.<pid>` in the
 * working directory: one hex PC per line, then a `--- maps` line and a
 * copy of /proc/self/maps, which is all tools/pcsample.py needs to
 * resolve the samples against the binary and its shared libraries.
 *
 * The timer asks for 1000 samples per second of CPU time, but the kernel
 * delivers profiling signals on its tick (jiffy), so the real rate is
 * CONFIG_HZ: about 250 per second on a typical x86-64 host. A few
 * seconds of run give a few hundred samples, enough for layers above
 * about 2%.
 *
 * Build and use (x86-64 Linux):
 *
 *   g++ -O2 -shared -fPIC -o pcsample.so tools/pcsample.cc
 *   LD_PRELOAD=$PWD/pcsample.so .bench_build/perfbench --workload sweep \
 *       --seed 1 --seconds 10 --trace 0
 *   python3 tools/pcsample.py pcsample.<pid>
 */

#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>

namespace {

constexpr std::size_t kMaxSamples = std::size_t(1) << 20;
std::uintptr_t g_pcs[kMaxSamples];
std::atomic<std::size_t> g_count{0};

void
onProf(int, siginfo_t *, void *ctx)
{
    const auto *uc = static_cast<const ucontext_t *>(ctx);
    const std::size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
    if (i < kMaxSamples)
        g_pcs[i] = std::uintptr_t(uc->uc_mcontext.gregs[REG_RIP]);
}

void
setTimer(long usec)
{
    itimerval t{};
    t.it_interval.tv_usec = usec;
    t.it_value.tv_usec = usec;
    setitimer(ITIMER_PROF, &t, nullptr);
}

[[gnu::constructor]] void
start()
{
    struct sigaction sa{};
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    setTimer(1000);
}

[[gnu::destructor]] void
finish()
{
    setTimer(0);
    char path[64];
    std::snprintf(path, sizeof path, "pcsample.%d", int(getpid()));
    std::FILE *out = std::fopen(path, "w");
    if (!out)
        return;
    std::size_t n = g_count.load(std::memory_order_relaxed);
    if (n > kMaxSamples)
        n = kMaxSamples;
    for (std::size_t i = 0; i < n; ++i)
        std::fprintf(out, "%zx\n", std::size_t(g_pcs[i]));
    std::fputs("--- maps\n", out);
    if (std::FILE *maps = std::fopen("/proc/self/maps", "r")) {
        char buf[4096];
        std::size_t got;
        while ((got = std::fread(buf, 1, sizeof buf, maps)) > 0)
            std::fwrite(buf, 1, got, out);
        std::fclose(maps);
    }
    std::fclose(out);
    std::fprintf(stderr, "pcsample: %zu samples in %s\n", n, path);
}

} // namespace
