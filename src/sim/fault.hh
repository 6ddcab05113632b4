/**
 * @file
 * Deterministic, seeded fault injection (chaos layer).
 *
 * A FaultSpec describes *what can go wrong* — link stalls and chunk drops
 * on streams, transient transaction errors on the DRAM channels, payload
 * bit-flips on the functional data plane — as per-event probabilities
 * plus a tick window, retry bound, and backoff policy. A FaultInjector
 * turns the spec into a *schedule*: every decision is a pure function of
 * (seed, site-name hash, per-site sequence number), so the same seed on
 * the same program produces a bit-identical fault schedule, final tick,
 * and report, run after run. That determinism is what turns every
 * failure mode into a reproducible regression test (tests/sim/test_fault*,
 * tests/lib/test_chaos_e2e.cc).
 *
 * ## Recovery model (docs/robustness.md)
 *
 * Transient link/DRAM faults are retried with exponential backoff *in
 * simulated ticks*: the k-th retry waits backoff_base << k ticks, and the
 * whole retry burst is folded into link / channel occupancy, so recovery
 * is part of the timing model, not wall-clock behavior. A transfer that
 * fails more than max_retries times is a *hard fault*: the injector
 * records a diagnosis naming the site and asks the engine to stop at the
 * next batch boundary (Engine::requestStop), so the run — not the
 * process — ends, with a structured RunReport.
 *
 * ## Payload protection
 *
 * When checksums are on (forced on whenever flip_rate > 0), the DDR /
 * LPDDR movers stamp a checksum for every functional payload they load
 * (keyed by the pooled buffer pointer — the payload travels the stream
 * network by reference, so the pointer is the identity), and the Mem FUs
 * verify it at ingress. The checksum hashes the tile's *byte window*
 * (rows * cols * dtypeBytes), so typed tiles (sim/tile_pool.hh) are
 * protected end to end without assuming a float element size. Bit-flips are injected only into protected
 * payloads, immediately before verification: a flip is therefore always
 * *detected*, never silently computed with — the guarantee the chaos
 * tier pins is "correct outputs or a structured report", with no third
 * outcome.
 *
 * ## Threading contract (docs/datapath.md)
 *
 * A FaultInjector is **lane-owned**, exactly like the machine that
 * holds it: one injector per RsnMachine, one machine per sweep lane
 * (lib/sweep.hh). All mutable state — per-site sequence numbers, the
 * fault log, and the pointer-keyed protected-payload side table — is a
 * plain member, never shared, never locked. The pointer keys are
 * lane-unique because tile payloads come from the lane's thread-local
 * TilePool and tiles never cross lanes, so two lanes can never collide
 * on a key. Debug builds (and -DRSN_THREAD_CHECKS) assert that every
 * hook fires on the thread that constructed the injector, so an
 * accidental cross-lane call fails loudly instead of corrupting the
 * schedule.
 */

#ifndef RSN_SIM_FAULT_HH
#define RSN_SIM_FAULT_HH

#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.hh"
#include "common/types.hh"

/** Owner-thread asserts on the injector hooks: free in Release (NDEBUG
 *  compiles them out), on in Debug and whenever RSN_THREAD_CHECKS is
 *  defined (the TSan CI configuration forces it). */
#if !defined(NDEBUG) || defined(RSN_THREAD_CHECKS)
#define RSN_FAULT_OWNER_CHECKS 1
#else
#define RSN_FAULT_OWNER_CHECKS 0
#endif

namespace rsn::sim {

class Engine;
struct Chunk;

enum class FaultKind : std::uint8_t {
    LinkStall,         ///< Link held busy for extra ticks (recovered).
    LinkRetry,         ///< Chunk dropped, retransmitted (recovered).
    LinkDead,          ///< Retries exhausted: chunk lost (hard).
    DramRetry,         ///< Transaction error, retried (recovered).
    DramDead,          ///< Retries exhausted on the channel (hard).
    BitFlip,           ///< One payload bit flipped at Mem-FU ingress.
    ChecksumMismatch,  ///< Corruption detected by a tile checksum (hard).
};

inline constexpr int kNumFaultKinds = 7;

const char *faultKindName(FaultKind k);

/** One injected (or detected) fault, for the RunReport fault log. */
struct FaultRecord {
    FaultKind kind = FaultKind::LinkStall;
    Tick tick = 0;          ///< Simulated time of the decision.
    std::string site;       ///< Stream / channel / FU name.
    std::uint64_t seq = 0;  ///< Per-site decision index.
    std::string detail;     ///< Kind-specific specifics.

    std::string toString() const;
    bool operator==(const FaultRecord &) const = default;
};

/** Seeded fault plan: rates, window, and recovery policy. */
struct FaultSpec {
    std::uint64_t seed = 0;

    double link_stall_rate = 0;  ///< P(stall) per admitted transfer.
    Tick link_stall_max = 64;    ///< Stall duration drawn from [1, max].
    double link_drop_rate = 0;   ///< P(drop) per transfer *attempt*.
    double dram_rate = 0;        ///< P(transient) per DRAM access attempt.
    double flip_rate = 0;        ///< P(bit-flip) per protected ingress chunk.

    std::uint32_t max_retries = 4;  ///< Attempts beyond the first.
    Tick backoff_base = 32;         ///< Retry k backs off base << k ticks.

    Tick window_begin = 0;          ///< Faults fire only in
    Tick window_end = kTickMax;     ///< [window_begin, window_end).

    bool checksums = false;  ///< Protect payloads even without flips.

    /** Any fault source armed? (The hot-path hooks stay null when not.) */
    bool
    enabled() const
    {
        return link_stall_rate > 0 || link_drop_rate > 0 || dram_rate > 0 ||
               flip_rate > 0 || checksums;
    }

    /** Checksums are forced on whenever flips are possible. */
    bool checksumsOn() const { return checksums || flip_rate > 0; }

    Status validate() const;
    std::string toString() const;

    /**
     * Parse "key=value,key=value" (e.g. "seed=7,link_drop=0.01,dram=0.02")
     * or the preset name "chaos". Keys: seed, link_stall, stall_max,
     * link_drop, dram, flip, retries, backoff, window (begin:end),
     * checksums (0 or 1). Each value must be wholly a number of its
     * field's type (common/parse.hh). On error, *status holds
     * InvalidConfig and the returned spec is default-initialized.
     * parse(toString()) reproduces any spec parse() accepted.
     */
    static FaultSpec parse(const std::string &text, Status *status);

    /** A moderate all-sources profile for smokes and CLI chaos runs. */
    static FaultSpec chaosPreset(std::uint64_t seed);

    bool operator==(const FaultSpec &) const = default;
};

/**
 * Per-run fault scheduler. One injector serves every site in a machine;
 * sites (streams, DRAM channels, FUs) register by name and consult the
 * injector on their hot paths through a single null-checked pointer.
 */
class FaultInjector
{
  public:
    using SiteId = std::uint32_t;

    FaultInjector(const FaultSpec &spec, Engine &eng);

    const FaultSpec &spec() const { return spec_; }
    bool checksums() const { return checksums_on_; }

    /** Register a fault site; decisions are keyed by the name's hash, so
     *  the schedule is independent of registration order. */
    SiteId registerSite(const std::string &name);

    /** Outcome of admitting one transfer / access at a faulty site. */
    struct Outcome {
        Tick extra = 0;             ///< Extra occupancy (stall+retries).
        std::uint32_t retries = 0;  ///< Successful retransmissions.
        bool dead = false;          ///< Retries exhausted: hard fault.
    };

    // The per-event hooks are [[gnu::cold]]: they run only under chaos
    // runs (every caller gates on a null injector pointer first), and
    // marking them keeps their bodies from competing with the fault-free
    // hot path for the LTO inline budget.

    /** Link-layer decision for a transfer of @p xfer_ticks duration. */
    [[gnu::cold]] Outcome onLinkAdmit(SiteId s, Tick xfer_ticks);

    /** DRAM-layer decision for an access of @p service_ticks duration. */
    [[gnu::cold]] Outcome onDramAccess(SiteId s, Tick service_ticks);

    /** Producer side: remember the checksum of @p c's payload. */
    [[gnu::cold]] void stampChecksum(SiteId s, Chunk &c);

    /**
     * Consumer side: maybe flip one payload bit, then verify the stamped
     * checksum. A mismatch is a hard fault (detected corruption). No-op
     * for unprotected chunks.
     */
    [[gnu::cold]] void ingressCheck(SiteId s, Chunk &c);

    /** Backoff before retry attempt @p attempt (0-based), in ticks. */
    Tick
    backoff(std::uint32_t attempt) const
    {
        return spec_.backoff_base << (attempt < 20 ? attempt : 20);
    }

    /** @{ Fault log: capped detail records plus exact per-kind counts. */
    const std::vector<FaultRecord> &log() const { return log_; }
    std::uint64_t count(FaultKind k) const
    {
        return counts_[static_cast<int>(k)];
    }
    std::uint64_t totalInjected() const { return total_; }
    /** @} */

    /** First unrecoverable fault, or nullptr. Set => engine stop asked. */
    const FaultRecord *
    firstHardFault() const
    {
        return hard_faulted_ ? &hard_fault_ : nullptr;
    }
    bool hardFaulted() const { return hard_faulted_; }

    static constexpr std::size_t kMaxLogRecords = 64;

    /**
     * Rewind for another run on a rewound engine (RsnMachine::reset):
     * per-site sequence numbers, the fault log, and the protected-payload
     * table all clear, so the next run replays the identical schedule.
     * Registered sites survive — they are wiring, not run state.
     */
    void reset();

    /**
     * reset() plus a new seed: re-arm the injector for another run of the
     * same program under a *different* fault schedule. The serving
     * scheduler (serve/scheduler.cc) salts one chaos seed per request so
     * a cached lane machine can replay request after request without a
     * rebuild — only the seed differs; rates, window, and policy are
     * unchanged (so checksum arming and site wiring stay valid).
     */
    void reseed(std::uint64_t seed);

  private:
    struct Site {
        std::string name;
        std::uint64_t hash = 0;  ///< FNV-1a of name (order-independent).
        std::uint64_t seq = 0;   ///< Decisions made at this site.
    };

    bool inWindow(Tick t) const
    {
        return t >= spec_.window_begin && t < spec_.window_end;
    }

    /** Uniform [0,1) draw for (site, seq, salt) — pure and seeded. */
    double draw(const Site &site, std::uint64_t seq,
                std::uint64_t salt) const;
    std::uint64_t bits(const Site &site, std::uint64_t seq,
                       std::uint64_t salt) const;

    /** Shared retry ladder for link/DRAM transients. */
    [[gnu::cold]] Outcome retryOutcome(Site &site, std::uint64_t seq,
                                       double rate, Tick attempt_ticks,
                                       std::uint64_t salt,
                                       FaultKind transient, FaultKind dead);

    [[gnu::cold]] void record(FaultKind kind, const Site &site,
                              std::uint64_t seq, std::string detail);
    [[gnu::cold]] void hardFault(FaultKind kind, const Site &site,
                                 std::uint64_t seq, std::string detail);

    /** Lane-ownership guard (see the threading contract above). */
    void checkOwner(const char *op) const;

    FaultSpec spec_;
    Engine &eng_;
    bool checksums_on_;
    std::vector<Site> sites_;
    std::unordered_map<const void *, std::uint32_t> protected_;
    std::vector<FaultRecord> log_;
    std::uint64_t counts_[kNumFaultKinds] = {};
    std::uint64_t total_ = 0;
    FaultRecord hard_fault_;
    bool hard_faulted_ = false;
    std::thread::id owner_ = std::this_thread::get_id();
};

/** Deterministic FNV-1a checksum of a payload's byte window (never 0).
 *  Dtype-agnostic: callers pass the wire byte count (Chunk::bytes()). */
std::uint32_t payloadChecksum(const void *p, std::uint64_t bytes);

} // namespace rsn::sim

#endif // RSN_SIM_FAULT_HH
