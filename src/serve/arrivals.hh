/**
 * @file
 * Request classes and seeded arrival streams for the serving tier.
 *
 * The serving harness is *open-loop*: arrivals are generated up front
 * from a seed (Poisson) or a trace, independent of how the fleet keeps
 * up — so offered load is an input, not a feedback loop, and a serving
 * curve is a pure function of (seed, config, policy). A request class
 * names a model shape (the tiny-encoder family with a per-class
 * sequence length); arrivals draw a class from the mix weights, and the
 * scheduler batches same-class requests into one model run whose batch
 * dimension is the number of requests in the batch.
 *
 * All randomness is the SplitMix64 finalizer over (seed, index) — the
 * same mixer the fault injector uses — so a stream is bit-identical
 * across platforms and --jobs values.
 */

#ifndef RSN_SERVE_ARRIVALS_HH
#define RSN_SERVE_ARRIVALS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/mix64.hh"
#include "common/status.hh"
#include "common/types.hh"
#include "lib/model.hh"

namespace rsn::serve {

/** The serving tier's one source of randomness (common/mix64.hh). */
using rsn::mix64;

/**
 * One request shape in the serving mix: a tiny-encoder configuration
 * whose batch dimension the scheduler fills with co-batched requests.
 * Classes differ in sequence length (and optionally width), modeling a
 * mixed-sequence-length production mix on one fleet.
 */
struct RequestClass {
    std::string name;
    std::uint32_t seq = 32;
    std::uint32_t hidden = 64;
    std::uint32_t heads = 4;
    std::uint32_t ff = 128;
    bool fuse_qkv = true;
    /** Relative arrival weight in the Poisson mix (>= 1). */
    std::uint32_t weight = 1;

    /** The model for a batch of @p batch co-scheduled requests. */
    lib::Model build(std::uint32_t batch) const;

    bool operator==(const RequestClass &) const = default;
};

/** One request arrival: when, and which class. */
struct Arrival {
    Tick tick = 0;
    std::uint32_t cls = 0;

    bool operator==(const Arrival &) const = default;
};

/**
 * Seeded Poisson arrival stream: @p count arrivals with exponential
 * inter-arrival gaps of mean @p mean_gap ticks (clamped to >= 1), class
 * drawn per-arrival from the @p classes weights. Deterministic for a
 * (seed, mean_gap, classes) triple.
 */
std::vector<Arrival> poissonArrivals(
    std::uint64_t seed, Tick mean_gap, std::size_t count,
    const std::vector<RequestClass> &classes);

/**
 * Parse a replay trace: one arrival per line, "<tick> <class-index>",
 * '#' comments and blank lines ignored. Ticks must be non-decreasing
 * and class indices < @p num_classes; on violation *status holds
 * InvalidConfig and the returned vector is empty.
 */
std::vector<Arrival> parseTrace(const std::string &text,
                                std::size_t num_classes, Status *status);

/** The default serving mix: tiny encoders at sequence lengths 32 and
 *  64 (3:1), the shape family the golden tier pins. */
std::vector<RequestClass> defaultClasses();

} // namespace rsn::serve

#endif // RSN_SERVE_ARRIVALS_HH
