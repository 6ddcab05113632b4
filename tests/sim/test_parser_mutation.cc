/**
 * @file
 * Seeded byte-mutation tests for the text parsers a user reaches from
 * the command line: rsn::parseNumber (common/parse.hh), behind every
 * numeric flag of rsn-sim, rsn-serve and the benches' --jobs/RSN_JOBS,
 * and sim::FaultSpec::parse (--fault-spec). Each mutated input must be
 * either accepted with a value that round-trips or rejected with a
 * named reason; nothing may crash or throw. Integer acceptance is also
 * checked against an independent digit-by-digit oracle.
 */

#include <gtest/gtest.h>

#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "sim/fault.hh"

namespace {

using namespace rsn;

/** Bytes a mutation may write: number syntax, separators, letters that
 *  spell "inf"/"nan"/hex, whitespace, and non-ASCII. */
constexpr char kAlphabet[] = "0123456789-+.eExXinfa ,=:\t\xff";

/** One random edit of @p s: overwrite, insert, delete, duplicate a
 *  span, or truncate. */
void
mutate(std::string &s, std::mt19937 &rng)
{
    const auto pick = [&rng](std::size_t n) { return rng() % n; };
    const char byte = kAlphabet[pick(sizeof kAlphabet - 1)];
    switch (pick(5)) {
      case 0:
        if (!s.empty())
            s[pick(s.size())] = byte;
        break;
      case 1:
        s.insert(s.begin() + pick(s.size() + 1), byte);
        break;
      case 2:
        if (!s.empty())
            s.erase(pick(s.size()), 1);
        break;
      case 3:
        if (!s.empty()) {
            const std::size_t at = pick(s.size());
            s.insert(at, s.substr(at, 1 + pick(4)));
        }
        break;
      default:
        s.resize(pick(s.size() + 1));
        break;
    }
}

/** @p seeds, each mutated 1-3 times, @p n inputs in total. */
std::vector<std::string>
mutants(const std::vector<std::string> &seeds, int n, std::uint32_t seed)
{
    std::mt19937 rng(seed);
    std::vector<std::string> out;
    for (int i = 0; i < n; ++i) {
        std::string s = seeds[rng() % seeds.size()];
        for (int edits = 1 + int(rng() % 3); edits > 0; --edits)
            mutate(s, rng);
        out.push_back(std::move(s));
    }
    return out;
}

/** Independent oracle: @p text as an integer in [lo, hi], parsed digit
 *  by digit in 128 bits (saturating), or nullopt. */
template <typename T>
std::optional<T>
oracleInteger(const std::string &text, T lo, T hi)
{
    std::size_t i = 0;
    const bool neg = std::is_signed_v<T> && !text.empty() && text[0] == '-';
    i += neg;
    if (i == text.size())
        return std::nullopt;
    __int128 v = 0;
    for (; i < text.size(); ++i) {
        if (text[i] < '0' || text[i] > '9')
            return std::nullopt;
        if (v < (__int128(1) << 100))
            v = v * 10 + (text[i] - '0');
    }
    if (neg)
        v = -v;
    if (v < __int128(lo) || v > __int128(hi))
        return std::nullopt;
    return T(v);
}

/** A rejection names what was parsed and quotes the text. */
void
expectNamedRejection(const Status &st, const std::string &what,
                     const std::string &text)
{
    EXPECT_EQ(st.code, StatusCode::InvalidConfig) << text;
    EXPECT_NE(st.message.find(what), std::string::npos) << st.message;
    EXPECT_NE(st.message.find("'" + text + "'"), std::string::npos)
        << st.message;
}

template <typename T>
void
checkInteger(const std::string &text, T lo, T hi, int &accepted,
             int &rejected)
{
    SCOPED_TRACE("'" + text + "'");
    T sentinel = T(42);
    T v = sentinel;
    const Status st = parseNumber("--flag", text, v, lo, hi);
    const std::optional<T> want = oracleInteger(text, lo, hi);
    ASSERT_EQ(st.ok(), want.has_value()) << st.toString();
    if (!st.ok()) {
        EXPECT_EQ(v, sentinel) << "a rejection leaves the output alone";
        expectNamedRejection(st, "--flag", text);
        ++rejected;
        return;
    }
    EXPECT_EQ(v, *want);
    T again = 0;
    ASSERT_TRUE(parseNumber("--flag", std::to_string(v), again, lo, hi).ok());
    EXPECT_EQ(again, v);
    ++accepted;
}

const std::vector<std::string> kNumberSeeds = {
    "0",    "1",   "7",     "42",   "4294967295", "18446744073709551615",
    "-3",   "2.5", "1e4",   "0.02", "abc",        "",
    "12x",  " 7",  "+5",    "0x10", "1e400",      "nan",
    "-inf", "007", "1e-07", ".5",
};

TEST(ParserMutation, IntegersAreWholeTokensInRange)
{
    int accepted = 0, rejected = 0;
    for (const std::string &text : mutants(kNumberSeeds, 40000, 1)) {
        checkInteger<std::uint32_t>(text, 1, UINT32_MAX, accepted,
                                    rejected);  // --batch / --seq
        checkInteger<unsigned>(text, 0, UINT_MAX, accepted,
                               rejected);  // --jobs / RSN_JOBS
        checkInteger<std::uint64_t>(text, 0, UINT64_MAX, accepted,
                                    rejected);  // seeds and ticks
        checkInteger<std::int64_t>(text, -1000, 1000, accepted, rejected);
    }
    std::printf("integers: %d accepted, %d rejected\n", accepted, rejected);
    EXPECT_GE(accepted, 10000);
    EXPECT_GE(rejected, 10000);
}

TEST(ParserMutation, FloatsAreFiniteWholeTokensThatRoundTrip)
{
    int accepted = 0, rejected = 0;
    for (const std::string &text : mutants(kNumberSeeds, 40000, 2)) {
        SCOPED_TRACE("'" + text + "'");
        double v = -7.0;
        const Status st = parseNumber("--load", text, v);
        if (!st.ok()) {
            EXPECT_EQ(v, -7.0);
            expectNamedRejection(st, "--load", text);
            ++rejected;
            continue;
        }
        ++accepted;
        EXPECT_TRUE(std::isfinite(v));
        // The whole token is the number: strtod consumes all of it and
        // agrees on the value.
        char *end = nullptr;
        EXPECT_EQ(std::strtod(text.c_str(), &end), v);
        EXPECT_EQ(end, text.c_str() + text.size());
        EXPECT_TRUE(text[0] != ' ' && text[0] != '\t' && text[0] != '+');
        char buf[32];
        const std::string shortest(
            buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
        double again = 0;
        ASSERT_TRUE(parseNumber("--load", shortest, again).ok()) << shortest;
        EXPECT_EQ(again, v);
    }
    std::printf("floats: %d accepted, %d rejected\n", accepted, rejected);
    EXPECT_GE(accepted, 5000);
    EXPECT_GE(rejected, 5000);
}

TEST(ParserMutation, FaultSpecsRoundTripOrAreRejected)
{
    const std::vector<std::string> seeds = {
        "seed=7,link_drop=0.25,dram=0.5,retries=3,backoff=16,"
        "window=100:200,checksums=1",
        "seed=1,link_stall=0.02,stall_max=64,flip=0.002",
        "seed=1,link_drop=1.0,retries=0",
        "stall_max=5",
        "chaos",
        "",
    };
    int accepted = 0, rejected = 0;
    for (const std::string &text : mutants(seeds, 60000, 3)) {
        SCOPED_TRACE("'" + text + "'");
        Status st;
        const sim::FaultSpec spec = sim::FaultSpec::parse(text, &st);
        if (!st.ok()) {
            EXPECT_EQ(st.code, StatusCode::InvalidConfig);
            EXPECT_EQ(st.message.rfind("bad fault spec '" + text + "': ", 0),
                      0u)
                << st.message;
            EXPECT_GT(st.message.size(), text.size() + 20) << st.message;
            EXPECT_EQ(spec, sim::FaultSpec{});
            ++rejected;
            continue;
        }
        ++accepted;
        EXPECT_TRUE(spec.validate().ok());
        Status again_st;
        const sim::FaultSpec again =
            sim::FaultSpec::parse(spec.toString(), &again_st);
        ASSERT_TRUE(again_st.ok())
            << spec.toString() << ": " << again_st.toString();
        EXPECT_TRUE(again == spec)
            << spec.toString() << " reparses as " << again.toString();
    }
    std::printf("fault specs: %d accepted, %d rejected\n", accepted,
                rejected);
    EXPECT_GE(accepted, 5000);
    EXPECT_GE(rejected, 5000);
}

TEST(ParserMutation, KnownDefectsStayFixed)
{
    // Inputs the CLIs once accepted by reading a prefix or wrapping.
    std::uint64_t u = 0;
    for (const char *bad : {"7x", "-1", " 7", "+7", "", "0x10", "1e3"})
        EXPECT_FALSE(parseNumber("--seed", bad, u).ok()) << bad;
    double d = 0;
    for (const char *bad : {"2x", "1e4x", "abc", "nan", "inf", "1e400"})
        EXPECT_FALSE(parseNumber("--load", bad, d).ok()) << bad;

    // A fault spec prints every field it parsed, at full precision.
    Status st;
    for (const char *text :
         {"flip=2e-07", "link_stall=0.0200001", "stall_max=5"}) {
        const sim::FaultSpec spec = sim::FaultSpec::parse(text, &st);
        ASSERT_TRUE(st.ok()) << text << ": " << st.toString();
        EXPECT_TRUE(sim::FaultSpec::parse(spec.toString(), &st) == spec)
            << text << " prints as " << spec.toString();
    }
    for (const char *bad : {"seed=7x", "retries=4294967297", "checksums=2",
                            "seed=-1", "dram= 0.5"}) {
        sim::FaultSpec::parse(bad, &st);
        EXPECT_FALSE(st.ok()) << bad;
    }
}

} // namespace
