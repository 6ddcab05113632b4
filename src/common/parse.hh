/**
 * @file
 * Strict number parsing for command-line flags, environment variables
 * and spec strings: the whole token must spell a number that fits the
 * destination type and the caller's range. "12x", " 7", "-3" for an
 * unsigned value, "1e400", "nan" and "" are all rejected, with a
 * reason naming what was being parsed and the offending text.
 */

#ifndef RSN_COMMON_PARSE_HH
#define RSN_COMMON_PARSE_HH

#include <charconv>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "common/status.hh"

namespace rsn {

/**
 * Parse all of @p text as a T in [@p lo, @p hi] into @p out. Integers
 * are decimal digits with an optional leading '-' (signed types only);
 * floating-point values use std::from_chars' general format and must
 * be finite. On failure @p out is unchanged and the InvalidConfig
 * status reads "<what> expects <kind>, got '<text>'", where <kind>
 * names the range for integers.
 */
template <typename T>
Status
parseNumber(std::string_view what, std::string_view text, T &out,
            T lo = std::numeric_limits<T>::lowest(),
            T hi = std::numeric_limits<T>::max())
{
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
    T v{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    // lo <= v <= hi also rejects NaN and, at the default bounds, +-inf.
    if (ec == std::errc{} && ptr == end && lo <= v && v <= hi) {
        out = v;
        return Status::success();
    }
    std::string kind = "a finite number";
    if constexpr (std::is_integral_v<T>)
        kind = "an integer in [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "]";
    return Status::error(StatusCode::InvalidConfig,
                         std::string(what) + " expects " + kind +
                             ", got '" + std::string(text) + "'");
}

} // namespace rsn

#endif // RSN_COMMON_PARSE_HH
