/**
 * @file
 * Strict numeric command-line values, one parser for the figure
 * drivers (bench/sweep_driver.hpp) and the service tools (vqad, vqac).
 *
 * A value is accepted only when all of its text is a finite number
 * >= 0 that fits the field's type. "abc", "", "5ms", "-1", "nan",
 * "inf", "1.5" for a count and 70000 for a 16-bit port are rejected,
 * instead of reading as 0 or wrapping the way atoi, atoll and atof do.
 */

#ifndef EFTVQA_COMMON_CLI_HPP
#define EFTVQA_COMMON_CLI_HPP

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>

namespace eftvqa {

/** All of @p text as a finite T >= 0 that fits T, else nullopt. */
template <class T>
std::optional<T>
nonNegative(const char *text)
{
    T v{};
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, v);
    const double d = static_cast<double>(v);
    if (ec != std::errc() || ptr != end || !std::isfinite(d) || d < 0.0)
        return std::nullopt;
    return v;
}

/**
 * Read flag @p flag's value @p text into @p field with nonNegative().
 * Returns "" on success. Otherwise @p field keeps its value and the
 * problem comes back, e.g. "--workers takes a non-negative integer,
 * not '-1'" or "--tcp takes an integer from 0 to 65535, not '70000'".
 */
template <class T>
std::string
readNonNegative(const std::string &flag, const char *text, T &field)
{
    if (const std::optional<T> v = nonNegative<T>(text)) {
        field = *v;
        return "";
    }
    std::string what = "a non-negative number";
    if constexpr (std::is_integral_v<T>) {
        what = "a non-negative integer";
        if constexpr (std::numeric_limits<T>::max() <
                      std::numeric_limits<uint32_t>::max())
            what = "an integer from 0 to " +
                   std::to_string(std::numeric_limits<T>::max());
    }
    return flag + " takes " + what + ", not '" + text + "'";
}

} // namespace eftvqa

#endif // EFTVQA_COMMON_CLI_HPP
