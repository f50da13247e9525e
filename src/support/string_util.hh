/**
 * @file
 * String helpers for the assembly parser and table printers.
 */

#ifndef SCHED91_SUPPORT_STRING_UTIL_HH
#define SCHED91_SUPPORT_STRING_UTIL_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sched91
{

/** Strip leading/trailing whitespace (the C locale's isspace()). */
inline std::string_view
trim(std::string_view s)
{
    auto space = [](char c) { return c == ' ' || (c >= '\t' && c <= '\r'); };
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && space(s[b]))
        ++b;
    while (e > b && space(s[e - 1]))
        --e;
    return s.substr(b, e - b);
}

/** Split on a delimiter character, trimming each piece. */
std::vector<std::string> splitTrim(std::string_view s, char delim);

/**
 * Split an operand list on top-level commas, i.e. commas not inside
 * brackets, so "[%o0+4],%g1" yields two pieces.  The pieces are
 * trimmed views into @p s; empty ones are dropped.
 */
std::vector<std::string_view> splitOperands(std::string_view s);

/** True when @p s starts with @p prefix. */
bool startsWith(std::string_view s, std::string_view prefix);

/** Lower-case an ASCII string. */
std::string toLower(std::string_view s);

/** Left-pad @p s with spaces to @p width columns. */
std::string padLeft(std::string_view s, std::size_t width);

/** Right-pad @p s with spaces to @p width columns. */
std::string padRight(std::string_view s, std::size_t width);

/**
 * @p prefix followed by @p n in decimal: "B12", "t7".  It appends to
 * the prefix, where `"B" + std::to_string(n)` inserts in front of the
 * number, which GCC 12 flags with a -Wrestrict false positive in
 * optimised builds.
 */
std::string numbered(std::string_view prefix, std::uint64_t n);

} // namespace sched91

#endif // SCHED91_SUPPORT_STRING_UTIL_HH
