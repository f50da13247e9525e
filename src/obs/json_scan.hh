/**
 * @file
 * Word-at-a-time byte tests shared by the JSON writer (obs/json.cc)
 * and reader (obs/json_parse.cc).  Both copy strings in runs, and a
 * run ends only at a byte that one of them must treat specially: the
 * writer at a quote, a backslash or a control character, the reader
 * at a quote or a backslash.  Testing eight bytes at once lets either
 * skip the plain stretches of a long string (a request's source, a
 * response's schedule) without looking at each byte.
 */

#ifndef SCHED91_OBS_JSON_SCAN_HH
#define SCHED91_OBS_JSON_SCAN_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace sched91::obs::detail
{

inline constexpr std::uint64_t kByteOnes = 0x0101010101010101ull;
inline constexpr std::uint64_t kByteHighs = 0x8080808080808080ull;

/** Nonzero exactly when some byte of @p w equals @p c. */
constexpr std::uint64_t
hasByte(std::uint64_t w, unsigned char c)
{
    const std::uint64_t x = w ^ (kByteOnes * c);
    return (x - kByteOnes) & ~x & kByteHighs;
}

/** Nonzero exactly when some byte of @p w is below 0x20. */
constexpr std::uint64_t
hasControl(std::uint64_t w)
{
    return (w - kByteOnes * 0x20) & ~w & kByteHighs;
}

/** From @p from, past every whole eight-byte word of @p s in which
 * @p special finds nothing: the index of the first word it flags, or
 * of the last few bytes, fewer than eight. */
template <typename Special>
std::size_t
skipPlainWords(std::string_view s, std::size_t from, Special special)
{
    while (from + 8 <= s.size()) {
        std::uint64_t w;
        std::memcpy(&w, s.data() + from, 8);
        if (special(w) != 0)
            break;
        from += 8;
    }
    return from;
}

} // namespace sched91::obs::detail

#endif // SCHED91_OBS_JSON_SCAN_HH
