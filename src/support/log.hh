/**
 * @file
 * Leveled structured logger (docs/FORENSICS.md).
 *
 * One deterministic sink for everything the library and the CLI used
 * to fprintf at stderr ad hoc.  A record is gated by the global
 * threshold and written straight to the process sink (stderr by
 * default), its text and newline under one stream lock, so lines from
 * concurrent threads (the daemon's lanes) never splice.
 *
 * The library writes no record inside a pipeline lane: runPipeline
 * writes its per-block notices after the join, in block order, from
 * the blocks' own output slots — so the bytes are identical at every
 * thread count.
 *
 * The sink format is deliberately bare: the message, a newline,
 * nothing else.  Producers that want a prefix put it in the message
 * (the assembly diagnostics carry their own `file:line: error:`
 * rendering), which keeps the routed output byte-identical to the
 * historical fprintf sites.
 */

#ifndef SCHED91_SUPPORT_LOG_HH
#define SCHED91_SUPPORT_LOG_HH

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>

#include "support/logging.hh"

namespace sched91::log
{

/** Severity, most to least severe.  The threshold admits a level when
 * it is numerically <= the threshold (Warn admits Error and Warn). */
enum class Level : std::uint8_t
{
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
};

/** "error" / "warn" / "info" / "debug". */
std::string_view levelName(Level level);

/** Parse a --log-level value; throws FatalError on an unknown name. */
Level parseLevel(std::string_view name);

namespace detail
{
/** Global threshold; records above it are dropped at the call site. */
inline Level g_threshold = Level::Warn;
} // namespace detail

/** Current threshold (default Warn: errors and warnings print). */
inline Level threshold() { return detail::g_threshold; }

void setThreshold(Level level);

/** Whether a record at @p level would currently be admitted. */
inline bool
enabled(Level level)
{
    return static_cast<std::uint8_t>(level) <=
           static_cast<std::uint8_t>(detail::g_threshold);
}

/** Where records go (stderr by default). */
std::FILE *sink();

/** Redirect the sink (tests); nullptr restores stderr. */
void setSink(std::FILE *stream);

/**
 * Emit one record: dropped when above the threshold, else written to
 * the sink as the text and a newline under one stream lock.
 */
void write(Level level, std::string_view text);

namespace detail
{

template <typename... Args>
void
writeJoined(Level level, const Args &...args)
{
    if (!enabled(level))
        return;
    std::ostringstream os;
    ::sched91::detail::appendAll(os, args...);
    write(level, os.str());
}

} // namespace detail

template <typename... Args>
void
error(const Args &...args)
{
    detail::writeJoined(Level::Error, args...);
}

template <typename... Args>
void
warn(const Args &...args)
{
    detail::writeJoined(Level::Warn, args...);
}

template <typename... Args>
void
info(const Args &...args)
{
    detail::writeJoined(Level::Info, args...);
}

template <typename... Args>
void
debug(const Args &...args)
{
    detail::writeJoined(Level::Debug, args...);
}

} // namespace sched91::log

#endif // SCHED91_SUPPORT_LOG_HH
