/**
 * @file
 * Leveled logger implementation: threshold/sink state and the
 * locked write.
 */

#include "support/log.hh"

namespace sched91::log
{

namespace
{
/** Sink override; stderr when null (resolved at write time so tests
 * that swap stderr early still work). */
std::FILE *g_sink = nullptr;
} // namespace

std::string_view
levelName(Level level)
{
    switch (level) {
      case Level::Error:
        return "error";
      case Level::Warn:
        return "warn";
      case Level::Info:
        return "info";
      case Level::Debug:
        return "debug";
    }
    return "?";
}

Level
parseLevel(std::string_view name)
{
    if (name == "error")
        return Level::Error;
    if (name == "warn" || name == "warning")
        return Level::Warn;
    if (name == "info")
        return Level::Info;
    if (name == "debug")
        return Level::Debug;
    fatal("unknown log level '", name,
          "' (expected error, warn, info, or debug)");
}

void
setThreshold(Level level)
{
    detail::g_threshold = level;
}

std::FILE *
sink()
{
    return g_sink ? g_sink : stderr;
}

void
setSink(std::FILE *stream)
{
    g_sink = stream;
}

void
write(Level level, std::string_view text)
{
    if (!enabled(level))
        return;
    std::FILE *out = sink();
    // One lock over both calls: another thread's line cannot land
    // between the text and its newline.
    flockfile(out);
    std::fwrite(text.data(), 1, text.size(), out);
    std::fputc('\n', out);
    funlockfile(out);
}

} // namespace sched91::log
