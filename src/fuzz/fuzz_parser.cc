/**
 * @file
 * libFuzzer target: raw bytes -> lenient assembly parser, checked
 * against the reference parser.
 *
 * The properties under test: the parser never crashes, never corrupts
 * memory, and the only exception it is allowed to surface in lenient
 * mode is the documented error-cap FatalError.  On every input it must
 * also agree with fuzz::referenceParseAssembly (fuzz/reference_parser.hh):
 * the same Program::toString(), the same diagnostics, and the same
 * error-cap outcome.  The input is also repeated, each copy followed
 * by a newline, until it reaches kLaneParseBytes, and that text is
 * parsed on four lanes, so the chunk merge sees the same bytes.  A
 * disagreement aborts.  Seed with
 * tests/corpus/malformed/.  Builds either with -fsanitize=fuzzer or
 * against fuzz/driver_main.cc (see src/CMakeLists.txt and
 * docs/FUZZING.md).
 */

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "fuzz/reference_parser.hh"
#include "ir/parser.hh"
#include "support/diagnostics.hh"
#include "support/logging.hh"

namespace
{

using sched91::DiagnosticEngine;
using sched91::Program;

/** What one parser made of the input, rendered for comparison. */
template <typename Parse>
std::string
outcome(std::string_view text, Parse parse)
{
    DiagnosticEngine diags; // lenient, default error cap
    std::string out;
    try {
        out = parse(text, diags).toString();
    } catch (const sched91::FatalError &e) {
        // Error-cap overflow on garbage input: documented behaviour.
        out = std::string("fatal: ") + e.what() + "\n";
    }
    return out + "--- diagnostics\n" + diags.render();
}

/** Abort unless parseAssembly on @p lanes lanes agrees with the
 * reference parser on @p text. */
void
compare(std::string_view text, unsigned lanes)
{
    const std::string got =
        outcome(text, [lanes](std::string_view t, DiagnosticEngine &d) {
            return sched91::parseAssembly(t, d, "<fuzz>", lanes);
        });
    const std::string want =
        outcome(text, [](std::string_view t, DiagnosticEngine &d) {
            return sched91::fuzz::referenceParseAssembly(t, d, "<fuzz>");
        });
    if (got != want) {
        std::fprintf(stderr,
                     "fuzz_parser: parseAssembly (%u lanes) and the "
                     "reference parser disagree\n--- parseAssembly\n%s\n"
                     "--- reference\n%s\n",
                     lanes, got.c_str(), want.c_str());
        std::abort();
    }
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    std::string_view text(reinterpret_cast<const char *>(data), size);
    compare(text, 1);
    if (size != 0) {
        std::string tiled;
        while (tiled.size() < sched91::kLaneParseBytes) {
            tiled += text;
            tiled += '\n';
        }
        compare(tiled, 4);
    }
    return 0;
}
