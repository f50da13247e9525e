/**
 * @file
 * Parser for the SPARC-like assembly dialect.
 *
 * Accepted syntax per line:
 *
 *     label:                     ! labels (also .Lnn:)
 *         ld   [%o0+4], %g1      ! comments with '!' or '#'
 *         add  %g1, %g2, %g3
 *         cmp  %g3, 10
 *         bne,a .L2              ! ,a marks an annulling branch
 *         nop
 *         fmuld %f0, %f2, %f4
 *         st   %g3, [stack_sym+8]
 *
 * Assembler directives (lines starting with '.') other than labels are
 * ignored, mirroring how the paper's tooling consumed "cc -O4 -S"
 * output.
 *
 * Error handling: every malformed line produces one source-located
 * Diag (support/diagnostics.hh).  Under a lenient engine (the
 * default) the parser skips the bad instruction and keeps going, so
 * one typo cannot kill a whole-program run; under a strict engine the
 * first error throws FatalError.  Each recovered error is counted in
 * `robust.parse_errors`.
 *
 * Lanes: a large text is cut at line boundaries into one chunk per
 * lane, and the chunks parse on the calling thread's lanes
 * (ThreadPool::local); the first straight into the result, the others
 * into programs of their own.  Each records its labels, warnings and
 * errors instead of reporting them; the caller then replays them in
 * line order and interns the chunks' memory expressions in chunk
 * order, work per label, diagnostic and unique expression.  The
 * result's instruction store grows by slots nothing constructs
 * (InstStore::appendUnbuilt), and each lane moves its chunk's
 * instructions into theirs.  The Program, every diagnostic, the strict
 * and error-cap outcomes and the counts are those of a one-lane parse
 * at every lane count.  A short text, or a one-lane call, is one chunk
 * parsed on the calling thread.
 */

#ifndef SCHED91_IR_PARSER_HH
#define SCHED91_IR_PARSER_HH

#include <cstddef>
#include <string_view>

#include "ir/program.hh"
#include "support/diagnostics.hh"

namespace sched91
{

/**
 * Texts shorter than this parse as one chunk on the calling thread; at
 * or above it, as one chunk per lane.  Twice the size at which four
 * lanes first broke even with one on program_gen texts (4 vCPUs;
 * docs/PERFORMANCE.md, "Parsing on the lanes"), and above every
 * request of the serve corpus.
 */
inline constexpr std::size_t kLaneParseBytes = 16 * 1024;

/**
 * Parse assembly text into a Program, reporting malformed lines to
 * @p diags (tagged with @p filename).  With a lenient engine the
 * malformed instructions are skipped and everything parseable is
 * returned; a strict engine makes the first error throw FatalError.
 * @p threads counts lanes as PipelineOptions::threads does: 0 picks
 * the hardware concurrency, 1 parses on the calling thread alone.
 */
Program parseAssembly(std::string_view text, DiagnosticEngine &diags,
                      std::string_view filename = "<input>",
                      unsigned threads = 0);

/**
 * Fail-fast convenience overload: parse with a private strict engine.
 *
 * @throws FatalError on the first malformed instruction.
 */
Program parseAssembly(std::string_view text);

} // namespace sched91

#endif // SCHED91_IR_PARSER_HH
