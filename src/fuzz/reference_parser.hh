/**
 * @file
 * The reference assembly parser: the splitting parser that
 * parseAssembly() (ir/parser.hh) replaced, kept as the oracle that the
 * parser tests and fuzz_parser compare against.
 *
 * It splits each line into operand strings and each address into
 * pieces before reading them, and reads integers with strtoll, so it
 * shares none of parseAssembly()'s scanning code.  It accepts the same
 * grammar and must give the same Program and the same diagnostics
 * (severity, line, column and message).  Unlike parseAssembly() it
 * counts nothing in the robust.* counters.
 */

#ifndef SCHED91_FUZZ_REFERENCE_PARSER_HH
#define SCHED91_FUZZ_REFERENCE_PARSER_HH

#include <string_view>

#include "ir/program.hh"
#include "support/diagnostics.hh"

namespace sched91::fuzz
{

/** parseAssembly()'s reference: same contract, same results. */
Program referenceParseAssembly(std::string_view text,
                               DiagnosticEngine &diags,
                               std::string_view filename = "<input>");

} // namespace sched91::fuzz

#endif // SCHED91_FUZZ_REFERENCE_PARSER_HH
