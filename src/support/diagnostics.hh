/**
 * @file
 * Source-located diagnostics: the robustness layer's answer to
 * `fatal()`-on-first-error front ends.
 *
 * A Diag is one severity-tagged, source-located record
 * (`file:line:col: error: message`, the GCC/Clang convention, so
 * editors and CI log scrapers parse it for free).  A DiagnosticEngine
 * collects them with two policies:
 *
 *  - lenient (default): record the diagnostic and return, letting the
 *    producer recover (the assembly parser skips the malformed
 *    instruction and keeps parsing) — bounded by an error cap so a
 *    binary file fed in by accident cannot flood the terminal;
 *  - strict: rethrow every error as FatalError immediately,
 *    restoring the historical fail-fast behaviour (`--strict`).
 *
 * The engine is deliberately independent of the observability layer;
 * producers that want `robust.*` counters increment them at report
 * sites (see ir/parser.cc).
 */

#ifndef SCHED91_SUPPORT_DIAGNOSTICS_HH
#define SCHED91_SUPPORT_DIAGNOSTICS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sched91
{

/** Diagnostic severity; only Error counts toward the cap. */
enum class Severity : std::uint8_t
{
    Warning,
    Error,
};

/** "warning" / "error". */
std::string_view severityName(Severity sev);

/** One source-located diagnostic record. */
struct Diag
{
    Severity severity = Severity::Error;
    std::string file;    ///< input name; "<input>" when unknown
    int line = 0;        ///< 1-based; 0 = whole-file diagnostic
    int col = 0;         ///< 1-based; 0 = whole-line diagnostic
    std::string message;

    /** `file:line:col: severity: message` (location parts present
     * only when known). */
    std::string render() const;
};

/** Collects diagnostics under a lenient or strict policy. */
class DiagnosticEngine
{
  public:
    struct Options
    {
        /** Throw FatalError on the first error instead of recovering. */
        bool strict = false;

        /** Lenient-mode error cap: once more than this many errors
         * are recorded the engine gives up with FatalError ("too many
         * errors").  0 = unlimited. */
        std::size_t maxErrors = 64;

        /** Forward each recovered (non-throwing) diagnostic to the
         * leveled logger (support/log.hh) as it is reported: errors at
         * Error, warnings at Warn.  Diagnostics that throw are not
         * echoed — the catch site prints the carried rendering. */
        bool echoToLog = false;
    };

    DiagnosticEngine() = default;
    explicit DiagnosticEngine(Options opts) : opts_(opts) {}

    /**
     * Record one diagnostic.  Throws FatalError (carrying the
     * rendered diagnostic) when strict and @p d is an error, or when
     * the error cap is exceeded; otherwise returns so the caller can
     * recover.
     */
    void report(Diag d);

    /** Convenience: report an error at file:line:col. */
    void error(std::string_view file, int line, int col,
               std::string message);

    /** Convenience: report a warning at file:line:col. */
    void warning(std::string_view file, int line, int col,
                 std::string message);

    const std::vector<Diag> &diags() const { return diags_; }
    std::size_t errorCount() const { return errors_; }
    std::size_t warningCount() const { return warnings_; }
    bool hasErrors() const { return errors_ != 0; }
    bool strict() const { return opts_.strict; }

    /**
     * How many more errors this engine records before one throws,
     * that one included: 1 when strict, SIZE_MAX when uncapped.  A
     * producer that reports after the fact (the parser's lanes) stops
     * looking once it has found that many.
     */
    std::size_t errorsUntilFatal() const;

    /** Every recorded diagnostic, rendered one per line. */
    std::string render() const;

  private:
    Options opts_;
    std::vector<Diag> diags_;
    std::size_t errors_ = 0;
    std::size_t warnings_ = 0;
};

} // namespace sched91

#endif // SCHED91_SUPPORT_DIAGNOSTICS_HH
