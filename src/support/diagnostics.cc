#include "support/diagnostics.hh"

#include <cstdint>
#include <sstream>
#include <utility>

#include "support/log.hh"
#include "support/logging.hh"

namespace sched91
{

std::string_view
severityName(Severity sev)
{
    return sev == Severity::Error ? "error" : "warning";
}

std::string
Diag::render() const
{
    std::ostringstream os;
    os << (file.empty() ? "<input>" : file);
    if (line > 0) {
        os << ':' << line;
        if (col > 0)
            os << ':' << col;
    }
    os << ": " << severityName(severity) << ": " << message;
    return os.str();
}

void
DiagnosticEngine::report(Diag d)
{
    if (d.severity == Severity::Error)
        ++errors_;
    else
        ++warnings_;
    diags_.push_back(std::move(d));

    const Diag &stored = diags_.back();
    if (opts_.strict && stored.severity == Severity::Error)
        throw FatalError(stored.render());
    if (opts_.maxErrors != 0 && errors_ > opts_.maxErrors) {
        fatal(stored.file.empty() ? "<input>" : stored.file,
              ": too many errors (", errors_, "; cap ", opts_.maxErrors,
              "), giving up");
    }
    if (opts_.echoToLog)
        log::write(stored.severity == Severity::Error ? log::Level::Error
                                                      : log::Level::Warn,
                   stored.render());
}

std::size_t
DiagnosticEngine::errorsUntilFatal() const
{
    if (opts_.strict)
        return 1;
    if (opts_.maxErrors == 0)
        return SIZE_MAX;
    return errors_ < opts_.maxErrors ? opts_.maxErrors - errors_ + 1 : 1;
}

void
DiagnosticEngine::error(std::string_view file, int line, int col,
                        std::string message)
{
    Diag d;
    d.severity = Severity::Error;
    d.file = std::string(file);
    d.line = line;
    d.col = col;
    d.message = std::move(message);
    report(std::move(d));
}

void
DiagnosticEngine::warning(std::string_view file, int line, int col,
                          std::string message)
{
    Diag d;
    d.severity = Severity::Warning;
    d.file = std::string(file);
    d.line = line;
    d.col = col;
    d.message = std::move(message);
    report(std::move(d));
}

std::string
DiagnosticEngine::render() const
{
    std::string out;
    for (const Diag &d : diags_) {
        out += d.render();
        out += '\n';
    }
    return out;
}

} // namespace sched91
