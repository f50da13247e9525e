#include "service/sandbox_worker.hh"

#include <csignal>
#include <new>
#include <optional>
#include <string>

#include <sys/mman.h>

#include "service/protocol.hh"
#include "support/fault_inject.hh"
#include "support/line_io.hh"

namespace sched91::service
{

namespace
{

/** One envelope -> one response line.  An attempt failure answers
 * status "error" — the parent's ladder turns that into a retry or the
 * degraded last rung; the worker itself never retries. */
std::string
answer(Engine &engine, std::string_view line)
{
    std::string error;
    std::optional<SandboxEnvelope> env =
        parseSandboxEnvelopeLine(line, error);
    if (!env)
        return errorLine("", error);

    // A crash leaves the content hash, attempt number, and trace id
    // as the last ring event, so `sched91 explain` on the recovered
    // ring says what the worker was chewing on — and which live trace
    // the death belongs to.
    std::string detail = "attempt";
    if (!env->spec.traceId.empty()) {
        detail += ' ';
        detail += env->spec.traceId;
    }
    obs::flight::record(obs::flight::EventKind::Diag, "sandbox",
                        detail, fault::fnv1a64(env->spec.source),
                        static_cast<std::uint64_t>(env->attempt));

    const double remaining =
        env->spec.deadlineMs > 0.0 ? env->spec.deadlineMs / 1000.0
                                   : 0.0;
    return engine.attemptLine(env->spec, env->attempt, env->downgraded,
                              remaining);
}

} // namespace

int
runSandboxWorker(const SandboxWorkerConfig &config)
{
    // Lifecycle belongs to the supervisor: drain is EOF on the socket,
    // hangs end in SIGKILL.  Ignoring the terminal's signals keeps a
    // ^C on the process group from racing the orderly drain.
    std::signal(SIGINT, SIG_IGN);
    std::signal(SIGTERM, SIG_IGN);

    CrashRing *ring = nullptr;
    if (config.ringFd >= 0) {
        void *mem = ::mmap(nullptr, sizeof(CrashRing),
                           PROT_READ | PROT_WRITE, MAP_SHARED,
                           config.ringFd, 0);
        if (mem != MAP_FAILED) {
            ring = new (mem) CrashRing{};
            ring->magic = kCrashRingMagic;
        }
    }

    std::optional<obs::flight::ScopedRecorder> flight_scope;
    if (ring != nullptr) {
        obs::flight::setEnabled(true);
        // The ring outlives any single pipeline run; keep runPipeline
        // from resetting or re-claiming it (same contract as the
        // daemon's lane rings).
        obs::flight::setExternallyManaged(true);
        flight_scope.emplace(&ring->recorder);
    }

    Engine engine(config.engine);

    if (!writeLine(config.fd, kWorkerReadyLine))
        return 1;

    LineReader reader(config.fd);
    std::string_view line;
    while (reader.read(line, -1) == LineReader::Status::Line)
        if (!line.empty() &&
            !writeLine(config.fd, answer(engine, line)))
            return 1;
    return 0; // the supervisor closed the socket: clean drain
}

} // namespace sched91::service
