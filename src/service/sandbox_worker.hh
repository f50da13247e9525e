/**
 * @file
 * Child-process side of `sched91 serve --isolate=process`
 * (docs/ROBUSTNESS.md): one sandbox worker runs ONE ladder attempt
 * per dispatch envelope and answers on the same socket.  The ladder
 * itself — retries, quarantine, degradation, counters — stays in the
 * parent's engine (service/engine.hh), so a worker death is just a
 * crashed attempt the parent can answer for.
 *
 * The worker's fds: 3 is its end of one AF_UNIX socketpair with the
 * supervisor, newline-framed both ways (support/line_io.hh), which
 * carries the envelopes in and the ready banner and answers out; 4 is
 * the crash-ring memfd.  Every setting an attempt needs beyond the
 * machine, the block cap and outlier capture rides in the envelope.
 *
 * Lifecycle is entirely the supervisor's: EOF on the socket is the
 * drain signal (the worker exits 0), a hung worker is SIGKILLed.
 * SIGINT/SIGTERM are ignored so a ^C delivered to the process group
 * cannot race the supervisor's orderly drain.
 *
 * The crash ring makes killed workers debuggable: a flight-recorder
 * ring living in a supervisor-created memfd, mapped MAP_SHARED by
 * both processes.  The worker records into it through the ordinary
 * obs::flight thread hook; because the memory is shared, the
 * supervisor can read the final events of a worker that died by
 * SIGKILL — which by definition never runs a dump-on-death path.
 */

#ifndef SCHED91_SERVICE_SANDBOX_WORKER_HH
#define SCHED91_SERVICE_SANDBOX_WORKER_HH

#include <cstdint>
#include <string>

#include "obs/flight_recorder.hh"
#include "service/engine.hh"

namespace sched91::service
{

/**
 * Layout of the per-worker crash ring memfd.  Self-contained POD (the
 * Recorder holds fixed arrays and integers, no pointers), so the two
 * processes can map it at different addresses.  The worker
 * placement-constructs it and stamps `magic` last; the supervisor
 * reads it only after reaping the worker, so there is no concurrent
 * access to order.
 */
struct CrashRing
{
    std::uint64_t magic = 0;
    obs::flight::Recorder recorder;
};

/** Stamped by the worker once the ring is constructed ("sc91ring"). */
inline constexpr std::uint64_t kCrashRingMagic = 0x73633931'72696e67ull;

/** Well-known child fd numbers (the supervisor's dup2 plan). */
inline constexpr int kWorkerFd = 3;     ///< envelopes in, answers out
inline constexpr int kWorkerRingFd = 4; ///< crash-ring memfd

/** First line the worker sends: it is up.  Its absence within the
 * spawn timeout is a spawn failure. */
inline constexpr char kWorkerReadyLine[] = "{\"sandbox_ready\":1}";

struct SandboxWorkerConfig
{
    int fd = kWorkerFd;
    int ringFd = -1; ///< crash-ring memfd; -1 = no ring
    EngineConfig engine;
};

/**
 * Entry point of the hidden `__sandbox-worker` CLI command: serve
 * envelopes until EOF on the socket.  Returns the process exit code
 * (0 = clean drain).
 */
int runSandboxWorker(const SandboxWorkerConfig &config);

} // namespace sched91::service

#endif // SCHED91_SERVICE_SANDBOX_WORKER_HH
