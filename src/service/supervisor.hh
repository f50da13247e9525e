/**
 * @file
 * Parent-process side of `sched91 serve --isolate=process`
 * (docs/ROBUSTNESS.md): a pool of pre-forked sandbox workers, one per
 * daemon lane, each a subprocess of the CLI binary running the hidden
 * `__sandbox-worker` command.
 *
 * Division of labor:
 *
 *  - The engine's resilience ladder (service/engine.hh) runs in the
 *    parent, the same ladder the in-process daemon runs, so
 *    `--isolate=process` answers with exactly the responses and
 *    tallies of the in-process engine for the same seed.  The
 *    supervisor is its sandbox runner: each attempt is one envelope
 *    to the lane's worker, reported back as a typed outcome.
 *  - A *worker* runs exactly one ladder attempt per dispatch envelope
 *    (service/sandbox_worker.hh).  Anything that kills it — injected
 *    SIGSEGV/abort, an rlimit, its lane's SIGKILL at the kill time —
 *    is contained to the one request it was holding.
 *
 * Each worker is linked to its lane by one AF_UNIX socketpair, newline
 * framed both ways (support/line_io.hh): the worker's fd 3 carries
 * envelopes in and answers out, fd 4 is its crash-ring memfd.  A write
 * to a worker that died while idle is an error return, never a
 * SIGPIPE: the lane reaps it and respawns it before dispatching
 * (`svc.worker_respawns`, no crash tally).
 *
 * Worker death is reported as a crashed attempt, which the ladder
 * answers degraded to original instruction order and quarantines.
 * The pool itself is the supervisor's: it counts the death
 * (`svc.worker_crashes`), records a flight event with the cause,
 * harvests the crash ring, and respawns the worker before the lane
 * takes its next request.  Every accepted request is answered exactly
 * once.
 *
 * Hang containment has one kill time per attempt, enforced by the lane
 * that dispatched it.  A worker is busy only while its lane waits for
 * the answer, so the lane is its only watchdog: it sets the kill time
 * before writing the envelope (the request's remaining deadline plus
 * a 500 ms grace, or the hang bound when the request has none), reads
 * the answer with that deadline, and on a timeout SIGKILLs the worker
 * (`svc.worker_kills`) and reports the attempt crashed.  An answer
 * past the kill time is never taken.  RLIMIT_CPU and RLIMIT_AS, when
 * configured, are the kernel's bounds under the lane.
 *
 * Each worker also carries a crash ring — a flight-recorder ring in a
 * shared memfd — that the supervisor harvests after a death, so even
 * a SIGKILLed worker leaves `sched91 explain`-able forensics.
 */

#ifndef SCHED91_SERVICE_SUPERVISOR_HH
#define SCHED91_SERVICE_SUPERVISOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "service/engine.hh"
#include "service/protocol.hh"
#include "support/subprocess.hh"

namespace sched91::service
{

struct SupervisorConfig
{
    /** One worker per daemon lane; lane i talks only to worker i, so
     * dispatch needs no pool lock. */
    unsigned workers = 1;

    /** The machine, block cap and outlier capture go to each
     * worker's engine as flags; builder, algorithm and policy ride in
     * every envelope. */
    EngineConfig engine;

    /** Worker executable; empty = /proc/self/exe.  Tests point this
     * at the real CLI binary. */
    std::string workerExe;

    /** Fault-injection spec forwarded to workers (they inherit the
     * daemon's faults; the supervisor process runs with them too). */
    std::string faultSpec;

    /** Per-worker RLIMIT_CPU seconds; 0 = unlimited. */
    int rlimitCpuSeconds = 0;

    /** Per-worker RLIMIT_AS MiB; 0 = unlimited.  Leave 0 under
     * sanitizers (support/subprocess.hh). */
    std::size_t rlimitAsMb = 0;

    /** Kill time of an attempt whose request has no deadline, ms. */
    int hangTimeoutMs = 10'000;

    /** How long a fresh worker may take to print its ready banner. */
    int spawnTimeoutMs = 10'000;

    /** Where crash forensics go (ring dump + replayable bundle);
     * empty = discard.  The daemon passes engine.outlierDir. */
    std::string crashDir;
};

class Supervisor
{
  public:
    /** @p engine is the daemon's in-parent engine: its ladder drives
     * the supervisor's attempts, and its counters take the pool's
     * tallies. */
    Supervisor(SupervisorConfig config, Engine &engine);
    ~Supervisor();

    /** Spawn the pool; no thread is started.  A worker that fails to
     * come up is counted (svc.worker_spawn_failures) and retried at
     * its lane's first dispatch; start() itself only throws when no
     * worker executable can be resolved. */
    void start();

    /** Drain, once every lane is idle: close the workers' sockets
     * (they exit 0 on EOF), reap with a grace period, SIGKILL
     * stragglers.  Idempotent. */
    void stop();

    /**
     * Run one request through the engine's ladder, each attempt in
     * lane @p lane's sandbox worker.  Same contract as
     * Engine::process(): returns the response line, never throws.
     * @p trace, when non-null, receives the request's span tree: one
     * "rung" span per dispatch (crashes annotated with the worker's
     * exit), "respawn" spans for replacement workers, and the
     * per-phase child spans the worker reported back in its response
     * envelope.
     */
    std::string process(unsigned lane, const RequestSpec &spec,
                        double remainingSeconds,
                        const obs::RequestTrace *trace = nullptr);

    /** Lanes whose sandbox worker is currently alive (stats/health
     * gauge; reads each worker's atomic pid, so safe from any
     * thread). */
    unsigned liveWorkers() const;

  private:
    struct Worker;
    class SandboxRunner;

    bool spawnWorker(Worker &worker,
                     const obs::RequestTrace *trace = nullptr);
    void retireWorker(Worker &worker);

    void harvestCrash(Worker &worker, const RequestSpec &spec,
                      std::uint64_t key, const SpawnExit &exit);

    SupervisorConfig config_;
    Engine &engine_;
    std::string exe_; ///< resolved worker executable
    std::vector<std::unique_ptr<Worker>> workers_;
    bool started_ = false;
};

} // namespace sched91::service

#endif // SCHED91_SERVICE_SUPERVISOR_HH
