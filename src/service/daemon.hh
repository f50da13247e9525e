/**
 * @file
 * `sched91 serve`: a long-lived scheduling daemon over a local
 * (AF_UNIX) stream socket, newline-delimited JSON in both directions
 * (service/protocol.hh).
 *
 * Structure (docs/ROBUSTNESS.md):
 *
 *  - one I/O thread owns every socket: it poll()s the listening
 *    socket, a self-pipe and every connection, all non-blocking.  A
 *    readable connection gets one recv (support/line_io.hh; an 8 MiB
 *    cap on an unterminated line); each line is decoded once and
 *    admitted through a bounded MPMC queue (service/bounded_queue.hh)
 *    — a full queue is answered "rejected"/overloaded at once;
 *  - worker lanes run on the repo's own ThreadPool, each popping
 *    requests and running them through the Engine's resilience
 *    ladder (in-process, or in the lane's sandbox worker under
 *    --isolate=process).  A lane hands its answer over through one
 *    list and a byte on the self-pipe and never touches a socket;
 *    the I/O thread writes it from the connection's outbound buffer.
 *    A connection whose unsent answers pass kOutboundCapBytes is not
 *    read until they drain, so a client that never reads stalls only
 *    itself;
 *  - requestDrain() — async-signal-safe: one relaxed store plus one
 *    non-blocking write(2) to the self-pipe — stops admission (lines
 *    already read are answered "rejected"/draining), lets workers
 *    finish everything already admitted, gives clients kDrainDeadline
 *    to take their answers, then emits one final stats document.
 *    Zero accepted requests are lost on SIGINT/SIGTERM.
 *
 * Observability in a long-lived process: the daemon owns the flight-
 * recorder rings (obs::flight::setExternallyManaged), claims one per
 * worker lane, and installs per-lane counter shards; runPipeline
 * detects external management and skips its own flight bracket, and
 * adds each run's counts to the lane's shard.  After every request
 * the lane adds its shard into one published aggregate and clears
 * it, so live scrapes and the drain document read the same counts.
 * Request latency and queue-wait distributions land in
 * `svc.request_ns` / `svc.queue_wait_ns` histograms; svc.* counters
 * are the engine's atomics (the I/O thread bumps them too, and has no
 * shard), named once in kSvcTallies (service/engine.hh) and overlaid
 * on every stats document.
 *
 * Live telemetry (docs/OBSERVABILITY.md):
 *
 *  - control lines (`{"type": "stats" | "health" | "trace-dump"}`)
 *    are answered on the I/O thread, *without* entering the
 *    admission queue, so introspection works while the service is
 *    saturated or shedding;
 *  - `stats` returns the same document shape as the drain-time stats
 *    file — one schema for live scrapes, periodic snapshots, and the
 *    final document — or a Prometheus text exposition
 *    (obs/exposition.hh) when `"format": "prometheus"`;
 *  - every admitted request gets a trace id; workers report per-phase
 *    spans back through the response envelope, and the daemon merges
 *    queue/rung/respawn/phase spans into one Chrome-trace stream
 *    (obs/chrome_trace.hh), dumpable live via `trace-dump` or at
 *    drain via `--trace-json`;
 *  - `--snapshot-seconds N` appends one stats document (with a
 *    delta-since-last-snapshot section) to a JSONL file every N
 *    seconds, written whole to a temp file and renamed, so readers
 *    never see a torn write.
 */

#ifndef SCHED91_SERVICE_DAEMON_HH
#define SCHED91_SERVICE_DAEMON_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/chrome_trace.hh"
#include "obs/counters.hh"
#include "obs/histogram.hh"
#include "service/bounded_queue.hh"
#include "service/engine.hh"

namespace sched91::service
{

struct DaemonConfig
{
    std::string socketPath = "/tmp/sched91.sock";

    /** Worker lanes; 0 = hardware concurrency. */
    unsigned workers = 0;

    /** Admission-queue depth (requests waiting for a worker). */
    std::size_t queueCapacity = 64;

    EngineConfig engine;

    /** Final stats document destination: "-" = stdout, "" = none. */
    std::string statsPath = "-";

    /** Zero wall-clock fields in the final stats (determinism
     * tests). */
    bool zeroTimes = false;

    /** Periodic telemetry snapshots: every N seconds append one stats
     * document (with a delta-since-last-snapshot section) to
     * snapshotPath, written temp-then-rename.  0 = off. */
    double snapshotSeconds = 0.0;

    /** JSONL file the periodic snapshots go to; empty = off. */
    std::string snapshotPath;

    /** Merged Chrome-trace destination at drain: "-" = stdout,
     * "" = none.  (`trace-dump` serves the same stream live.) */
    std::string tracePath;

    // --- Process isolation (`--isolate=process`) --------------------
    /** Run ladder attempts in pre-forked sandbox subprocesses
     * (service/supervisor.hh) instead of in-process. */
    bool isolateProcess = false;

    /** Kill time of a sandbox attempt for a deadline-less request,
     * ms. */
    int isolateHangMs = 10'000;

    /** Per-worker RLIMIT_CPU seconds; 0 = unlimited. */
    int isolateRlimitCpu = 0;

    /** Per-worker RLIMIT_AS MiB; 0 = unlimited (keep 0 under
     * sanitizers). */
    std::size_t isolateRlimitAsMb = 0;

    /** Sandbox worker executable override; empty = /proc/self/exe. */
    std::string sandboxWorkerExe;
};

class Supervisor;

class Daemon
{
  public:
    /** One admitted request, queued between the I/O thread and a
     * lane. */
    struct Request
    {
        RequestSpec spec;
        std::uint64_t conn = 0; ///< the asking connection's id
        std::chrono::steady_clock::time_point arrival;
        double deadlineMs = 0.0; ///< resolved (request or default)
    };

    /** Unsent answer bytes past which a connection is not read. */
    static constexpr std::size_t kOutboundCapBytes = 1u << 20;

    /** How long a drain that has answered every admitted request
     * waits for clients to take their answers. */
    static constexpr std::chrono::milliseconds kDrainDeadline{2000};

    explicit Daemon(DaemonConfig config);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Bind, listen, serve, drain.  Blocks until requestDrain() (or a
     * fatal socket error) and returns the exit code for main():
     * 0 = clean drain.  Throws FatalError on setup errors.
     */
    int run();

    /** Begin graceful drain.  Async-signal-safe. */
    void requestDrain();

    bool draining() const
    {
        return drain_.load(std::memory_order_relaxed);
    }

    /** Service tallies (tests). */
    SvcCounters &counters() { return engine_.counters(); }

  private:
    struct Connection;
    struct WorkerSlot;

    // --- The I/O thread ---------------------------------------------
    void ioLoop();
    void acceptOne();
    /** @p c's lines while it is read and under its cap: those
     * buffered, then (with @p recv) those one recv brings. */
    void takeLines(Connection &c, bool recv);
    /** Decode one wire line, a view into @p c's read buffer, once:
     * answer it if it is a control line, else admit it. */
    void handleLine(Connection &c, std::string_view line);
    /** Answer a control request; false when @p ctl is none (take the
     * scheduling path). */
    bool answerControl(Connection &c, const ControlRequest &ctl);
    void respond(Connection &c, std::string_view line);
    /** Queue the lanes' answers on their connections. */
    void takeAnswers();

    // --- The lanes --------------------------------------------------
    void workerLoop(unsigned lane);
    /** Give @p answer for connection @p conn to the I/O thread. */
    void handOff(std::uint64_t conn, std::string answer);

    /**
     * The one stats-document builder behind every consumer — the live
     * `stats` endpoint, periodic snapshots, and the drain-time file —
     * so all three share a schema.  @p id is echoed when non-empty;
     * @p delta, when non-null, adds a "delta" section (snapshot
     * mode).
     */
    std::string statsDocument(const std::string &id,
                              const obs::CounterSet *delta);

    /** Prometheus text exposition of the same telemetry. */
    std::string prometheusDocument();

    std::string healthDocument(const std::string &id);
    std::string traceDumpDocument(const std::string &id);

    /** Counter telemetry for stats/exposition: the lanes' published
     * counts, named, overlaid with the live svc.* service tallies. */
    obs::CounterSet liveCounters();

    void snapshotLoop();

    DaemonConfig config_;
    Engine engine_;
    BoundedQueue<Request> queue_;
    std::unique_ptr<Supervisor> supervisor_; ///< only under --isolate

    int listenFd_ = -1;
    int wakePipe_[2] = {-1, -1}; ///< the I/O thread's; non-blocking
    std::atomic<bool> drain_{false};

    using Answer = std::pair<std::uint64_t, std::string>; ///< conn id
    std::mutex answersMu_;
    std::vector<Answer> answers_; ///< handed over, not yet taken

    // The I/O thread's own state; no other thread touches it.
    std::unordered_map<std::uint64_t, std::unique_ptr<Connection>>
        conns_;
    std::uint64_t nextConnId_ = 0;
    std::uint64_t traceSeq_ = 0;  ///< the last trace id assigned
    std::size_t outstanding_ = 0; ///< admitted, not yet answered
    std::vector<Answer> taken_;   ///< answers_ swapped out
    /** The listen socket is out of the poll set until then (accept ran
     * short of descriptors or memory). */
    std::chrono::steady_clock::time_point listenAt_{};
    bool starved_ = false; ///< in a stretch of transient accept failures

    std::vector<std::unique_ptr<WorkerSlot>> slots_;

    // --- Live telemetry ---------------------------------------------
    obs::ServiceTraceLog traceLog_;
    std::chrono::steady_clock::time_point startTime_{};

    /** Guards the published telemetry: lanes record queue-wait /
     * request latency and add their counter shard here per request;
     * control responses copy it.  Two short critical sections per
     * request — noise next to the scheduling work. */
    std::mutex publishMu_;
    obs::HistogramSet publishedHists_;
    obs::CounterShard publishedCounters_;

    std::thread snapshotThread_;
    std::mutex snapMu_;
    std::condition_variable snapCv_;
    bool snapStop_ = false;
};

} // namespace sched91::service

#endif // SCHED91_SERVICE_DAEMON_HH
