#include "service/daemon.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <system_error>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/exposition.hh"
#include "obs/flight_recorder.hh"
#include "obs/json.hh"
#include "obs/json_parse.hh"
#include "obs/memory.hh"
#include "service/supervisor.hh"
#include "support/fault_inject.hh"
#include "support/line_io.hh"
#include "support/log.hh"
#include "support/logging.hh"
#include "support/string_util.hh"
#include "support/thread_pool.hh"

namespace sched91::service
{

namespace
{

/** Reader poll interval: the latency bound on noticing a drain.  Also
 * the acceptor's retry interval while descriptors run short. */
constexpr int kPollMs = 200;

/** Request lines larger than this are a protocol violation, answered
 * with an error and a closed connection — the admission path must
 * never buffer unboundedly. */
constexpr std::size_t kMaxLineBytes = 8u << 20;

double
elapsedSeconds(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/** Nanoseconds from @p epoch to @p tp, clamped at zero — the span
 * timebase every trace event shares. */
std::uint64_t
nsSince(std::chrono::steady_clock::time_point epoch,
        std::chrono::steady_clock::time_point tp)
{
    const auto d = tp - epoch;
    if (d.count() <= 0)
        return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d)
            .count());
}

} // namespace

/** One client connection: the fd plus a write lock so concurrent
 * workers (and the reader's error path) never interleave response
 * lines.  Owned by shared_ptr — queued requests keep the fd alive
 * after the reader exits, so a draining daemon can still answer
 * everything it admitted. */
struct Daemon::Connection
{
    explicit Connection(int fd) : fd(fd) {}
    ~Connection()
    {
        if (fd >= 0)
            ::close(fd);
    }

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /** Send one response line; a client that hung up just loses it
     * (its responses have nowhere to go). */
    void
    respond(const std::string &line)
    {
        std::lock_guard<std::mutex> lock(writeMu);
        (void)writeLine(fd, line);
    }

    int fd;
    std::mutex writeMu;
};

/** Per-worker-lane observability kit, set up before the lanes start.
 * The shard is published and cleared after every request. */
struct Daemon::WorkerSlot
{
    obs::CounterShard shard;
    obs::flight::Recorder *flight = nullptr;
};

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)), engine_(config_.engine),
      queue_(config_.queueCapacity)
{
    // Made before any thread exists: requestDrain() may run on another
    // thread (or in a signal handler) at any time, even before run().
    if (::pipe(wakePipe_) < 0)
        fatal("serve: pipe(): ", std::strerror(errno));
}

Daemon::~Daemon()
{
    if (listenFd_ >= 0)
        ::close(listenFd_);
    for (int fd : wakePipe_)
        if (fd >= 0)
            ::close(fd);
}

void
Daemon::requestDrain()
{
    // Async-signal-safe: relaxed store + one write(2).  Everything
    // heavier (queue close, joins, stats) happens on normal threads
    // that this write wakes up.
    drain_.store(true, std::memory_order_relaxed);
    char byte = 'd';
    if (wakePipe_[1] >= 0)
        (void)!::write(wakePipe_[1], &byte, 1);
}

int
Daemon::run()
{
    startTime_ = std::chrono::steady_clock::now();

    // --- Socket setup -----------------------------------------------
    if (config_.socketPath.empty())
        fatal("serve: --socket path must not be empty");
    if (config_.socketPath.size() >= sizeof(sockaddr_un{}.sun_path))
        fatal("serve: socket path '", config_.socketPath,
              "' too long for AF_UNIX");
    ::unlink(config_.socketPath.c_str());

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0)
        fatal("serve: socket(): ", std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, config_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0)
        fatal("serve: bind('", config_.socketPath,
              "'): ", std::strerror(errno));
    if (::listen(listenFd_, 64) < 0)
        fatal("serve: listen(): ", std::strerror(errno));

    unsigned lanes = config_.workers != 0
                         ? config_.workers
                         : ThreadPool::hardwareConcurrency();
    if (lanes == 0)
        lanes = 1;

    // --- Observability: the daemon owns the flight rings ------------
    const bool flight_on = obs::flight::enabled();
    if (flight_on) {
        obs::flight::beginRun();
        obs::flight::setExternallyManaged(true);
    }

    slots_.clear();
    for (unsigned i = 0; i < lanes; ++i) {
        slots_.push_back(std::make_unique<WorkerSlot>());
        if (flight_on)
            slots_.back()->flight = obs::flight::claim();
    }

    // --- Process isolation: one sandbox worker per lane -------------
    if (config_.isolateProcess) {
        SupervisorConfig scfg;
        scfg.workers = lanes;
        scfg.engine = config_.engine;
        scfg.workerExe = config_.sandboxWorkerExe;
        if (fault::enabled())
            scfg.faultSpec = fault::specString(fault::activeConfig());
        scfg.rlimitCpuSeconds = config_.isolateRlimitCpu;
        scfg.rlimitAsMb = config_.isolateRlimitAsMb;
        scfg.hangTimeoutMs = config_.isolateHangMs;
        scfg.crashDir = config_.engine.outlierDir;
        supervisor_ =
            std::make_unique<Supervisor>(std::move(scfg), engine_);
        supervisor_->start();
    }

    log::info("sched91 serve: listening on ", config_.socketPath,
              " (", lanes, " worker", lanes == 1 ? "" : "s",
              ", queue depth ", queue_.capacity(), ")");

    // --- Periodic telemetry snapshots -------------------------------
    if (config_.snapshotSeconds > 0.0 && !config_.snapshotPath.empty())
        snapshotThread_ = std::thread([this] { snapshotLoop(); });

    // --- Serve ------------------------------------------------------
    std::thread acceptor([this] { acceptLoop(); });
    {
        // Worker lanes on the repo's own pool.  Each chunk is one
        // long-running lane loop; lanes exit when the queue is closed
        // *and* drained, so parallelFor returning is the "all
        // admitted work answered" barrier.
        ThreadPool pool(lanes);
        pool.parallelFor(lanes, 1,
                         [this](unsigned, std::size_t begin,
                                std::size_t end) {
                             for (std::size_t lane = begin; lane < end;
                                  ++lane)
                                 workerLoop(
                                     static_cast<unsigned>(lane));
                         });
    }
    acceptor.join();
    {
        // Readers are detached; each leaves within one drain poll.
        std::unique_lock<std::mutex> lock(liveMu_);
        readersGone_.wait(lock, [this] { return liveReaders_ == 0; });
    }
    if (supervisor_)
        supervisor_->stop(); // every lane is idle: clean pool drain

    // Snapshot thread last among the live-telemetry producers: its
    // final tick (emitted on stop) sees every answered request.
    if (snapshotThread_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(snapMu_);
            snapStop_ = true;
        }
        snapCv_.notify_all();
        snapshotThread_.join();
    }

    // --- Final accounting (single-threaded from here) ---------------
    if (flight_on)
        obs::flight::setExternallyManaged(false);

    emitFinalStats();
    emitFinalTrace();

    ::unlink(config_.socketPath.c_str());
    log::info("sched91 serve: drained cleanly (",
              engine_.counters().ok.load() +
                  engine_.counters().degraded.load(),
              " answered, ", engine_.counters().rejected.load(),
              " shed)");
    return 0;
}

void
Daemon::acceptLoop()
{
    bool starved = false; // in a stretch of transient accept failures
    while (!draining()) {
        pollfd fds[2] = {{listenFd_, POLLIN, 0},
                         {wakePipe_[0], POLLIN, 0}};
        int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            log::error("serve: poll(): ", std::strerror(errno));
            requestDrain();
            break;
        }
        if (draining())
            break;
        if (!(fds[0].revents & POLLIN))
            continue;
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            if (errno != EMFILE && errno != ENFILE && errno != ENOBUFS &&
                errno != ENOMEM) {
                log::error("serve: accept(): ", std::strerror(errno));
                requestDrain();
                break;
            }
            // Out of descriptors or memory: the connection waits in
            // the listen backlog until a closing one frees some.  No
            // ostringstream here: with no descriptor left, a UBSan
            // build's vptr check (it probes memory through a pipe)
            // would abort the daemon.
            if (!starved)
                log::write(log::Level::Warn,
                           "serve: accept(): " +
                               std::string(std::strerror(errno)) +
                               "; retrying");
            starved = true;
            pollfd wake = {wakePipe_[0], POLLIN, 0};
            (void)::poll(&wake, 1, kPollMs);
            continue;
        }
        starved = false;
        {
            std::lock_guard<std::mutex> lock(liveMu_);
            ++liveReaders_;
        }
        // Detached, so a reader and its stack leave with its
        // connection; drain waits for the live count instead.  Past
        // the notify the thread touches nothing of the daemon.
        const auto readerGone = [this] {
            std::lock_guard<std::mutex> lock(liveMu_);
            if (--liveReaders_ == 0)
                readersGone_.notify_all();
        };
        try {
            std::thread([readerGone, this,
                         conn = std::make_shared<Connection>(fd)] {
                readerLoop(conn);
                readerGone();
            }).detach();
        } catch (const std::system_error &e) {
            // No thread to read it: the connection closes unread, and
            // its reader is no longer counted.
            log::warn("serve: cannot start a reader thread: ", e.what());
            readerGone();
        }
    }
    // Drain: stop admitting.  Closing the queue is the barrier that
    // lets workers finish everything already accepted, then exit.
    queue_.close();
}

void
Daemon::handleLine(const std::shared_ptr<Connection> &conn,
                   std::string_view line)
{
    if (line.empty())
        return;
    const auto refuse = [this, &conn](const std::string &error) {
        engine_.counters().error.fetch_add(1,
                                           std::memory_order_relaxed);
        conn->respond(errorLine("", error));
    };
    // One decode per line; control and request lines are told apart
    // from the decoded value.
    obs::JsonValue doc;
    std::string error;
    if (!decodeLine(line, doc, error)) {
        refuse(error);
        return;
    }
    // Control lines bypass admission entirely: they are answered here
    // on the reader thread, so `stats`/`health` stay responsive while
    // every lane is busy and the queue is shedding.
    if (answerControl(conn, controlFromJson(doc)))
        return;
    std::optional<RequestSpec> spec = requestFromJson(doc, error);
    if (!spec) {
        refuse(error);
        return;
    }
    Request req;
    req.spec = std::move(*spec);
    req.conn = conn;
    req.arrival = std::chrono::steady_clock::now();
    if (req.spec.traceId.empty())
        req.spec.traceId = numbered(
            "t", traceSeq_.fetch_add(1, std::memory_order_relaxed) + 1);
    req.deadlineMs = req.spec.deadlineMs > 0.0
                         ? req.spec.deadlineMs
                         : config_.engine.defaultDeadlineMs;
    const std::string id = req.spec.id;
    if (!queue_.tryPush(std::move(req))) {
        engine_.counters().rejected.fetch_add(
            1, std::memory_order_relaxed);
        conn->respond(rejectedLine(
            id, draining() ? "draining" : "overloaded"));
        return;
    }
    engine_.counters().accepted.fetch_add(1,
                                          std::memory_order_relaxed);
}

bool
Daemon::answerControl(const std::shared_ptr<Connection> &conn,
                      const ControlRequest &ctl)
{
    switch (ctl.type) {
    case ControlType::None:
        return false;
    case ControlType::Invalid:
        conn->respond(errorLine(ctl.id, ctl.error));
        return true;
    case ControlType::Stats:
        if (ctl.format == "prometheus") {
            obs::JsonWriter w;
            w.beginObject();
            if (!ctl.id.empty())
                w.key("id").value(ctl.id);
            w.key("status").value("ok");
            w.key("format").value("prometheus");
            w.key("exposition").value(prometheusDocument());
            w.endObject();
            conn->respond(w.take());
        } else {
            conn->respond(statsDocument(ctl.id, nullptr));
        }
        return true;
    case ControlType::Health:
        conn->respond(healthDocument(ctl.id));
        return true;
    case ControlType::TraceDump:
        conn->respond(traceDumpDocument(ctl.id));
        return true;
    }
    return false;
}

void
Daemon::readerLoop(const std::shared_ptr<Connection> &conn)
{
    LineReader reader(conn->fd, kMaxLineBytes);
    std::string_view line;
    for (;;) {
        // A drain reads no more: a zero timeout hands out the lines
        // already read, then times out.
        const bool drain = draining();
        switch (reader.read(line, drain ? 0 : kPollMs)) {
        case LineReader::Status::Line:
            handleLine(conn, line);
            break;
        case LineReader::Status::Timeout:
            if (drain)
                return;
            break; // re-check the drain flag
        case LineReader::Status::TooLong:
            engine_.counters().error.fetch_add(
                1, std::memory_order_relaxed);
            conn->respond(errorLine("", "request line exceeds 8 MiB"));
            return;
        case LineReader::Status::Eof:
            // An unterminated last line: lenient, treat it as a
            // request (a drain, by contrast, just stops reading).
            if (!draining() && !reader.rest().empty())
                handleLine(conn, reader.rest());
            return;
        }
    }
}

void
Daemon::workerLoop(unsigned lane)
{
    WorkerSlot &slot = *slots_[lane];
    // The lane's observability kit: all counter and flight traffic
    // from the requests this lane runs lands in lane-private state;
    // the counts are published after every request.
    std::optional<obs::ScopedCounterShard> shard_scope;
    if (obs::enabled())
        shard_scope.emplace(slot.shard);
    std::optional<obs::flight::ScopedRecorder> flight_scope;
    if (slot.flight != nullptr)
        flight_scope.emplace(slot.flight);

    while (std::optional<Request> req = queue_.pop()) {
        const double waited = elapsedSeconds(req->arrival);
        {
            std::lock_guard<std::mutex> lock(publishMu_);
            publishedHists_.record("svc.queue_wait_ns",
                                   obs::secondsToNs(waited));
        }

        // The request's span tree: one timebase (daemon start) for
        // the whole process group, so parent and worker spans nest.
        obs::RequestTrace trace;
        trace.log = &traceLog_;
        trace.traceId = req->spec.traceId;
        trace.lane = lane;
        trace.epoch = startTime_;
        const std::uint64_t arrivalNs =
            nsSince(startTime_, req->arrival);
        const std::uint64_t pickupNs = trace.nowNs();
        trace.span("queue", -1, arrivalNs, pickupNs);

        double remaining = 0.0;
        if (req->deadlineMs > 0.0) {
            remaining = req->deadlineMs / 1000.0 - waited;
            if (remaining <= 0.0) {
                // Expired while queued: shedding it now is cheaper
                // and more honest than starting doomed work.  This is
                // the admitted-then-shed leg of the conservation law
                // (accepted == ok + degraded + error +
                // rejected_after_admit) the soak client checks.
                engine_.counters().deadlineExpired.fetch_add(
                    1, std::memory_order_relaxed);
                engine_.counters().rejectedAfterAdmit.fetch_add(
                    1, std::memory_order_relaxed);
                engine_.counters().rejected.fetch_add(
                    1, std::memory_order_relaxed);
                req->conn->respond(
                    rejectedLine(req->spec.id, "deadline"));
                trace.span("request", -1, arrivalNs, trace.nowNs(),
                           "shed: deadline");
                continue;
            }
        }

        obs::flight::setBlock(lane); // key events by lane
        const auto started = std::chrono::steady_clock::now();
        std::string response;
        try {
            response = supervisor_
                           ? supervisor_->process(lane, req->spec,
                                                  remaining, &trace)
                           : engine_.process(req->spec, remaining,
                                             &trace);
        } catch (const std::exception &e) {
            // The engine contract is "never throws"; this is the
            // daemon's own last-resort containment.
            engine_.counters().error.fetch_add(
                1, std::memory_order_relaxed);
            response = errorLine(req->spec.id, e.what());
        }
        {
            // Published before the response goes out: a client that
            // has every answer sees every count in a `stats` scrape.
            std::lock_guard<std::mutex> lock(publishMu_);
            publishedHists_.record(
                "svc.request_ns",
                obs::secondsToNs(elapsedSeconds(started)));
            slot.shard.flushInto(publishedCounters_);
            slot.shard.clear();
        }
        trace.span("request", -1, arrivalNs, trace.nowNs());
        req->conn->respond(response);
    }
}

obs::CounterSet
Daemon::liveCounters()
{
    obs::CounterSet set;
    if (obs::enabled()) {
        std::lock_guard<std::mutex> lock(publishMu_);
        set = publishedCounters_.named();
    }
    // svc.* tallies live in plain atomics, never in the registry;
    // overlay them so live scrapes and the final document agree.
    const SvcCounters &c = engine_.counters();
    for (const SvcTally &t : kSvcTallies)
        if (!t.isolationOnly || config_.isolateProcess)
            set.set(t.counter, (c.*t.value).load());
    return set;
}

std::string
Daemon::statsDocument(const std::string &id,
                      const obs::CounterSet *delta)
{
    obs::HistogramSet hists;
    {
        std::lock_guard<std::mutex> lock(publishMu_);
        hists = publishedHists_;
    }

    obs::JsonWriter w;
    w.beginObject();
    w.key("sched91_serve_stats").value(1);
    if (!id.empty())
        w.key("id").value(id);
    w.key("meta").beginObject();
    w.key("command").value("serve");
    w.key("stats_schema").value(1);
    w.key("socket").value(config_.socketPath);
    w.key("workers")
        .value(static_cast<std::uint64_t>(slots_.size()));
    w.key("queue_capacity")
        .value(static_cast<std::uint64_t>(queue_.capacity()));
    w.key("machine").value(config_.engine.machineName);
    w.key("uptime_seconds")
        .value(config_.zeroTimes ? 0.0
                                 : elapsedSeconds(startTime_));
    if (config_.isolateProcess)
        w.key("isolate").value("process");
    if (fault::enabled())
        w.key("fault_inject")
            .value(fault::specString(fault::activeConfig()));
    w.endObject();

    // The ladder's tallies, the quarantine gauge, then the pool's.
    const SvcCounters &c = engine_.counters();
    const auto tallies = [&w, &c](bool isolationOnly) {
        for (const SvcTally &t : kSvcTallies)
            if (t.isolationOnly == isolationOnly)
                w.key(t.key).value((c.*t.value).load());
    };
    w.key("service").beginObject();
    tallies(false);
    w.key("quarantine_size")
        .value(static_cast<std::uint64_t>(engine_.quarantineSize()));
    if (config_.isolateProcess) {
        tallies(true);
        w.key("workers_live")
            .value(static_cast<std::uint64_t>(
                supervisor_ ? supervisor_->liveWorkers() : 0));
    }
    w.endObject();

    w.key("queue").beginObject();
    w.key("depth").value(static_cast<std::uint64_t>(queue_.size()));
    w.key("capacity")
        .value(static_cast<std::uint64_t>(queue_.capacity()));
    w.endObject();

    w.key("memory").beginObject();
    w.key("peak_rss_bytes")
        .value(config_.zeroTimes ? std::uint64_t{0}
                                 : obs::currentPeakRssBytes());
    w.endObject();

    w.key("trace").beginObject();
    w.key("spans")
        .value(static_cast<std::uint64_t>(traceLog_.size()));
    w.key("dropped").value(traceLog_.dropped());
    w.endObject();

    if (obs::enabled()) {
        // Bind the set before iterating: items() is a view into its
        // owner, and a temporary would be gone before the loop body.
        const obs::CounterSet live = liveCounters().nonzero();
        w.key("counters").beginObject();
        for (const auto &[name, value] : live.items())
            w.key(name).value(value);
        w.endObject();
    }

    if (delta != nullptr) {
        const obs::CounterSet changed = delta->nonzero();
        w.key("delta").beginObject();
        for (const auto &[name, value] : changed.items())
            w.key(name).value(value);
        w.endObject();
    }

    w.key("histograms").beginObject();
    for (const auto &[name, hist] : hists.items()) {
        const bool zero =
            config_.zeroTimes && obs::isTimeHistogram(name);
        w.key(name).beginObject();
        w.key("count").value(hist.count());
        w.key("mean").value(zero ? 0.0 : hist.mean());
        w.key("p50").value(zero ? 0 : hist.percentile(50));
        w.key("p90").value(zero ? 0 : hist.percentile(90));
        w.key("p99").value(zero ? 0 : hist.percentile(99));
        w.key("max").value(zero ? 0 : hist.max());
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.take();
}

std::string
Daemon::prometheusDocument()
{
    obs::HistogramSet hists;
    {
        std::lock_guard<std::mutex> lock(publishMu_);
        hists = publishedHists_;
    }
    const obs::CounterSet counters = liveCounters().nonzero();

    obs::PromDoc doc;
    doc.counters = &counters;
    doc.registry = &obs::CounterRegistry::global();
    doc.histograms = &hists;
    doc.gauges.push_back(
        {"svc.uptime_seconds",
         config_.zeroTimes ? 0.0 : elapsedSeconds(startTime_)});
    doc.gauges.push_back(
        {"svc.queue_depth", static_cast<double>(queue_.size())});
    doc.gauges.push_back({"svc.queue_capacity",
                          static_cast<double>(queue_.capacity())});
    doc.gauges.push_back(
        {"svc.quarantine_size",
         static_cast<double>(engine_.quarantineSize())});
    if (config_.isolateProcess)
        doc.gauges.push_back(
            {"svc.workers_live",
             static_cast<double>(
                 supervisor_ ? supervisor_->liveWorkers() : 0)});
    doc.gauges.push_back(
        {"mem.peak_rss_bytes",
         config_.zeroTimes
             ? 0.0
             : static_cast<double>(obs::currentPeakRssBytes())});
    doc.labels.emplace_back("machine", config_.engine.machineName);
    return obs::prometheusExposition(doc);
}

std::string
Daemon::healthDocument(const std::string &id)
{
    const SvcCounters &c = engine_.counters();
    obs::JsonWriter w;
    w.beginObject();
    w.key("sched91_serve_health").value(1);
    if (!id.empty())
        w.key("id").value(id);
    w.key("status").value(draining() ? "draining" : "ok");
    w.key("uptime_seconds")
        .value(config_.zeroTimes ? 0.0
                                 : elapsedSeconds(startTime_));
    w.key("workers")
        .value(static_cast<std::uint64_t>(slots_.size()));
    if (config_.isolateProcess)
        w.key("workers_live")
            .value(static_cast<std::uint64_t>(
                supervisor_ ? supervisor_->liveWorkers() : 0));
    w.key("queue_depth")
        .value(static_cast<std::uint64_t>(queue_.size()));
    w.key("queue_capacity")
        .value(static_cast<std::uint64_t>(queue_.capacity()));
    w.key("accepted").value(c.accepted.load());
    w.key("rejected").value(c.rejected.load());
    w.endObject();
    return w.take();
}

std::string
Daemon::traceDumpDocument(const std::string &id)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("sched91_serve_trace").value(1);
    if (!id.empty())
        w.key("id").value(id);
    w.key("status").value("ok");
    w.key("spans")
        .value(static_cast<std::uint64_t>(traceLog_.size()));
    w.key("dropped").value(traceLog_.dropped());
    w.endObject();
    // chromeJson() is itself one JSON document on one line; splice it
    // in as the "trace" value so framing stays line-delimited.
    std::string doc = w.take();
    doc.pop_back(); // trailing '}'
    doc += ",\"trace\":";
    doc += traceLog_.chromeJson(config_.zeroTimes);
    doc += '}';
    return doc;
}

void
Daemon::snapshotLoop()
{
    obs::SnapshotDeltaTracker tracker(obs::CounterRegistry::global());
    std::vector<std::string> lines;

    const auto writeAll = [this, &lines] {
        const std::string tmp = config_.snapshotPath + ".tmp";
        {
            std::ofstream out(tmp);
            if (!out) {
                log::error("serve: cannot write snapshot to '", tmp,
                           "'");
                return;
            }
            for (const std::string &line : lines)
                out << line << '\n';
        }
        if (std::rename(tmp.c_str(),
                        config_.snapshotPath.c_str()) != 0)
            log::error("serve: rename('", tmp, "' -> '",
                       config_.snapshotPath,
                       "'): ", std::strerror(errno));
    };

    const auto interval =
        std::chrono::duration<double>(config_.snapshotSeconds);
    std::unique_lock<std::mutex> lock(snapMu_);
    for (;;) {
        const bool stopping = snapCv_.wait_for(
            lock, interval, [this] { return snapStop_; });
        lock.unlock();
        // One tick per interval — and one final tick on stop, so the
        // last snapshot line covers everything the daemon answered.
        obs::CounterSet delta = tracker.advance(liveCounters());
        lines.push_back(statsDocument("", &delta));
        writeAll();
        if (stopping)
            return;
        lock.lock();
    }
}

void
Daemon::emitFinalStats()
{
    if (config_.statsPath.empty())
        return;

    std::string doc = statsDocument("", nullptr);
    doc += '\n';
    if (config_.statsPath == "-") {
        std::fputs(doc.c_str(), stdout);
        std::fflush(stdout);
        return;
    }
    std::ofstream out(config_.statsPath);
    if (!out) {
        log::error("serve: cannot write stats to '",
                   config_.statsPath, "'");
        return;
    }
    out << doc;
}

void
Daemon::emitFinalTrace()
{
    if (config_.tracePath.empty())
        return;

    std::string doc = traceLog_.chromeJson(config_.zeroTimes);
    doc += '\n';
    if (config_.tracePath == "-") {
        std::fputs(doc.c_str(), stdout);
        std::fflush(stdout);
        return;
    }
    std::ofstream out(config_.tracePath);
    if (!out) {
        log::error("serve: cannot write trace to '",
                   config_.tracePath, "'");
        return;
    }
    out << doc;
}

} // namespace sched91::service
