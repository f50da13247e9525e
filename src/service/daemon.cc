#include "service/daemon.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

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

using Clock = std::chrono::steady_clock;

/** How long the listen socket stays out of the poll set after accept
 * ran short of descriptors or memory. */
constexpr std::chrono::milliseconds kAcceptRetry{200};

/** Request lines larger than this are a protocol violation, answered
 * with an error and a closed connection — the admission path must
 * never buffer unboundedly. */
constexpr std::size_t kMaxLineBytes = 8u << 20;

double
elapsedSeconds(Clock::time_point since)
{
    return std::chrono::duration<double>(Clock::now() - since).count();
}

/** A poll timeout: milliseconds until @p when, rounded up. */
int
msUntil(Clock::time_point when)
{
    using std::chrono::milliseconds;
    return static_cast<int>(std::clamp<long long>(
        std::chrono::ceil<milliseconds>(when - Clock::now()).count(), 0,
        1 << 30));
}

/** Write @p doc and a newline to @p path, or to stdout for "-". */
void
emitDocument(const std::string &path, std::string doc, const char *what)
{
    doc += '\n';
    if (path == "-") {
        std::fputs(doc.c_str(), stdout);
        std::fflush(stdout);
        return;
    }
    std::ofstream out(path);
    if (out)
        out << doc;
    else
        log::error("serve: cannot write ", what, " to '", path, "'");
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

/**
 * Bookkeeping for periodic delta emission (`--snapshot-seconds`):
 * remembers the previous observation and yields the kind-aware delta
 * each time a new snapshot arrives.  Sum counters subtract (clamped at
 * zero, so a reset source never yields an underflowed delta); Max
 * gauges report the current value as-is — a high-water mark has no
 * meaningful subtraction.  Names only in the previous observation are
 * dropped; names outside the counter roster (the svc.* tallies) count
 * as Sum.  The first advance() deltas against zero, so the first
 * emitted snapshot covers everything since startup.
 */
class SnapshotDeltaTracker
{
  public:
    /** Delta of @p now against the previous call; remembers @p now. */
    obs::CounterSet
    advance(const obs::CounterSet &now)
    {
        obs::CounterSet delta;
        for (const auto &[name, value] : now.items()) {
            std::uint64_t v = value;
            if (obs::kindOf(name) == obs::CounterKind::Sum) {
                const std::uint64_t prev = last_.value(name);
                v = v > prev ? v - prev : 0;
            }
            delta.set(name, v);
        }
        last_ = now;
        return delta;
    }

  private:
    obs::CounterSet last_;
};

} // namespace

/** One client connection, owned by the I/O thread alone.  Lanes name
 * it by id, so an answer for a connection that is gone is dropped. */
struct Daemon::Connection
{
    Connection(int fd, std::uint64_t id)
        : fd(fd), id(id), reader(fd, kMaxLineBytes), writer(fd)
    {
    }
    ~Connection() { ::close(fd); }

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /** Too many unsent answers: read no more until they drain. */
    bool paused() const { return writer.pending() > kOutboundCapBytes; }

    int fd;
    std::uint64_t id;
    LineReader reader;
    LineWriter writer;     ///< the outbound buffer
    unsigned inFlight = 0; ///< admitted, not yet answered
    bool reading = true;   ///< false after EOF, an overlong line or a drain
    bool gone = false;     ///< the client hung up
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
    // Non-blocking, so a full pipe never blocks a lane or a signal
    // handler: the I/O thread has a byte to wake on anyway.
    if (::pipe2(wakePipe_, O_CLOEXEC | O_NONBLOCK) < 0)
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
    // Async-signal-safe: relaxed store + one non-blocking write(2).
    // Everything heavier (queue close, joins, stats) happens on normal
    // threads that this write wakes up.
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

    listenFd_ =
        ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
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
    std::thread io([this] { ioLoop(); });
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
    io.join();
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

    if (!config_.statsPath.empty())
        emitDocument(config_.statsPath, statsDocument("", nullptr), "stats");
    if (!config_.tracePath.empty())
        emitDocument(config_.tracePath,
                     traceLog_.chromeJson(config_.zeroTimes), "trace");

    ::unlink(config_.socketPath.c_str());
    log::info("sched91 serve: drained cleanly (",
              engine_.counters().ok.load() +
                  engine_.counters().degraded.load(),
              " answered, ", engine_.counters().rejected.load(),
              " shed)");
    return 0;
}

void
Daemon::ioLoop()
{
    std::vector<pollfd> fds;
    bool stopped = false; // a drain stopped admission
    Clock::time_point closeAt = Clock::time_point::max();
    for (;;) {
        if (draining() && !stopped) {
            // Closing the queue lets the lanes finish what was
            // admitted; the lines already read are answered "draining".
            stopped = true;
            queue_.close();
            for (auto &[id, c] : conns_) {
                takeLines(*c, false);
                c->reading = false;
            }
        }
        // Once a drain has every admitted request answered, clients
        // get kDrainDeadline to take what is still unsent.
        const bool closing = stopped && outstanding_ == 0;
        if (closing && closeAt == Clock::time_point::max())
            closeAt = Clock::now() + kDrainDeadline;
        const bool expired = Clock::now() >= closeAt;
        std::erase_if(conns_, [expired](const auto &entry) {
            const Connection &c = *entry.second;
            return expired || c.gone ||
                   (!c.reading && c.inFlight == 0 &&
                    c.writer.pending() == 0);
        });
        if (closing && conns_.empty())
            break;

        const bool listening = !stopped && Clock::now() >= listenAt_;
        fds.assign({{wakePipe_[0], POLLIN, 0},
                    {listening ? listenFd_ : -1, POLLIN, 0}});
        for (auto &[id, c] : conns_)
            fds.push_back(
                {c->fd,
                 static_cast<short>(
                     (c->reading && !c->paused() ? POLLIN : 0) |
                     (c->writer.pending() != 0 ? POLLOUT : 0)),
                 0});
        int timeout = -1;
        if (closeAt != Clock::time_point::max())
            timeout = msUntil(closeAt);
        else if (!stopped && !listening)
            timeout = msUntil(listenAt_);
        if (::poll(fds.data(), fds.size(), timeout) < 0) {
            if (errno == EINTR)
                continue;
            log::error("serve: poll(): ", std::strerror(errno));
            requestDrain();
            queue_.close();
            break;
        }

        if (fds[0].revents != 0)
            takeAnswers();
        // conns_ is as polled until acceptOne() adds to it.
        const pollfd *polled = fds.data() + 2;
        for (auto &[id, c] : conns_) {
            const short revents = (polled++)->revents;
            if ((revents & (POLLOUT | POLLHUP | POLLERR)) &&
                !c->writer.flush())
                c->gone = true;
            if (revents == 0 || c->gone)
                continue;
            if (c->reading) // POLLOUT alone resumes the lines read
                takeLines(*c, (revents & ~POLLOUT) != 0);
            else if (revents & (POLLHUP | POLLERR))
                c->gone = true; // nobody is left to take its answers
        }
        if (fds[1].revents != 0)
            acceptOne();
    }
    conns_.clear();
}

void
Daemon::acceptOne()
{
    const int fd = ::accept4(listenFd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
        starved_ = false;
        const std::uint64_t id = ++nextConnId_;
        conns_.emplace(id, std::make_unique<Connection>(fd, id));
        return;
    }
    if (errno == EINTR || errno == EAGAIN || errno == ECONNABORTED)
        return;
    if (errno != EMFILE && errno != ENFILE && errno != ENOBUFS &&
        errno != ENOMEM) {
        log::error("serve: accept(): ", std::strerror(errno));
        requestDrain();
        return;
    }
    // Out of descriptors or memory: the connection waits in the listen
    // backlog until a closing one frees some.  No ostringstream here:
    // with no descriptor left, a UBSan build's vptr check (it probes
    // memory through a pipe) would abort the daemon.
    if (!starved_)
        log::write(log::Level::Warn,
                   "serve: accept(): " + std::string(std::strerror(errno)) +
                       "; retrying");
    starved_ = true;
    listenAt_ = Clock::now() + kAcceptRetry;
}

void
Daemon::takeLines(Connection &c, bool recv)
{
    if (!c.reading || c.paused())
        return;
    // One recv per wakeup: readNow takes it, and read() with kNoWait
    // hands out the rest of what it brought.
    std::string_view line;
    LineReader::Status st = recv ? c.reader.readNow(line)
                                 : c.reader.read(line, LineReader::kNoWait);
    for (; st == LineReader::Status::Line;
         st = c.reader.read(line, LineReader::kNoWait)) {
        handleLine(c, line);
        if (c.gone || c.paused())
            return;
    }
    if (st == LineReader::Status::Timeout)
        return;
    if (st == LineReader::Status::TooLong) {
        engine_.counters().error.fetch_add(1, std::memory_order_relaxed);
        respond(c, errorLine("", "request line exceeds 8 MiB"));
    } else if (!c.reader.rest().empty()) {
        // Eof with an unterminated last line: lenient, a request.
        handleLine(c, c.reader.rest());
    }
    c.reading = false;
}

void
Daemon::respond(Connection &c, std::string_view line)
{
    // Bytes already waiting mean the client is full: POLLOUT sends.
    const bool idle = c.writer.pending() == 0;
    c.writer.queue(line);
    if (idle && !c.writer.flush())
        c.gone = true;
}

void
Daemon::takeAnswers()
{
    // Empty the pipe before taking the list: a lane that hands over
    // later writes a byte of its own.  Lanes write one byte per batch,
    // so one read takes them all.
    char sink[256];
    (void)!::read(wakePipe_[0], sink, sizeof sink);
    {
        std::lock_guard<std::mutex> lock(answersMu_);
        taken_.swap(answers_);
    }
    for (auto &[id, answer] : taken_) {
        --outstanding_;
        if (const auto it = conns_.find(id); it != conns_.end()) {
            --it->second->inFlight;
            respond(*it->second, answer);
        }
    }
    taken_.clear();
}

void
Daemon::handOff(std::uint64_t conn, std::string answer)
{
    bool wake;
    {
        std::lock_guard<std::mutex> lock(answersMu_);
        wake = answers_.empty();
        answers_.emplace_back(conn, std::move(answer));
    }
    char byte = 'a';
    if (wake) // else the I/O thread has a byte to wake on already
        (void)!::write(wakePipe_[1], &byte, 1);
}

void
Daemon::handleLine(Connection &c, std::string_view line)
{
    if (line.empty())
        return;
    const auto refuse = [this, &c](const std::string &error) {
        engine_.counters().error.fetch_add(1,
                                           std::memory_order_relaxed);
        respond(c, errorLine("", error));
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
    // on the I/O thread, so `stats`/`health` stay responsive while
    // every lane is busy and the queue is shedding.
    if (answerControl(c, controlFromJson(doc)))
        return;
    std::optional<RequestSpec> spec = requestFromJson(doc, error);
    if (!spec) {
        refuse(error);
        return;
    }
    Request req;
    req.spec = std::move(*spec);
    req.conn = c.id;
    req.arrival = Clock::now();
    if (req.spec.traceId.empty())
        req.spec.traceId = numbered("t", ++traceSeq_);
    req.deadlineMs = req.spec.deadlineMs > 0.0
                         ? req.spec.deadlineMs
                         : config_.engine.defaultDeadlineMs;
    const std::string id = req.spec.id;
    if (!queue_.tryPush(std::move(req))) {
        engine_.counters().rejected.fetch_add(
            1, std::memory_order_relaxed);
        respond(c, rejectedLine(
                       id, draining() ? "draining" : "overloaded"));
        return;
    }
    ++c.inFlight;
    ++outstanding_;
    engine_.counters().accepted.fetch_add(1,
                                          std::memory_order_relaxed);
}

bool
Daemon::answerControl(Connection &c, const ControlRequest &ctl)
{
    switch (ctl.type) {
    case ControlType::None:
        return false;
    case ControlType::Invalid:
        respond(c, errorLine(ctl.id, ctl.error));
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
            respond(c, w.take());
        } else {
            respond(c, statsDocument(ctl.id, nullptr));
        }
        return true;
    case ControlType::Health:
        respond(c, healthDocument(ctl.id));
        return true;
    case ControlType::TraceDump:
        respond(c, traceDumpDocument(ctl.id));
        return true;
    }
    return false;
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
                {
                    std::lock_guard<std::mutex> lock(publishMu_);
                    publishedHists_.record("svc.queue_wait_ns",
                                           obs::secondsToNs(waited));
                }
                handOff(req->conn,
                        rejectedLine(req->spec.id, "deadline"));
                trace.span("request", -1, arrivalNs, trace.nowNs(),
                           "shed: deadline");
                continue;
            }
        }

        obs::flight::setBlock(lane); // key events by lane
        const auto started = Clock::now();
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
            // Published before the response goes out, in one critical
            // section: a client that has every answer sees every count
            // in a `stats` scrape.
            std::lock_guard<std::mutex> lock(publishMu_);
            publishedHists_.record("svc.queue_wait_ns",
                                   obs::secondsToNs(waited));
            publishedHists_.record(
                "svc.request_ns",
                obs::secondsToNs(elapsedSeconds(started)));
            slot.shard.flushInto(publishedCounters_);
            slot.shard.clear();
        }
        trace.span("request", -1, arrivalNs, trace.nowNs());
        handOff(req->conn, std::move(response));
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
    // svc.* tallies live in plain atomics, outside the counter
    // roster; overlay them so live scrapes and the final document
    // agree.
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
    SnapshotDeltaTracker tracker;
    // The run's first tick starts the file afresh; each later one
    // copies the file as it stands and appends its own line, so no
    // earlier snapshot stays in memory.
    bool fresh = true;

    const auto append = [this, &fresh](const std::string &line) {
        const std::string tmp = config_.snapshotPath + ".tmp";
        {
            std::ofstream out(tmp);
            if (!out) {
                log::error("serve: cannot write snapshot to '", tmp,
                           "'");
                return;
            }
            if (!fresh)
                if (std::ifstream prev(config_.snapshotPath); prev)
                    out << prev.rdbuf();
            out << line << '\n';
        }
        if (std::rename(tmp.c_str(),
                        config_.snapshotPath.c_str()) != 0)
            log::error("serve: rename('", tmp, "' -> '",
                       config_.snapshotPath,
                       "'): ", std::strerror(errno));
        else
            fresh = false;
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
        append(statsDocument("", &delta));
        if (stopping)
            return;
        lock.lock();
    }
}

} // namespace sched91::service
