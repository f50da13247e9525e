#include "service/supervisor.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>

#include <signal.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/emitter.hh"
#include "obs/flight_recorder.hh"
#include "obs/json.hh"
#include "obs/json_parse.hh"
#include "obs/outliers.hh"
#include "service/sandbox_worker.hh"
#include "support/fault_inject.hh"
#include "support/line_io.hh"
#include "support/log.hh"
#include "support/logging.hh"

namespace sched91::service
{

namespace
{

/** Kill-time grace past a request's deadline: the in-process budget
 * rung degrades at the deadline, so a worker healthy enough to do the
 * same answers before the SIGKILL lands. */
constexpr std::chrono::nanoseconds kDeadlineGraceNs =
    std::chrono::milliseconds(500);

/** A worker's answer, decoded once: status ok/degraded is the
 * client's answer; "error" is a failed attempt, and so are bytes that
 * are no response at all (a worker fault). */
AttemptOutcome
decodeAnswer(std::string line)
{
    AttemptOutcome out;
    try {
        const obs::JsonValue doc = obs::parseJson(line);
        const std::string status = doc.strOr("status", "");
        if (status != "ok" && status != "degraded") {
            out.error = doc.strOr("error", "");
            return out;
        }
        out.deadlineHit = doc.has("deadline_hit");
        out.spans = phaseSpansFromResponse(doc);
        out.workerSpans = true;
        out.line = std::move(line);
        out.kind = status == "ok" ? AttemptOutcome::Kind::Ok
                                  : AttemptOutcome::Kind::Degraded;
    } catch (const std::exception &) {
        out.error = "unparseable worker response";
    }
    return out;
}

std::string
boundedString(const char *buf, std::size_t cap)
{
    return std::string(buf, ::strnlen(buf, cap));
}

} // namespace

/** One lane's sandbox worker, owned and dispatched by exactly one
 * lane thread. */
struct Supervisor::Worker
{
    unsigned lane = 0;
    Subprocess proc;
    int fd = -1;     ///< parent end of the socketpair (both ways)
    int ringFd = -1; ///< crash-ring memfd
    CrashRing *ring = nullptr; ///< parent-side mapping
    LineReader reader;         ///< responses on fd
    bool everLive = false; ///< distinguishes respawn from first spawn

    /** The live worker's pid, -1 while there is none.  Only the lane
     * writes it; liveWorkers() reads it from stats threads. */
    std::atomic<pid_t> livePid{-1};

    bool live() const
    {
        return livePid.load(std::memory_order_relaxed) > 0;
    }
    void markDead() { livePid.store(-1, std::memory_order_relaxed); }
};

Supervisor::Supervisor(SupervisorConfig config, Engine &engine)
    : config_(std::move(config)), engine_(engine)
{
}

Supervisor::~Supervisor()
{
    stop();
}

void
Supervisor::start()
{
    exe_ = config_.workerExe.empty() ? selfExePath()
                                     : config_.workerExe;
    if (exe_.empty())
        fatal("serve --isolate=process: cannot resolve the worker "
              "executable (no --isolate-exe and /proc/self/exe "
              "unreadable)");

    workers_.clear();
    const unsigned n = config_.workers != 0 ? config_.workers : 1;
    for (unsigned i = 0; i < n; ++i) {
        workers_.push_back(std::make_unique<Worker>());
        workers_.back()->lane = i;
        // A failed pre-spawn is already counted; the lane retries
        // lazily at its first dispatch.
        spawnWorker(*workers_.back());
    }
    started_ = true;
    log::info("sched91 serve: process isolation on (", n,
              " sandbox worker", n == 1 ? "" : "s", ", exe ", exe_,
              ")");
}

void
Supervisor::stop()
{
    if (!started_)
        return;
    started_ = false;

    // Closing the socketpairs is the drain signal: workers exit 0 on
    // EOF.  Close them all first so the pool drains in parallel.
    for (auto &wp : workers_)
        if (wp->fd >= 0) {
            ::close(wp->fd);
            wp->fd = -1;
        }
    for (auto &wp : workers_) {
        Worker &w = *wp;
        if (w.proc.valid()) {
            bool reaped = false;
            for (int i = 0; i < 200 && !reaped; ++i) {
                if (w.proc.tryWait()) {
                    reaped = true;
                    break;
                }
                ::usleep(10'000);
            }
            if (!reaped) {
                w.proc.kill(SIGKILL);
                w.proc.wait();
            }
        }
        w.markDead();
        retireWorker(w);
    }
}

void
Supervisor::retireWorker(Worker &worker)
{
    if (worker.fd >= 0) {
        ::close(worker.fd);
        worker.fd = -1;
    }
    if (worker.ring != nullptr) {
        ::munmap(worker.ring, sizeof(CrashRing));
        worker.ring = nullptr;
    }
    if (worker.ringFd >= 0) {
        ::close(worker.ringFd);
        worker.ringFd = -1;
    }
    worker.reader = LineReader();
}

unsigned
Supervisor::liveWorkers() const
{
    unsigned n = 0;
    for (const auto &wp : workers_)
        if (wp->live())
            ++n;
    return n;
}

bool
Supervisor::spawnWorker(Worker &worker,
                        const obs::RequestTrace *trace)
{
    // The respawn gap is part of the victim request's latency; record
    // it as its own span so the trace shows where the time went.
    class SpanGuard
    {
      public:
        SpanGuard(const obs::RequestTrace *trace, bool &up)
            : trace_(trace), up_(up),
              t0_(trace ? trace->nowNs() : 0)
        {
        }
        ~SpanGuard()
        {
            if (trace_)
                trace_->span("respawn", -1, t0_, trace_->nowNs(),
                             up_ ? "ok" : "failed");
        }

      private:
        const obs::RequestTrace *trace_;
        bool &up_;
        std::uint64_t t0_;
    };

    bool up = false;
    SpanGuard guard(trace, up);

    retireWorker(worker);

    // One socketpair carries envelopes out and answers back; a write
    // to a worker that died is an error return, never a SIGPIPE.
    int link[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, link) < 0) {
        engine_.counters().workerSpawnFailures.fetch_add(
            1, std::memory_order_relaxed);
        return false;
    }

    // Crash ring: best-effort — a daemon on a kernel without memfd
    // still isolates, it just loses killed-worker forensics.
    int ringFd = ::memfd_create("sched91-crash-ring", MFD_CLOEXEC);
    CrashRing *ring = nullptr;
    if (ringFd >= 0) {
        if (::ftruncate(ringFd, sizeof(CrashRing)) == 0) {
            void *mem =
                ::mmap(nullptr, sizeof(CrashRing),
                       PROT_READ | PROT_WRITE, MAP_SHARED, ringFd, 0);
            if (mem != MAP_FAILED)
                ring = static_cast<CrashRing *>(mem);
        }
        if (ring == nullptr) {
            ::close(ringFd);
            ringFd = -1;
        }
    }

    const EngineConfig &e = config_.engine;
    SpawnSpec spec;
    spec.argv = {exe_, "__sandbox-worker", "--fd",
                 std::to_string(kWorkerFd)};
    if (ringFd >= 0) {
        spec.argv.push_back("--ring-fd");
        spec.argv.push_back(std::to_string(kWorkerRingFd));
    }
    // No builder, algorithm or policy: every envelope names all three.
    spec.argv.push_back("--machine");
    spec.argv.push_back(e.machineName);
    if (e.maxBlockInsts > 0) {
        spec.argv.push_back("--max-block-insts");
        spec.argv.push_back(std::to_string(e.maxBlockInsts));
    }
    if (e.captureOutliers > 0 && !e.outlierDir.empty()) {
        spec.argv.push_back("--capture-outliers");
        spec.argv.push_back(std::to_string(e.captureOutliers));
        spec.argv.push_back("--outlier-dir");
        spec.argv.push_back(e.outlierDir);
    }
    if (!config_.faultSpec.empty()) {
        spec.argv.push_back("--fault-inject");
        spec.argv.push_back(config_.faultSpec);
    }
    spec.fds = {{kWorkerFd, link[1]}};
    if (ringFd >= 0)
        spec.fds.push_back({kWorkerRingFd, ringFd});
    spec.limits.cpuSeconds = config_.rlimitCpuSeconds;
    spec.limits.addressSpaceMb = config_.rlimitAsMb;

    bool spawned = false;
    try {
        worker.proc = Subprocess::spawn(spec);
        spawned = true;
    } catch (const std::exception &e) {
        log::warn("sandbox worker lane ", worker.lane,
                  ": spawn failed: ", e.what());
    }
    ::close(link[1]);
    worker.fd = link[0];
    worker.reader = LineReader(worker.fd);
    worker.ringFd = ringFd;
    worker.ring = ring;
    if (!spawned) {
        retireWorker(worker);
        engine_.counters().workerSpawnFailures.fetch_add(
            1, std::memory_order_relaxed);
        return false;
    }

    // The ready banner bounds "came up"; its absence (exec failure,
    // instant death, wedged init) is a spawn failure, not a crash.
    std::string_view banner;
    if (worker.reader.read(banner, config_.spawnTimeoutMs) !=
            LineReader::Status::Line ||
        banner.find("sandbox_ready") == std::string_view::npos) {
        worker.proc.kill(SIGKILL);
        const SpawnExit exit = worker.proc.wait();
        log::warn("sandbox worker lane ", worker.lane,
                  " never became ready (", exit.describe(), ")");
        retireWorker(worker);
        engine_.counters().workerSpawnFailures.fetch_add(
            1, std::memory_order_relaxed);
        return false;
    }

    worker.everLive = true;
    worker.livePid.store(worker.proc.pid(),
                         std::memory_order_relaxed);
    up = true;
    return true;
}

void
Supervisor::harvestCrash(Worker &worker, const RequestSpec &spec,
                         std::uint64_t key, const SpawnExit &exit)
{
    obs::flight::record(obs::flight::EventKind::Diag, "svc",
                        "worker crash", key,
                        static_cast<std::uint64_t>(
                            exit.signaled ? exit.sig : 0));
    if (config_.crashDir.empty() || worker.ring == nullptr ||
        worker.ring->magic != kCrashRingMagic)
        return;

    const std::string keyHex = bundleKeyHex(key);

    // 1. The recovered flight ring: what the worker was doing when it
    //    died, pulled from shared memory — SIGKILL leaves no other
    //    trace.
    {
        const obs::flight::Recorder &rec = worker.ring->recorder;
        obs::JsonWriter w;
        w.beginObject();
        w.key("sched91_crash_ring").value(1);
        w.key("lane").value(static_cast<std::uint64_t>(worker.lane));
        w.key("worker_exit").value(exit.describe());
        w.key("events_total").value(rec.total());
        w.key("events").beginArray();
        for (std::size_t i = 0; i < rec.kept(); ++i) {
            const obs::flight::Event &ev = rec.keptAt(i);
            w.beginObject();
            w.key("kind").value(
                std::string(obs::flight::eventKindName(ev.kind)));
            w.key("tag").value(boundedString(ev.tag, sizeof ev.tag));
            w.key("detail").value(
                boundedString(ev.detail, sizeof ev.detail));
            w.key("block_key").value(ev.blockKey);
            w.key("seq").value(static_cast<std::uint64_t>(ev.seq));
            w.key("a").value(ev.a);
            w.key("b").value(ev.b);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        const std::string path = config_.crashDir +
                                 "/crash-ring-req" + keyHex + ".json";
        std::ofstream out(path);
        if (out)
            out << w.take() << '\n';
        else
            log::warn("cannot write crash ring '", path, "'");
    }

    // 2. A replayable bundle: the victim request's source under the
    //    daemon's configuration, marked as an outlier bundle so
    //    `sched91 explain` re-runs the killed payload in-process.
    {
        obs::OutlierRecord rec;
        rec.stage = "crash";
        rec.reason = exit.describe();
        rec.degraded = true;
        rec.source = spec.source;

        const EngineConfig &defaults = config_.engine;
        const obs::RunMeta meta = bundleMeta(
            spec, defaults, spec.builder.value_or(defaults.builder),
            spec.algorithm.value_or(defaults.algorithm),
            spec.policy.value_or(defaults.policy));

        const std::string path =
            config_.crashDir + "/crash-req" + keyHex + ".json";
        std::ofstream out(path);
        if (out)
            out << obs::outlierBundleJson(rec, meta) << '\n';
        else
            log::warn("cannot write crash bundle '", path, "'");
    }
}

/** The ladder's sandbox runner: each attempt is one envelope to the
 * lane's worker.  The runner keeps the pool — respawns, the kill time,
 * crash accounting and forensics — and reports only what the attempt
 * did; the engine's ladder decides every rung. */
class Supervisor::SandboxRunner final : public AttemptRunner
{
  public:
    SandboxRunner(Supervisor &sup, Worker &worker, const RequestSpec &spec,
                  double remainingSeconds, const obs::RequestTrace *trace)
        : sup_(sup), worker_(worker), spec_(spec),
          remainingSeconds_(remainingSeconds), trace_(trace)
    {
    }

    ParsedRequest *
    prepare() override
    {
        // Validate a machine override in-parent, exactly where the
        // in-process runner's parse rejects it — a bad token must not
        // burn ladder attempts.  No parse here: the ladder parses in
        // this process only to answer a degraded rung.
        if (spec_.machine)
            presetByName(*spec_.machine);
        return nullptr;
    }

    AttemptOutcome run(BuilderKind builder, int attempt,
                       bool downgraded) override;

  private:
    Supervisor &sup_;
    Worker &worker_;
    const RequestSpec &spec_;
    double remainingSeconds_;
    const obs::RequestTrace *trace_;
};

AttemptOutcome
Supervisor::SandboxRunner::run(BuilderKind builder, int attempt,
                               bool downgraded)
{
    const EngineConfig &defaults = sup_.config_.engine;
    SvcCounters &counters = sup_.engine_.counters();
    Worker &worker = worker_;

    SandboxEnvelope env;
    env.spec = spec_;
    env.spec.builder = builder;
    env.spec.algorithm = spec_.algorithm.value_or(defaults.algorithm);
    env.spec.policy = spec_.policy.value_or(defaults.policy);
    env.spec.deadlineMs =
        remainingSeconds_ > 0.0 ? remainingSeconds_ * 1000.0 : 0.0;
    env.attempt = attempt;
    env.downgraded = downgraded;
    const std::string request = sandboxEnvelopeLine(env);

    AttemptOutcome out;
    const auto noWorker = [&out, &worker] {
        out.kind = AttemptOutcome::Kind::NoWorker;
        out.error =
            "no sandbox worker on lane " + std::to_string(worker.lane);
        return out;
    };

    // The attempt's kill time: the request's remaining deadline plus
    // the grace, or the hang bound for a request without one.
    const std::chrono::nanoseconds budget =
        remainingSeconds_ > 0.0
            ? std::chrono::nanoseconds(
                  std::llround(remainingSeconds_ * 1e9)) +
                  kDeadlineGraceNs
            : std::chrono::milliseconds(sup_.config_.hangTimeoutMs);
    LineReader::Clock::time_point killAt;

    // A dead pipe *before* dispatch means the worker died idle or
    // never came up; the request has not reached any worker, so this
    // is respawn territory, not the crash rung.
    for (int spawnTry = 0;; ++spawnTry) {
        if (!worker.live()) {
            const bool respawning = worker.everLive;
            if (!sup_.spawnWorker(worker, trace_))
                return noWorker();
            if (respawning)
                counters.workerRespawns.fetch_add(
                    1, std::memory_order_relaxed);
        }
        // Set before the write, so the whole attempt counts against it.
        killAt = LineReader::Clock::now() + budget;
        if (writeLine(worker.fd, request))
            break;
        worker.markDead();
        worker.proc.kill(SIGKILL);
        worker.proc.wait();
        if (spawnTry == 1)
            return noWorker();
    }

    // The worker is busy only while this lane waits on it, so the lane
    // is its watchdog: an answer past the kill time is never taken.
    std::string_view line;
    const LineReader::Status st = worker.reader.read(line, killAt);
    if (st == LineReader::Status::Line)
        return decodeAnswer(std::string(line));
    const bool killed = st == LineReader::Status::Timeout;
    if (killed)
        worker.proc.kill(SIGKILL);

    // The worker died holding this request: reap, account, harvest
    // forensics, respawn for the lane's next request.
    worker.markDead();
    const SpawnExit exit = worker.proc.wait();
    counters.workerCrashes.fetch_add(1, std::memory_order_relaxed);
    if (killed)
        counters.workerKills.fetch_add(1, std::memory_order_relaxed);
    log::warn("sandbox worker lane ", worker.lane,
              " died mid-request (", exit.describe(),
              killed ? "; killed at its kill time)" : ")");
    sup_.harvestCrash(worker, env.spec, fault::fnv1a64(spec_.source),
                      exit);
    if (sup_.spawnWorker(worker, trace_))
        counters.workerRespawns.fetch_add(1, std::memory_order_relaxed);
    out.kind = AttemptOutcome::Kind::Crashed;
    out.error = exit.describe();
    return out;
}

std::string
Supervisor::process(unsigned lane, const RequestSpec &spec,
                    double remainingSeconds,
                    const obs::RequestTrace *trace)
{
    SandboxRunner runner(*this, *workers_[lane % workers_.size()], spec,
                         remainingSeconds, trace);
    return engine_.process(spec, runner, trace);
}

} // namespace sched91::service
