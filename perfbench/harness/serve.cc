#include "serve.hh"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "fuzz/program_gen.hh"
#include "machine/presets.hh"
#include "obs/json_parse.hh"
#include "service/engine.hh"
#include "service/protocol.hh"

namespace perfbench
{

using namespace sched91;

namespace
{

constexpr int kConnections = 4;   ///< client connections
constexpr int kDepth = 2;         ///< requests in flight per connection
constexpr std::size_t kCorpusSize = 2048;
/** Untimed requests before the window; covers the corpus once, so
 * every payload is answered and checked whatever the window. */
constexpr std::uint64_t kWarmupRequests = kCorpusSize;
/** A fresh isolated daemon has been seen to serve its first ~20k
 * requests about 1.6x slower than the next 20k, so it warms up past
 * that (about 3.5 s at its rate). */
constexpr std::uint64_t kIsolatedWarmupRequests = 10 * kCorpusSize;
/** Traced passes warm up less: the daemon's span log keeps only its
 * first 16384 spans (8 per request), and the window needs them. */
constexpr std::uint64_t kTracedWarmup = 512;
/** The other-mode pass of a traced run: what still fits in the span
 * log after the warm-up. */
constexpr std::uint64_t kOtherPassRequests = 1000;
constexpr std::uint64_t kSilenceNs = 15'000'000'000ull; ///< = lost
constexpr int kSetupRepeats = 5;

/** A `sched91 serve` child in its own process group. */
class Daemon
{
  public:
    Daemon(const Options &opts, bool isolate, const std::string &tag)
        : socket_(tag + ".sock")
    {
        ::unlink(socket_.c_str());
        std::vector<std::string> args = {opts.sched91, "serve",
                                         "--socket", socket_,
                                         "--stats-json",
                                         tag + ".stats.json"};
        if (isolate)
            args.insert(args.end(), {"--isolate", "process"});
        const std::string log = tag + ".log";
        pid_ = ::fork();
        if (pid_ == 0) {
            ::setpgid(0, 0);
            // A harness killed by its caller takes the daemon with it;
            // the daemon's sandbox workers exit when their pipes close.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            const int fd =
                ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
                ::close(fd);
            }
            std::vector<char *> argv;
            for (std::string &a : args)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        if (pid_ > 0)
            ::setpgid(pid_, pid_);
    }

    ~Daemon() { kill(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    pid_t pid() const { return pid_; }
    const std::string &socket() const { return socket_; }

    bool
    running()
    {
        if (pid_ <= 0)
            return false;
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            reaped();
            return false;
        }
        return true;
    }

    /** SIGTERM and wait for a clean drain; kills on timeout.  True
     * when the daemon exited 0 within @p timeoutS. */
    bool
    drain(double timeoutS)
    {
        if (pid_ <= 0)
            return false;
        ::kill(pid_, SIGTERM);
        const Clock::time_point t0 = Clock::now();
        while (secondsSince(t0) < timeoutS) {
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                reaped();
                return WIFEXITED(status) && WEXITSTATUS(status) == 0;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        kill();
        return false;
    }

    /** SIGKILL the whole process group (daemon and sandbox workers)
     * and wait for every member. */
    void
    kill()
    {
        if (pid_ <= 0)
            return;
        ::kill(-pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        reaped();
    }

  private:
    /** The daemon itself is reaped; its sandbox workers, re-parented
     * to the harness (a child subreaper, see main.cc), are killed and
     * waited for until the process group is empty. */
    void
    reaped()
    {
        const pid_t group = pid_;
        pid_ = -1;
        ::kill(-group, SIGKILL);
        const Clock::time_point t0 = Clock::now();
        while (secondsSince(t0) < 5.0) {
            while (::waitpid(-group, nullptr, WNOHANG) > 0) {
            }
            if (::kill(-group, 0) < 0 && errno == ESRCH)
                return;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }

    std::string socket_;
    pid_t pid_ = -1;
};

int
connectTo(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) <
        0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
sendAll(int fd, std::string_view bytes)
{
    while (!bytes.empty()) {
        const ssize_t n =
            ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

/** One control line on a fresh connection; nullopt on timeout/EOF. */
std::optional<std::string>
control(const std::string &socket, const std::string &line, int timeoutMs)
{
    const int fd = connectTo(socket);
    if (fd < 0)
        return std::nullopt;
    std::optional<std::string> out;
    std::string buf;
    if (sendAll(fd, line + "\n")) {
        const std::uint64_t deadline =
            nowNs() + static_cast<std::uint64_t>(timeoutMs) * 1'000'000;
        while (nowNs() < deadline) {
            pollfd pfd{fd, POLLIN, 0};
            if (::poll(&pfd, 1, 50) <= 0)
                continue;
            char chunk[65536];
            const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
            if (n <= 0)
                break;
            buf.append(chunk, static_cast<std::size_t>(n));
            const std::size_t nl = buf.find('\n');
            if (nl != std::string::npos) {
                out = buf.substr(0, nl);
                break;
            }
        }
    }
    ::close(fd);
    return out;
}

bool
waitHealthy(Daemon &d, bool isolate, std::string &error)
{
    const Clock::time_point t0 = Clock::now();
    while (secondsSince(t0) < 30.0) {
        if (!d.running()) {
            error = "daemon exited during start-up";
            return false;
        }
        if (auto line = control(d.socket(), R"({"type":"health"})", 2000)) {
            const obs::JsonValue doc = obs::parseJson(*line);
            const bool live =
                !isolate || doc.numberOr("workers_live", -1) ==
                                doc.numberOr("workers", -2);
            if (doc.strOr("status", "") == "ok" && live)
                return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    error = "daemon did not answer health within 30 s";
    return false;
}

enum Status : std::uint8_t { kOk, kDegraded, kRejected, kError, kOther };

Status
statusOf(std::string_view s)
{
    if (s == "ok")
        return kOk;
    if (s == "degraded")
        return kDegraded;
    if (s == "rejected")
        return kRejected;
    if (s == "error")
        return kError;
    return kOther;
}

/** One answered request, recorded in the timed loop. */
struct Record
{
    std::uint64_t k = 0;
    std::uint32_t payload = 0;
    Status status = kOther;
    std::uint64_t sendNs = 0;
    std::uint64_t recvNs = 0;
    std::uint64_t hash = 0;  ///< of the response without id/trace/spans
    std::uint64_t parseNs = 0; ///< response spans.parse_ns (traced)
};

/** The part of a response that must be identical for every answer to
 * the same payload: everything after the id, before trace_id/spans. */
std::string_view
stablePart(std::string_view line)
{
    const std::size_t idEnd = line.find("\",", 7);
    if (idEnd == std::string_view::npos)
        return line;
    std::size_t end = line.rfind(",\"trace_id\":");
    if (end == std::string_view::npos || end < idEnd)
        end = line.rfind(",\"spans\":");
    if (end == std::string_view::npos || end < idEnd)
        end = line.size() - 1;
    return line.substr(idEnd + 2, end - (idEnd + 2));
}

/** Client-side state that persists across load phases. */
struct LoadState
{
    const std::vector<Payload> *payloads = nullptr;
    std::vector<std::string> first; ///< first response per payload
    std::uint64_t nextK = 0;
    bool traced = false;
};

struct LoadResult
{
    std::vector<Record> records;
    /** Host steal (CPU seconds) in each whole second of the window. */
    std::vector<double> sliceSteal;
    std::uint64_t sent = 0;
    std::uint64_t lost = 0;
    std::uint64_t strays = 0; ///< duplicate or unknown ids
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::string error;
};

/**
 * The closed-loop client: kConnections connections, kDepth requests in
 * flight on each, single-threaded over poll().  A response only gets
 * its id, status and a hash of its stable part taken here; the checks
 * run after the window.  Stops issuing after @p maxRequests sends
 * (0 = no cap) or @p seconds (0 = no limit), then waits for every
 * request in flight.
 */
LoadResult
driveLoad(Daemon &d, LoadState &st, double seconds,
          std::uint64_t maxRequests, int killAfterMs)
{
    LoadResult res;
    struct Conn
    {
        int fd = -1;
        std::string buf;
        int inflight = 0;
    };
    struct Pending
    {
        std::uint64_t sendNs;
        std::uint32_t payload;
    };
    std::vector<Conn> conns(kConnections);
    for (Conn &c : conns)
        if ((c.fd = connectTo(d.socket())) < 0) {
            res.error = "cannot connect to the daemon";
            for (Conn &o : conns)
                if (o.fd >= 0)
                    ::close(o.fd);
            return res;
        }

    const std::vector<Payload> &payloads = *st.payloads;
    std::unordered_map<std::uint64_t, Pending> pending;
    res.startNs = nowNs();
    const std::uint64_t deadline =
        res.startNs + static_cast<std::uint64_t>(seconds * 1e9);
    const auto mayIssue = [&] {
        if (maxRequests != 0 && res.sent >= maxRequests)
            return false;
        return seconds <= 0.0 || nowNs() < deadline;
    };
    std::string line;
    const auto sendNext = [&](Conn &c) {
        const std::uint64_t k = st.nextK++;
        const auto idx = static_cast<std::uint32_t>(k % payloads.size());
        line = "{\"id\":\"" + std::to_string(k) + "\",";
        line += payloads[idx].members;
        if (st.traced)
            line += ",\"trace_id\":\"t" + std::to_string(k) + "\"";
        line += "}\n";
        pending.emplace(k, Pending{nowNs(), idx});
        ++res.sent;
        ++c.inflight;
        return sendAll(c.fd, line);
    };
    const auto handle = [&](std::string_view resp) {
        Record r;
        r.recvNs = nowNs();
        const std::size_t q = resp.find('"', 7);
        if (resp.substr(0, 7) != "{\"id\":\"" || q == std::string::npos) {
            ++res.strays;
            return;
        }
        r.k = std::strtoull(std::string(resp.substr(7, q - 7)).c_str(),
                            nullptr, 10);
        const auto it = pending.find(r.k);
        if (it == pending.end()) {
            ++res.strays;
            return;
        }
        r.sendNs = it->second.sendNs;
        r.payload = it->second.payload;
        pending.erase(it);
        const std::size_t s = resp.find("\"status\":\"", q);
        if (s != std::string::npos) {
            const std::size_t e = resp.find('"', s + 10);
            r.status = statusOf(resp.substr(s + 10, e - (s + 10)));
        }
        const std::string_view stable = stablePart(resp);
        r.hash = std::hash<std::string_view>{}(stable);
        if (st.traced) {
            const std::size_t p = resp.rfind("\"parse_ns\":");
            if (p != std::string::npos)
                r.parseNs = std::strtoull(resp.data() + p + 11, nullptr, 10);
        }
        if (st.first[r.payload].empty())
            st.first[r.payload] = std::string(resp);
        res.records.push_back(r);
    };

    bool ok = true;
    for (Conn &c : conns)
        for (int i = 0; i < kDepth && ok && mayIssue(); ++i)
            ok = sendNext(c);
    std::vector<pollfd> pfds(conns.size());
    std::uint64_t lastProgress = nowNs();
    std::uint64_t nextSliceNs = res.startNs + 1'000'000'000ull;
    double stealAt = hostStealSeconds();
    bool killed = false;
    const auto inflight = [&] {
        int n = 0;
        for (const Conn &c : conns)
            n += c.inflight;
        return n;
    };
    while (ok && inflight() > 0) {
        for (std::size_t i = 0; i < conns.size(); ++i)
            pfds[i] = pollfd{conns[i].fd, POLLIN, 0};
        ::poll(pfds.data(), pfds.size(), 100);
        if (nowNs() >= nextSliceNs) {
            const double steal = hostStealSeconds();
            res.sliceSteal.push_back(steal - stealAt);
            stealAt = steal;
            nextSliceNs += 1'000'000'000ull;
        }
        if (killAfterMs > 0 && !killed &&
            nowNs() >= res.startNs + static_cast<std::uint64_t>(
                                         killAfterMs) * 1'000'000) {
            ::kill(d.pid(), SIGKILL);
            killed = true;
        }
        for (std::size_t i = 0; i < conns.size() && ok; ++i) {
            if (pfds[i].revents == 0)
                continue;
            Conn &c = conns[i];
            char chunk[262144];
            const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
            if (n <= 0) {
                if (n < 0 && errno == EINTR)
                    continue;
                res.error = "daemon closed a connection mid-run";
                ok = false;
                break;
            }
            c.buf.append(chunk, static_cast<std::size_t>(n));
            std::size_t start = 0;
            for (std::size_t nl;
                 (nl = c.buf.find('\n', start)) != std::string::npos;
                 start = nl + 1) {
                handle(std::string_view(c.buf).substr(start, nl - start));
                --c.inflight;
                lastProgress = nowNs();
                if (mayIssue() && !(ok = sendNext(c))) {
                    res.error = "send to the daemon failed";
                    break;
                }
            }
            c.buf.erase(0, start);
        }
        if (ok && nowNs() - lastProgress > kSilenceNs) {
            res.error = "no response for 15 s";
            ok = false;
        }
    }
    res.lost = pending.size();
    res.endNs = res.records.empty() ? nowNs() : res.records.back().recvNs;
    for (Conn &c : conns)
        ::close(c.fd);
    return res;
}

/** CPU seconds and VmHWM bytes of the daemon plus its workers. */
struct ProcSample
{
    double cpuS = 0;
    std::uint64_t hwmBytes = 0;
    std::size_t procs = 0;
};

ProcSample
sampleDaemon(pid_t pid)
{
    ProcSample s;
    std::vector<pid_t> pids = childPids(pid);
    pids.push_back(pid);
    for (pid_t p : pids) {
        s.cpuS += processCpuSeconds(p);
        s.hwmBytes += processHwmBytes(p);
    }
    s.procs = pids.size();
    return s;
}

/** The serve corpus: program_gen programs of 1-8 blocks of at most
 * 64 instructions, a pure function of the seed. */
std::vector<std::string>
makeServeCorpus(std::uint64_t seed)
{
    std::vector<std::string> sources;
    sources.reserve(kCorpusSize);
    for (std::size_t i = 0; i < kCorpusSize; ++i) {
        fuzz::GenParams params;
        params.seed = mixSeed(seed, i);
        params.numBlocks = 1 + static_cast<int>(mixSeed(seed ^ 0x5eed, i) % 8);
        params.maxBlockSize = 64;
        sources.push_back(fuzz::generateSource(params));
    }
    return sources;
}

std::vector<Payload>
servePayloads(const std::vector<std::string> &sources)
{
    std::vector<Payload> out;
    for (const std::string &src : sources) {
        Payload p;
        p.members = requestMembers(src, {{"emit", "schedule"}});
        p.insts = parseLenient(src).size();
        out.push_back(std::move(p));
    }
    return out;
}

/** Per answered request, in completion order: latency, completion
 * time from the window's start, and instructions when it was ok. */
void
writeSamples(obs::JsonWriter &w, const LoadResult &load,
             const std::vector<Payload> &payloads)
{
    w.key("latency_ns").beginArray();
    for (const Record &r : load.records)
        w.value(r.recvNs - r.sendNs);
    w.endArray();
    w.key("done_ns").beginArray();
    for (const Record &r : load.records)
        w.value(r.recvNs - load.startNs);
    w.endArray();
    w.key("insts").beginArray();
    for (const Record &r : load.records)
        w.value(r.status == kOk ? payloads[r.payload].insts : 0);
    w.endArray();
    w.key("slice_steal_s").beginArray();
    for (double s : load.sliceSteal)
        w.value(s);
    w.endArray();
}

} // namespace

std::string
requestMembers(const std::string &source,
               const std::vector<std::pair<std::string, std::string>> &extra)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("source").value(source);
    for (const auto &[k, v] : extra)
        w.key(k).value(v);
    w.endObject();
    std::string doc = w.take();
    // Members only: strip the braces so the client can prepend an id.
    return doc.substr(1, doc.size() - 2);
}

bool
runServicePass(const Options &opts, bool isolate,
               const std::vector<Payload> &payloads, std::uint64_t warmup,
               std::uint64_t maxRequests, double seconds, ServicePass &out,
               std::string &error)
{
    const std::string tag = isolate ? "pass-isolated" : "pass-inproc";
    Daemon d(opts, isolate, tag);
    if (!waitHealthy(d, isolate, error))
        return false;
    LoadState st;
    st.payloads = &payloads;
    st.first.resize(payloads.size());
    if (warmup > 0) {
        const LoadResult wl = driveLoad(d, st, 0.0, warmup, 0);
        if (!wl.error.empty() || wl.lost > 0) {
            error = "warm-up: " + wl.error;
            return false;
        }
    }
    st.traced = true;
    const LoadResult load = driveLoad(d, st, seconds, maxRequests, 0);
    // The daemon's span log keeps its first 16384 spans and drops the
    // rest, so one scrape after the window sees all it will ever hold.
    const std::optional<std::string> dump =
        control(d.socket(), R"({"type":"trace-dump"})", 20000);
    const bool drained = d.drain(20.0);
    if (!load.error.empty() || load.lost > 0 || load.strays > 0) {
        error = "traced pass: " +
                (load.error.empty() ? std::string("lost or stray responses")
                                    : load.error);
        return false;
    }
    if (!dump || !drained) {
        error = "traced pass: trace-dump or drain failed";
        return false;
    }

    out = ServicePass{};
    out.isolate = isolate;
    out.traceDumpFile = tag + ".trace.json";
    writeFile(out.traceDumpFile, *dump);
    out.sent = load.sent;
    out.windowS = static_cast<double>(load.endNs - load.startNs) / 1e9;
    for (const Record &r : load.records) {
        if (r.status != kOk) {
            error = "traced pass: request answered without status ok";
            return false;
        }
        ++out.ok;
        out.instsOk += payloads[r.payload].insts;
        out.client.push_back({r.k, r.sendNs, r.recvNs, r.parseNs,
                              payloads[r.payload].insts});
    }
    std::uint64_t stableBytes = 0, answered = 0;
    for (const std::string &f : st.first)
        if (!f.empty()) {
            stableBytes += stablePart(f).size();
            ++answered;
        }
    out.responseBytesMean = answered ? static_cast<double>(stableBytes) /
                                           static_cast<double>(answered)
                                     : 0.0;
    return true;
}

void
writeServicePass(obs::JsonWriter &w, const ServicePass &pass)
{
    w.beginObject();
    w.key("mode").value(pass.isolate ? "isolated" : "inproc");
    w.key("sent").value(pass.sent);
    w.key("ok").value(pass.ok);
    w.key("insts_ok").value(pass.instsOk);
    w.key("window_s").value(pass.windowS);
    w.key("response_bytes_mean").value(pass.responseBytesMean);
    w.key("trace_dump_file").value(pass.traceDumpFile);
    // Client spans, one per request: [k of trace id "t<k>", send,
    // receive, the response's spans.parse_ns, instructions].
    w.key("client").beginArray();
    for (const ServicePass::Client &c : pass.client) {
        w.beginArray();
        w.value(c.k).value(c.sendNs).value(c.recvNs).value(c.parseNs);
        w.value(c.insts);
        w.endArray();
    }
    w.endArray();
    w.endObject();
}

int
runServe(const Options &opts)
{
    const bool isolate = opts.workload == "serve-isolated";
    obs::JsonWriter w;
    w.beginObject();
    w.key("workload").value(opts.workload);
    w.key("seed").value(opts.seed);
    w.key("stamp");
    writeStamp(w);

    std::string error;
    std::vector<double> setupS;
    std::vector<std::string> sources;
    std::vector<Payload> payloads;
    std::unique_ptr<Daemon> daemon;
    bool setupIdentical = true;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        if (daemon && !daemon->drain(20.0)) {
            error = "set-up daemon did not drain";
            break;
        }
        daemon.reset();
        const Clock::time_point t0 = Clock::now();
        std::vector<std::string> again = makeServeCorpus(opts.seed);
        std::vector<Payload> p = servePayloads(again);
        daemon = std::make_unique<Daemon>(opts, isolate,
                                          "setup" + std::to_string(rep));
        if (!waitHealthy(*daemon, isolate, error))
            break;
        setupS.push_back(secondsSince(t0));
        if (!sources.empty() && again != sources)
            setupIdentical = false;
        sources = std::move(again);
        payloads = std::move(p);
    }
    w.key("setup_s").beginArray();
    for (double s : setupS)
        w.value(s);
    w.endArray();
    w.key("setup_identical").value(setupIdentical);
    if (!error.empty()) {
        w.key("error").value(error);
        w.endObject();
        writeFile(opts.out, w.take());
        return 1;
    }

    LoadState st;
    st.payloads = &payloads;
    st.first.resize(payloads.size());
    const LoadResult warm = driveLoad(
        *daemon, st, 0.0,
        isolate ? kIsolatedWarmupRequests : kWarmupRequests, 0);
    const ProcSample before = sampleDaemon(daemon->pid());
    const double steal0 = hostStealSeconds();
    const LoadResult load = driveLoad(*daemon, st, opts.seconds, 0,
                                      opts.killDaemonAfterMs);
    const double stealS = hostStealSeconds() - steal0;
    const ProcSample after = sampleDaemon(daemon->pid());
    const std::optional<std::string> stats =
        daemon->running()
            ? control(daemon->socket(), R"({"type":"stats"})", 20000)
            : std::nullopt;
    const bool drained = daemon->drain(20.0);
    daemon.reset();

    // --- Untimed checks ------------------------------------------------
    std::uint64_t byStatus[5] = {0, 0, 0, 0, 0};
    std::uint64_t insts = 0;
    for (const Record &r : load.records) {
        ++byStatus[r.status];
        if (r.status == kOk)
            insts += payloads[r.payload].insts;
    }
    // Every answer to a payload must match the first one, byte for
    // byte outside id/trace_id/spans; the first is checked in full.
    std::vector<std::uint64_t> firstHash(payloads.size(), 0);
    for (std::size_t i = 0; i < payloads.size(); ++i)
        if (!st.first[i].empty())
            firstHash[i] = std::hash<std::string_view>{}(
                stablePart(st.first[i]));
    std::uint64_t repeatMismatches = 0;
    for (const LoadResult *l : {&warm, &load})
        for (const Record &r : l->records)
            if (r.hash != firstHash[r.payload])
                ++repeatMismatches;

    service::EngineConfig ecfg;
    ecfg.maxBlockInsts = 400; // `sched91 serve`'s default
    service::Engine oracle(ecfg);
    const MachineModel machine = presetByName(ecfg.machineName);
    std::uint64_t checkFailures = 0, oracleMismatches = 0, unanswered = 0;
    std::uint64_t digest = fnv1a("");
    std::uint64_t stableBytes = 0;
    long long cyclesOrig = 0, cyclesSched = 0;
    std::string firstFailure;
    const auto fail = [&](std::uint64_t &counter, std::string why) {
        ++counter;
        if (firstFailure.empty())
            firstFailure = std::move(why);
    };
    for (std::size_t i = 0; i < payloads.size(); ++i) {
        const std::string &resp = st.first[i];
        if (resp.empty()) {
            fail(unanswered, "payload " + std::to_string(i) +
                                 " never answered");
            continue;
        }
        const std::string_view stable = stablePart(resp);
        digest = fnv1a(stable, fnv1a("\n", digest));
        stableBytes += stable.size();

        std::string perr;
        const std::optional<service::RequestSpec> spec =
            service::parseRequestLine("{" + payloads[i].members + "}", perr);
        if (spec) {
            const std::string expect = oracle.process(*spec, 0.0);
            if (stablePart(expect) != stable)
                fail(oracleMismatches,
                     "payload " + std::to_string(i) +
                         ": daemon answer differs from the library's");
        }
        Program prog = parseLenient(sources[i]);
        const std::vector<BasicBlock> blocks = partitionBlocks(prog, {});
        std::vector<std::string> lines;
        const obs::JsonValue doc = obs::parseJson(resp);
        if (doc.strOr("status", "") != "ok" || !doc.has("schedule")) {
            fail(checkFailures, "payload " + std::to_string(i) +
                                    ": status " + doc.strOr("status", "?"));
            continue;
        }
        for (const obs::JsonValue &l : doc.at("schedule").array())
            lines.push_back(l.str());
        const std::string why =
            checkSchedule(prog, blocks, lines, mixSeed(opts.seed, i));
        if (!why.empty())
            fail(checkFailures, "payload " + std::to_string(i) + ": " + why);

        // Schedule quality with the daemon's configuration, untimed.
        PipelineOptions popts;
        popts.builder = ecfg.builder;
        popts.algorithm = ecfg.algorithm;
        popts.build.memPolicy = ecfg.policy;
        popts.maxBlockInsts = ecfg.maxBlockInsts;
        popts.evaluate = true;
        popts.threads = 1;
        const ProgramResult pr = runPipeline(prog, machine, popts);
        cyclesOrig += pr.cyclesOriginal;
        cyclesSched += pr.cyclesScheduled;
    }

    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest));

    w.key("timed").beginObject();
    w.key("window_s").value(static_cast<double>(load.endNs - load.startNs) /
                            1e9);
    w.key("sent").value(load.sent);
    w.key("ok").value(byStatus[kOk]);
    w.key("degraded").value(byStatus[kDegraded]);
    w.key("rejected").value(byStatus[kRejected]);
    w.key("error").value(byStatus[kError] + byStatus[kOther]);
    w.key("lost").value(load.lost + warm.lost);
    w.key("strays").value(load.strays + warm.strays);
    w.key("insts_ok").value(insts);
    w.key("cpu_s").value(after.cpuS - before.cpuS);
    w.key("steal_s").value(stealS);
    w.key("peak_rss_bytes").value(after.hwmBytes);
    w.key("processes").value(static_cast<std::uint64_t>(after.procs));
    writeSamples(w, load, payloads);
    w.endObject();

    w.key("check").beginObject();
    w.key("payloads").value(static_cast<std::uint64_t>(payloads.size()));
    w.key("check_failures").value(checkFailures);
    w.key("oracle_mismatches").value(oracleMismatches);
    w.key("repeat_mismatches").value(repeatMismatches);
    w.key("unanswered").value(unanswered);
    w.key("first_failure").value(firstFailure);
    w.key("digest").value(hex);
    w.key("response_bytes_mean")
        .value(static_cast<double>(stableBytes) /
               static_cast<double>(payloads.size()));
    w.key("cycles_original").value(cyclesOrig);
    w.key("cycles_scheduled").value(cyclesSched);
    w.key("drained").value(drained);
    w.key("stats").value(stats.value_or(""));
    w.endObject();

    std::string loadError = load.error.empty() ? warm.error : load.error;
    if (opts.trace && loadError.empty()) {
        // The traced run: the same traffic again on a fresh daemon with
        // client trace ids, a short pass in the other isolation mode so
        // both the engine and the supervisor get measured, then the
        // library layers replayed over the corpus.
        ServicePass own, other;
        if (!runServicePass(opts, isolate, payloads, kTracedWarmup, 0,
                            opts.seconds, own, error) ||
            !runServicePass(opts, !isolate, payloads, kTracedWarmup,
                            kOtherPassRequests, 0.0, other, error)) {
            loadError = error;
        } else {
            w.key("traced_pass");
            writeServicePass(w, own);
            w.key("other_pass");
            writeServicePass(w, other);
            std::vector<CorpusProgram> corpus;
            for (std::size_t i = 0; i < sources.size(); ++i)
                corpus.push_back({"p" + std::to_string(i), sources[i], 0});
            SpanLog spans;
            const ReplayResult rep =
                replayLayers(corpus, kBuilderSettings, ecfg.algorithm,
                             ecfg.policy, machine, spans);
            w.key("replay");
            writeReplay(w, rep, kBuilderSettings);
            obs::JsonWriter sw;
            spans.write(sw);
            writeFile("replay.spans.json", sw.take());
        }
    }
    w.key("error").value(loadError);
    w.endObject();
    if (!writeFile(opts.out, w.take()))
        return 1;
    return loadError.empty() ? 0 : 1;
}

} // namespace perfbench
