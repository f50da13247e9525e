/**
 * @file
 * Soak client for `sched91 serve` (docs/ROBUSTNESS.md).
 *
 * Replays a deterministic generated corpus (fuzz/program_gen) against
 * a running daemon and asserts the response contract:
 *
 *  - zero lost responses: every request line sent gets an answer;
 *  - zero duplicated responses: each id is answered exactly once;
 *  - every status is within the ladder ("ok" | "degraded" |
 *    "rejected"), and every rejection carries a known reason
 *    ("overloaded" | "draining" | "deadline") — the client only sends
 *    well-formed requests, so a "status":"error" is a violation;
 *  - the empty program answers "ok" with zero blocks.
 *
 * Requests are pipelined (bounded in-flight window per connection)
 * across several concurrent connections, so the daemon's admission
 * queue, its worker lanes, and the I/O thread that reads every
 * connection and writes every answer all see real contention.  With
 * `--fault-inject` armed on the daemon, fault
 * decisions are a pure function of (seed, block content), so the same
 * corpus fails the same way on every run — which is what makes these
 * assertions possible at all.
 *
 * Exit codes: 0 contract held, 1 violations (printed to stderr),
 * 2 usage.
 */

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "fuzz/program_gen.hh"
#include "obs/json.hh"
#include "obs/json_parse.hh"
#include "support/line_io.hh"
#include "support/string_util.hh"

using namespace sched91;

namespace
{

struct Options
{
    std::string socketPath = "/tmp/sched91.sock";
    int requests = 64;
    int connections = 4;
    int pipeline = 4; ///< in-flight window per connection
    std::uint64_t seed = 1;
    double corruption = 0.0;
    double deadlineMs = 0.0;
    bool evaluate = false;
    bool includeEmpty = true;
    bool expectDegraded = false; ///< a crash run with zero degraded
                                 ///< answers means faults never landed
    int timeoutMs = 30000; ///< silence this long = lost responses

    /** Interleave a `{"type":"stats"}` control scrape after every N
     * answered requests per connection (0 = off), asserting the
     * telemetry contract under load: counters monotone across
     * successive scrapes, and at quiesce the conservation law
     * accepted == ok + degraded + error + rejected_after_admit. */
    int scrapeEvery = 0;
};

const char kUsage[] =
    "usage: soak_client [--socket <path>] [--requests N]\n"
    "                   [--connections C] [--pipeline K] [--seed S]\n"
    "                   [--corrupt R] [--deadline-ms MS] [--evaluate]\n"
    "                   [--no-empty] [--expect-degraded]\n"
    "                   [--timeout-ms MS] [--scrape-every N]\n";

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "soak_client: missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--socket")
            opts.socketPath = next();
        else if (arg == "--requests")
            opts.requests = std::atoi(next());
        else if (arg == "--connections")
            opts.connections = std::atoi(next());
        else if (arg == "--pipeline")
            opts.pipeline = std::atoi(next());
        else if (arg == "--seed")
            opts.seed = static_cast<std::uint64_t>(std::atoll(next()));
        else if (arg == "--corrupt")
            opts.corruption = std::atof(next());
        else if (arg == "--deadline-ms")
            opts.deadlineMs = std::atof(next());
        else if (arg == "--evaluate")
            opts.evaluate = true;
        else if (arg == "--no-empty")
            opts.includeEmpty = false;
        else if (arg == "--expect-degraded")
            opts.expectDegraded = true;
        else if (arg == "--timeout-ms")
            opts.timeoutMs = std::atoi(next());
        else if (arg == "--scrape-every")
            opts.scrapeEvery = std::atoi(next());
        else {
            std::fputs(kUsage, stderr);
            std::exit(2);
        }
    }
    if (opts.requests < 1 || opts.connections < 1 || opts.pipeline < 1) {
        std::fputs(kUsage, stderr);
        std::exit(2);
    }
    if (opts.connections > opts.requests)
        opts.connections = opts.requests;
    return opts;
}

/** One request line; id "q<index>" is globally unique, so duplicate
 * and loss detection needs no coordination between connections. */
std::string
requestLine(const Options &opts, int index)
{
    std::string source;
    if (!(opts.includeEmpty && index == 0)) {
        fuzz::GenParams params;
        params.seed = opts.seed + static_cast<std::uint64_t>(index);
        params.numBlocks = 1 + index % 4;
        params.maxBlockSize = 8 + (index % 5) * 12;
        params.corruption = opts.corruption;
        source = fuzz::generateSource(params);
    }
    obs::JsonWriter w;
    w.beginObject();
    w.key("id").value(numbered("q", index));
    w.key("source").value(source);
    if (opts.deadlineMs > 0.0)
        w.key("deadline_ms").value(opts.deadlineMs);
    if (opts.evaluate)
        w.key("evaluate").value(true);
    w.endObject();
    return w.take();
}

/** Shared tallies and the violation log. */
struct Outcome
{
    std::atomic<std::uint64_t> ok{0}, degraded{0}, rejected{0};
    std::mutex mu;
    std::vector<std::string> violations;

    void
    violation(std::string what)
    {
        std::lock_guard<std::mutex> lock(mu);
        violations.push_back(std::move(what));
    }
};

/** Check one response line against the contract; returns the id it
 * answered (empty = violation already recorded). */
std::string
checkResponse(const std::string &line, Outcome &out)
{
    try {
        obs::JsonValue doc = obs::parseJson(line);
        std::string id = doc.strOr("id", "");
        std::string status = doc.strOr("status", "");
        if (status == "ok") {
            out.ok.fetch_add(1, std::memory_order_relaxed);
        } else if (status == "degraded") {
            out.degraded.fetch_add(1, std::memory_order_relaxed);
        } else if (status == "rejected") {
            std::string reason = doc.strOr("reason", "");
            if (reason != "overloaded" && reason != "draining" &&
                reason != "deadline")
                out.violation("unknown rejection reason '" + reason +
                              "' for " + id);
            out.rejected.fetch_add(1, std::memory_order_relaxed);
        } else {
            out.violation("status '" + status + "' outside the ladder "
                          "for " + id + ": " + line);
        }
        if (id == "q0" && status != "ok")
            out.violation("empty program answered '" + status +
                          "', expected ok");
        if (id.empty())
            out.violation("response without an id: " + line);
        return id;
    } catch (const std::exception &e) {
        out.violation(std::string("unparseable response (") + e.what() +
                      "): " + line);
        return "";
    }
}

/** Service counters a live scrape must never report going backwards
 * (all Sum-kind; gauges like queue depth legitimately move both
 * ways). */
const char *const kMonotoneKeys[] = {
    "accepted", "rejected", "ok",
    "degraded", "error",    "retries",
    "rejected_after_admit",
};

/** Per-connection memory of the previous scrape's counters. */
using ScrapeState = std::map<std::string, double>;

/**
 * Check one in-band stats response against the telemetry contract:
 * the document is well-formed, the monotone service counters never
 * decrease between successive scrapes on this connection, and the
 * answered tallies never exceed admissions (in-flight requests make
 * `accepted` run ahead; it must never run behind).
 */
void
checkScrape(const std::string &line, ScrapeState &last, Outcome &out)
{
    try {
        obs::JsonValue doc = obs::parseJson(line);
        if (!doc.has("service")) {
            out.violation("stats response without a service section: " +
                          line.substr(0, 120));
            return;
        }
        const obs::JsonValue &svc = doc.at("service");
        for (const char *key : kMonotoneKeys) {
            const double now = svc.numberOr(key, 0);
            auto it = last.find(key);
            if (it != last.end() && now < it->second)
                out.violation(
                    "stats counter '" + std::string(key) +
                    "' went backwards between scrapes (" +
                    std::to_string(it->second) + " -> " +
                    std::to_string(now) + ")");
            last[key] = now;
        }
        const double accepted = svc.numberOr("accepted", 0);
        const double answered = svc.numberOr("ok", 0) +
                                svc.numberOr("degraded", 0) +
                                svc.numberOr("error", 0) +
                                svc.numberOr("rejected_after_admit", 0);
        if (answered > accepted)
            out.violation(
                "scrape answered more than it admitted (accepted " +
                std::to_string(accepted) + ", answered " +
                std::to_string(answered) + ")");
    } catch (const std::exception &e) {
        out.violation(std::string("unparseable stats response (") +
                      e.what() + "): " + line.substr(0, 120));
    }
}

/**
 * Drive one connection: send its request slice with a bounded
 * in-flight window, read newline-delimited responses (they may come
 * back in any order — workers finish when they finish), and account
 * every id exactly once.  With --scrape-every N, a stats control line
 * is interleaved after every N answered requests — on the same
 * connection, so the scrape contends with real load.
 */
void
runConnection(const Options &opts, const std::vector<int> &indices,
              Outcome &out)
{
    const int fd = connectUnix(opts.socketPath);
    if (fd < 0) {
        out.violation("cannot connect to '" + opts.socketPath +
                      "': " + std::strerror(errno));
        return;
    }

    LineReader reader(fd);
    std::set<std::string> pending; // sent, not yet answered
    std::size_t next = 0;
    int answeredHere = 0;  // request answers seen on this connection
    int pendingScrapes = 0;
    ScrapeState scrapeState;

    while (next < indices.size() || !pending.empty() ||
           pendingScrapes > 0) {
        while (next < indices.size() &&
               pending.size() <
                   static_cast<std::size_t>(opts.pipeline)) {
            int index = indices[next++];
            if (!writeLine(fd, requestLine(opts, index))) {
                out.violation("send failed: " +
                              std::string(std::strerror(errno)));
                ::close(fd);
                return;
            }
            pending.insert(numbered("q", index));
        }
        if (pending.empty() && pendingScrapes == 0)
            break;

        std::string_view line;
        const LineReader::Status st = reader.read(line, opts.timeoutMs);
        if (st == LineReader::Status::Timeout) {
            out.violation(std::to_string(pending.size()) +
                          " responses lost (read timeout)");
            break;
        }
        if (st != LineReader::Status::Line) {
            out.violation(std::to_string(pending.size()) +
                          " responses lost (daemon closed the "
                          "connection)");
            break;
        }
        const std::string respLine(line);
        if (pendingScrapes > 0 &&
            respLine.find("\"sched91_serve_stats\"") != std::string::npos) {
            checkScrape(respLine, scrapeState, out);
            --pendingScrapes;
            continue;
        }
        std::string id = checkResponse(respLine, out);
        if (id.empty())
            continue;
        if (pending.erase(id) == 0) {
            out.violation("duplicate or unexpected response id '" + id +
                          "'");
            continue;
        }
        ++answeredHere;
        if (opts.scrapeEvery > 0 && answeredHere % opts.scrapeEvery == 0) {
            if (writeLine(fd, "{\"type\":\"stats\",\"id\":\"s" +
                                  std::to_string(answeredHere) + "\"}"))
                ++pendingScrapes;
            else
                out.violation("scrape send failed: " +
                              std::string(std::strerror(errno)));
        }
    }
    ::close(fd);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);

    // Round-robin the corpus over the connections.
    std::vector<std::vector<int>> slices(
        static_cast<std::size_t>(opts.connections));
    for (int i = 0; i < opts.requests; ++i)
        slices[static_cast<std::size_t>(i % opts.connections)]
            .push_back(i);

    Outcome out;
    std::vector<std::thread> drivers;
    for (const std::vector<int> &slice : slices)
        drivers.emplace_back(
            [&opts, &slice, &out] { runConnection(opts, slice, out); });
    for (std::thread &t : drivers)
        t.join();

    // At quiesce (all drivers joined, nothing in flight) a fresh
    // scrape must balance exactly: every admitted request was answered
    // down the ladder or charged to rejected_after_admit.
    if (opts.scrapeEvery > 0) {
        int fd = connectUnix(opts.socketPath);
        if (fd < 0) {
            out.violation("final scrape: cannot connect: " +
                          std::string(std::strerror(errno)));
        } else {
            std::string line;
            if (!writeLine(fd, "{\"type\":\"stats\",\"id\":\"sfinal\"}")) {
                out.violation("final scrape: send failed");
            } else {
                LineReader reader(fd);
                std::string_view got;
                if (reader.read(got, opts.timeoutMs) ==
                    LineReader::Status::Line)
                    line = got;
                if (line.empty())
                    out.violation("final scrape: no response");
            }
            ::close(fd);
            if (!line.empty()) {
                try {
                    obs::JsonValue doc = obs::parseJson(line);
                    const obs::JsonValue &svc = doc.at("service");
                    const double accepted = svc.numberOr("accepted", 0);
                    const double answeredSvc =
                        svc.numberOr("ok", 0) +
                        svc.numberOr("degraded", 0) +
                        svc.numberOr("error", 0) +
                        svc.numberOr("rejected_after_admit", 0);
                    if (answeredSvc != accepted)
                        out.violation(
                            "conservation broken at quiesce: accepted " +
                            std::to_string(accepted) +
                            " != ok+degraded+error+rejected_after_admit " +
                            std::to_string(answeredSvc));
                } catch (const std::exception &e) {
                    out.violation(
                        std::string("final scrape unparseable (") +
                        e.what() + ")");
                }
            }
        }
    }

    const std::uint64_t answered = out.ok.load() + out.degraded.load() +
                                   out.rejected.load();
    std::printf("soak_client: %d requests over %d connections: "
                "%llu ok, %llu degraded, %llu rejected\n",
                opts.requests, opts.connections,
                static_cast<unsigned long long>(out.ok.load()),
                static_cast<unsigned long long>(out.degraded.load()),
                static_cast<unsigned long long>(out.rejected.load()));
    if (answered != static_cast<std::uint64_t>(opts.requests))
        out.violations.push_back(
            "answered " + std::to_string(answered) + " of " +
            std::to_string(opts.requests) + " requests");
    if (opts.expectDegraded && out.degraded.load() == 0)
        out.violations.push_back(
            "--expect-degraded: no degraded responses — the injected "
            "faults never fired");
    if (out.violations.empty())
        return 0;
    for (const std::string &v : out.violations)
        std::fprintf(stderr, "soak_client: CONTRACT VIOLATION: %s\n",
                     v.c_str());
    return 1;
}
