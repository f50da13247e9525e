/**
 * @file
 * Process-isolation tests (docs/ROBUSTNESS.md): a Supervisor driving
 * real sandbox-worker subprocesses of the CLI binary.  Covers the
 * clean dispatch path, worker death as a ladder rung (degraded answer
 * + quarantine + respawn), an idle worker's death (respawned at the
 * next dispatch), the lane's SIGKILL of a spinning worker at its kill
 * time (and the lane serving on afterwards), a late answer that is
 * never taken, spawn failure (degraded answer, no quarantine),
 * crash-forensics harvest from the shared-memory ring, tally
 * determinism across fresh pools under crash faults, and cross-mode
 * equivalence: in-process and sandboxed ladders answer a
 * fault-injected corpus alike.
 *
 * Worker-side rlimit tests (RLIMIT_AS) are deliberately absent: the
 * address-space cap breaks sanitizer runtimes, so the flag stays 0
 * here and is exercised only by hand (see docs/ROBUSTNESS.md).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <dirent.h>
#include <signal.h>
#include <unistd.h>

#include "fuzz/program_gen.hh"
#include "obs/json_parse.hh"
#include "service/engine.hh"
#include "service/protocol.hh"
#include "service/supervisor.hh"
#include "support/fault_inject.hh"
#include "support/string_util.hh"

using namespace sched91;

namespace
{

const char kCli[] = SCHED91_CLI_PATH;

const char kSource[] = "add %g1, %g2, %g3\n"
                       "ld [%g3], %g4\n"
                       "add %g4, %g1, %g5\n"
                       "st %g5, [%g3]\n"
                       "add %g5, %g2, %g6\n";

service::RequestSpec
specFor(const std::string &source, const std::string &id = "t")
{
    service::RequestSpec spec;
    spec.id = id;
    spec.source = source;
    return spec;
}

/** Engine + Supervisor pair over the real CLI binary. */
struct Harness
{
    explicit Harness(service::SupervisorConfig config)
        : engine(config.engine), supervisor(std::move(config), engine)
    {
        supervisor.start();
    }

    static service::SupervisorConfig
    configWith(const std::string &faultSpec, int hangMs = 10'000)
    {
        service::SupervisorConfig config;
        config.workers = 1;
        config.workerExe = kCli;
        config.faultSpec = faultSpec;
        config.hangTimeoutMs = hangMs;
        return config;
    }

    obs::JsonValue
    process(const service::RequestSpec &spec, double remaining = 0.0)
    {
        return obs::parseJson(supervisor.process(0, spec, remaining));
    }

    service::Engine engine;
    service::Supervisor supervisor;
};

std::vector<std::string>
filesIn(const std::string &dir)
{
    std::vector<std::string> names;
    if (DIR *d = ::opendir(dir.c_str())) {
        while (dirent *e = ::readdir(d))
            if (e->d_name[0] != '.')
                names.emplace_back(e->d_name);
        ::closedir(d);
    }
    return names;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** State letter and parent pid of process @p pid from /proc (state
 * '?' when it is gone). */
std::pair<char, pid_t>
procState(const std::string &pid)
{
    const std::string stat = slurp("/proc/" + pid + "/stat");
    const std::size_t paren = stat.rfind(')');
    if (paren == std::string::npos)
        return {'?', -1};
    char state = '?';
    int ppid = -1;
    std::sscanf(stat.c_str() + paren + 1, " %c %d", &state, &ppid);
    return {state, static_cast<pid_t>(ppid)};
}

/** Pids of this process's children. */
std::vector<pid_t>
childPids()
{
    std::vector<pid_t> pids;
    for (const std::string &name : filesIn("/proc"))
        if (name.find_first_not_of("0123456789") == std::string::npos &&
            procState(name).second == ::getpid())
            pids.push_back(static_cast<pid_t>(std::stoi(name)));
    return pids;
}

} // namespace

TEST(Isolation, CleanRequestAnswersOkThroughTheWorker)
{
    Harness h{Harness::configWith("")};
    obs::JsonValue doc = h.process(specFor(kSource));
    EXPECT_EQ(doc.strOr("status", ""), "ok");
    EXPECT_EQ(doc.numberOr("blocks", -1), 1);
    EXPECT_EQ(doc.numberOr("insts", -1), 5);
    EXPECT_EQ(doc.numberOr("attempts", -1), 1);
    EXPECT_EQ(h.engine.counters().ok.load(), 1u);
    EXPECT_EQ(h.engine.counters().workerCrashes.load(), 0u);
}

TEST(Isolation, WorkerCrashIsItsOwnLadderRung)
{
    // Every block draws a SIGSEGV: the worker dies mid-attempt.  The
    // victim must come back degraded to original order, its payload
    // quarantined, and the pool respawned — in the parent, which
    // never sees the signal.
    Harness h{Harness::configWith("seed=3,crash-segv=1")};
    obs::JsonValue doc = h.process(specFor(kSource));
    EXPECT_EQ(doc.strOr("status", ""), "degraded");
    EXPECT_EQ(doc.numberOr("degraded_blocks", -1), 1);
    EXPECT_EQ(doc.numberOr("attempts", -1), 1);

    const service::SvcCounters &c = h.engine.counters();
    EXPECT_EQ(c.degraded.load(), 1u);
    EXPECT_EQ(c.workerCrashes.load(), 1u);
    EXPECT_EQ(c.workerRespawns.load(), 1u);
    EXPECT_EQ(c.quarantineAdds.load(), 1u);
    EXPECT_EQ(h.engine.quarantineSize(), 1u);

    // The same payload now short-circuits on the quarantine rung —
    // no worker is risked again.
    doc = h.process(specFor(kSource, "t2"));
    EXPECT_EQ(doc.strOr("status", ""), "degraded");
    EXPECT_TRUE(doc.at("quarantined").boolean());
    EXPECT_EQ(c.quarantineHits.load(), 1u);
    EXPECT_EQ(c.workerCrashes.load(), 1u); // unchanged
}

TEST(Isolation, IdleWorkerDeathRespawnsTheWorker)
{
    // A worker that dies between requests holds no request: the next
    // dispatch finds its socket closed, and the lane respawns the
    // worker and sends the request to the new one.  No crash, no
    // degraded answer, and no SIGPIPE in the supervisor.
    Harness h{Harness::configWith("")};
    ASSERT_EQ(h.process(specFor(kSource)).strOr("status", ""), "ok");

    const std::vector<pid_t> workers = childPids();
    ASSERT_EQ(workers.size(), 1u) << "the lane's worker";
    ASSERT_EQ(::kill(workers[0], SIGKILL), 0);
    // Unreaped, the worker stays a zombie; by then its socket is
    // closed.
    const std::string pid = std::to_string(workers[0]);
    for (int i = 0; i < 500 && procState(pid).first != 'Z'; ++i)
        ::usleep(10'000);
    ASSERT_EQ(procState(pid).first, 'Z');

    obs::JsonValue doc = h.process(specFor(kSource, "t2"));
    EXPECT_EQ(doc.strOr("status", ""), "ok");
    EXPECT_EQ(doc.numberOr("attempts", -1), 1);
    const service::SvcCounters &c = h.engine.counters();
    EXPECT_EQ(c.workerRespawns.load(), 1u);
    EXPECT_EQ(c.workerCrashes.load(), 0u);
    EXPECT_EQ(c.ok.load(), 2u);
}

TEST(Isolation, WatchdogKillsASpinningWorker)
{
    // spin-forever wedges the worker in a busy loop; its lane must
    // SIGKILL it at the hang bound and answer the victim degraded.
    Harness h{Harness::configWith("seed=3,spin-forever=1", 400)};
    obs::JsonValue doc = h.process(specFor(kSource));
    EXPECT_EQ(doc.strOr("status", ""), "degraded");

    const service::SvcCounters &c = h.engine.counters();
    EXPECT_EQ(c.workerCrashes.load(), 1u);
    EXPECT_EQ(c.workerKills.load(), 1u);
    EXPECT_EQ(c.workerRespawns.load(), 1u);

    // The lane serves on with the respawned worker: a request with no
    // block to spin in answers ok on its first attempt, and the kill
    // reaches no request but the victim.
    doc = h.process(specFor("", "t2"));
    EXPECT_EQ(doc.strOr("status", ""), "ok");
    EXPECT_EQ(doc.numberOr("attempts", -1), 1);
    EXPECT_EQ(c.workerCrashes.load(), 1u);
    EXPECT_EQ(c.workerKills.load(), 1u);
    EXPECT_EQ(h.engine.quarantineSize(), 1u);
}

TEST(Isolation, AnAnswerPastTheKillTimeIsNeverTaken)
{
    // Each worker answers 10 ms past the 200 ms hang bound.  The lane
    // kills it at the bound every time, so every request takes the
    // crash rung, and none is answered before its kill time.
    Harness h{Harness::configWith("slow-block=1,slow-ms=210", 200)};
    for (int i = 0; i < 5; ++i) {
        // Distinct sources: a repeated one would hit the quarantine.
        const std::string source =
            std::string(kSource) + "add %g" + std::to_string(i + 1) +
            ", %g7, %g7\n";
        const auto t0 = std::chrono::steady_clock::now();
        obs::JsonValue doc = h.process(specFor(source, numbered("k", i)));
        const auto took = std::chrono::steady_clock::now() - t0;
        EXPECT_EQ(doc.strOr("status", ""), "degraded") << "request " << i;
        EXPECT_GE(took, std::chrono::milliseconds(200)) << "request " << i;
    }
    const service::SvcCounters &c = h.engine.counters();
    EXPECT_EQ(c.workerKills.load(), 5u);
    EXPECT_EQ(c.workerCrashes.load(), 5u);
}

TEST(Isolation, SpawnFailureDegradesWithoutQuarantine)
{
    service::SupervisorConfig config;
    config.workers = 1;
    config.workerExe = "/nonexistent/sched91-sandbox";
    config.spawnTimeoutMs = 2000;
    Harness h{std::move(config)};

    obs::JsonValue doc = h.process(specFor(kSource));
    EXPECT_EQ(doc.strOr("status", ""), "degraded");

    const service::SvcCounters &c = h.engine.counters();
    EXPECT_GT(c.workerSpawnFailures.load(), 0u);
    // An absent worker says nothing about the payload: no quarantine.
    EXPECT_EQ(h.engine.quarantineSize(), 0u);
    EXPECT_EQ(c.workerCrashes.load(), 0u);
}

TEST(Isolation, CrashForensicsAreHarvestedFromTheRing)
{
    char tmpl[] = "/tmp/sched91-isol-XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    std::string dir = tmpl;

    service::SupervisorConfig config = Harness::configWith(
        "seed=3,crash-segv=1");
    config.crashDir = dir;
    Harness h{std::move(config)};
    h.process(specFor(kSource));

    // The SIGSEGV'd worker left a flight-recorder ring in the shared
    // memfd; the supervisor dumps it plus a replayable bundle.
    std::string ringPath, bundlePath;
    for (const std::string &name : filesIn(dir)) {
        if (name.rfind("crash-ring-req", 0) == 0)
            ringPath = dir + "/" + name;
        else if (name.rfind("crash-req", 0) == 0)
            bundlePath = dir + "/" + name;
    }
    ASSERT_FALSE(ringPath.empty()) << "no ring dump in " << dir;
    ASSERT_FALSE(bundlePath.empty()) << "no crash bundle in " << dir;

    obs::JsonValue ring = obs::parseJson(slurp(ringPath));
    EXPECT_EQ(ring.numberOr("sched91_crash_ring", -1), 1);
    ASSERT_TRUE(ring.at("events").isArray());
    ASSERT_FALSE(ring.at("events").array().empty());
    // The last thing the worker recorded is the injected fault
    // itself: the ring survives the SIGSEGV.
    const obs::JsonValue &last = ring.at("events").array().back();
    EXPECT_EQ(last.strOr("tag", ""), "inject");
    EXPECT_EQ(last.strOr("detail", ""), "crash-segv");

    // The bundle replays through the explain machinery: it is an
    // ordinary outlier record with stage "crash" and the source
    // attached.
    obs::JsonValue bundle = obs::parseJson(slurp(bundlePath));
    EXPECT_EQ(bundle.numberOr("sched91_outlier", -1), 1);
    EXPECT_EQ(bundle.at("issue").strOr("stage", ""), "crash");
    EXPECT_FALSE(bundle.strOr("source", "").empty());

    std::remove(ringPath.c_str());
    std::remove(bundlePath.c_str());
    ::rmdir(dir.c_str());
}

TEST(Isolation, CrashTalliesAreDeterministicAcrossFreshPools)
{
    // Crash decisions are a pure function of (seed, block content):
    // the same corpus against a fresh pool must reproduce every tally
    // even though workers die and respawn along the way.
    auto runCorpus = [](std::vector<std::uint64_t> &tallies) {
        Harness h{Harness::configWith("seed=11,crash-segv=0.4")};
        for (int i = 0; i < 8; ++i) {
            fuzz::GenParams params;
            params.seed = 100 + static_cast<std::uint64_t>(i);
            params.numBlocks = 1 + i % 3;
            params.maxBlockSize = 12;
            h.process(specFor(fuzz::generateSource(params),
                              numbered("d", i)));
        }
        const service::SvcCounters &c = h.engine.counters();
        tallies = {c.ok.load(), c.degraded.load(),
                   c.workerCrashes.load(), c.quarantineAdds.load(),
                   c.workerRespawns.load()};
    };

    std::vector<std::uint64_t> first, second;
    runCorpus(first);
    runCorpus(second);
    EXPECT_EQ(first, second);
    // The fault rate actually bites: both outcomes occur.
    EXPECT_GT(first[2], 0u) << "no crash ever fired at rate 0.4";
    EXPECT_GT(first[0], 0u) << "every request crashed at rate 0.4";
}

namespace
{

/** @p line without its "spans" member: phase timings are wall clock,
 * everything else in a response is a function of (request, config). */
std::string
withoutSpans(const std::string &line)
{
    const std::size_t at = line.find(",\"spans\":{");
    if (at == std::string::npos)
        return line;
    return line.substr(0, at) + line.substr(line.find('}', at) + 1);
}

/** Every svc tally, in one comparable list. */
std::vector<std::uint64_t>
tallies(const service::SvcCounters &c)
{
    return {c.accepted.load(),          c.rejected.load(),
            c.ok.load(),                c.degraded.load(),
            c.error.load(),             c.retries.load(),
            c.degradedFallbacks.load(), c.quarantineAdds.load(),
            c.quarantineHits.load(),    c.deadlineExpired.load(),
            c.rejectedAfterAdmit.load(), c.workerCrashes.load(),
            c.workerKills.load(),       c.workerRespawns.load(),
            c.workerSpawnFailures.load()};
}

} // namespace

TEST(Isolation, InProcessAndSandboxedLaddersAnswerAlike)
{
    // The isolation mode must not change a response: the same corpus
    // through Engine::process and Supervisor::process answers byte for
    // byte alike (outside wall-clock spans) and leaves the same
    // tallies, with and without throw-grade faults.  Each payload goes
    // twice, so failed payloads come back through the quarantine rung.
    const char *const kFaults[] = {
        "",
        "seed=5,builder-throw=0.3",
        "seed=6,verifier-reject=0.3",
        "seed=7,alloc-fail=0.3",
    };
    const std::optional<BuilderKind> kBuilders[] = {
        BuilderKind::N2Forward, BuilderKind::TableBackward,
        std::nullopt};

    std::uint64_t quarantineHits = 0, retries = 0;
    for (const char *faults : kFaults) {
        SCOPED_TRACE(std::string("faults: ") + faults);
        fault::reset();
        if (*faults != '\0')
            fault::configure(fault::parseSpec(faults));
        service::Engine local{service::EngineConfig{}};
        Harness h{Harness::configWith(faults)};

        for (int i = 0; i < 60; ++i) {
            fuzz::GenParams params;
            params.seed = 500 + static_cast<std::uint64_t>(i);
            params.numBlocks = 1 + i % 4;
            params.maxBlockSize = 16;
            service::RequestSpec spec = specFor(
                fuzz::generateSource(params), numbered("x", i));
            spec.builder = kBuilders[i % 3];
            spec.emitSchedule = true;
            for (int send = 0; send < 2; ++send) {
                const std::string inProcess = local.process(spec, 0.0);
                const std::string sandboxed =
                    h.supervisor.process(0, spec, 0.0);
                ASSERT_EQ(withoutSpans(inProcess), withoutSpans(sandboxed))
                    << "payload " << i << ", send " << send;
            }
        }
        EXPECT_EQ(tallies(local.counters()), tallies(h.engine.counters()));
        quarantineHits += local.counters().quarantineHits.load();
        retries += local.counters().retries.load();
    }
    fault::reset();
    // The faults bite: retries and the quarantine rung both ran.
    EXPECT_GT(retries, 0u);
    EXPECT_GT(quarantineHits, 0u);
}
