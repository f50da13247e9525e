/**
 * @file
 * Resilient-service tests (docs/ROBUSTNESS.md): deterministic fault
 * injection, the admission queue, the wire protocol, the Engine's
 * retry/degradation ladder (one test per injection point, matching
 * the failure-mode matrix), graceful drain of an in-process daemon
 * over a real AF_UNIX socket, the pipeline's interrupt rung, the
 * reducer's wall-clock cap, and end-to-end CLI contracts driven as
 * subprocesses (empty program, SIGINT drain, the budget rung under
 * --strict, lane-count independence, and the daemon answering what
 * `sched91 schedule` prints).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/pipeline.hh"
#include "fuzz/differential.hh"
#include "fuzz/program_gen.hh"
#include "ir/parser.hh"
#include "machine/presets.hh"
#include "obs/chrome_trace.hh"
#include "obs/flight_recorder.hh"
#include "obs/json.hh"
#include "obs/json_parse.hh"
#include "service/bounded_queue.hh"
#include "service/daemon.hh"
#include "service/engine.hh"
#include "service/protocol.hh"
#include "support/cancellation.hh"
#include "support/diagnostics.hh"
#include "support/fault_inject.hh"
#include "support/line_io.hh"
#include "support/logging.hh"

using namespace sched91;

namespace
{

/** Disarm fault injection no matter how a test exits. */
struct FaultGuard
{
    FaultGuard() { fault::reset(); }
    ~FaultGuard() { fault::reset(); }
};

/** A small but non-trivial straight-line block. */
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

obs::JsonValue
processToJson(service::Engine &engine, const service::RequestSpec &spec,
              double remainingSeconds = 0.0)
{
    std::string line = engine.process(spec, remainingSeconds);
    return obs::parseJson(line);
}

} // namespace

// ---------------------------------------------------------------------------
// Fault injection: determinism and spec parsing.

TEST(FaultInject, SpecRoundTripsAndValidates)
{
    FaultGuard guard;
    fault::Config config = fault::parseSpec(
        "seed=42,builder-throw=0.25,verifier-reject=0.5,"
        "slow-block=0.1,alloc-fail=1,slow-ms=40");
    EXPECT_EQ(config.seed, 42u);
    EXPECT_DOUBLE_EQ(
        config.rate[static_cast<std::size_t>(fault::Point::BuilderThrow)],
        0.25);
    EXPECT_DOUBLE_EQ(
        config.rate[static_cast<std::size_t>(fault::Point::AllocFail)],
        1.0);
    EXPECT_EQ(config.slowBlockMs, 40);

    // The rendered spec reparses to the same configuration.
    fault::Config again = fault::parseSpec(fault::specString(config));
    EXPECT_EQ(again.seed, config.seed);
    EXPECT_EQ(again.rate, config.rate);
    EXPECT_EQ(again.slowBlockMs, config.slowBlockMs);

    EXPECT_THROW(fault::parseSpec("seed=1,bogus-point=0.5"),
                 FatalError);
    EXPECT_THROW(fault::parseSpec("builder-throw=1.5"), FatalError);
}

TEST(FaultInject, SignalGradePointsParseAndRoundTrip)
{
    // The `--isolate=process` faults: these kill or wedge the whole
    // worker process rather than throwing, so they are parsed and
    // forwarded (via specString) to sandbox workers like any other
    // point.
    FaultGuard guard;
    fault::Config config = fault::parseSpec(
        "seed=9,crash-segv=0.5,crash-abort=0.25,spin-forever=0.1");
    EXPECT_DOUBLE_EQ(
        config.rate[static_cast<std::size_t>(fault::Point::CrashSegv)],
        0.5);
    EXPECT_DOUBLE_EQ(
        config.rate[static_cast<std::size_t>(fault::Point::CrashAbort)],
        0.25);
    EXPECT_DOUBLE_EQ(
        config.rate[static_cast<std::size_t>(
            fault::Point::SpinForever)],
        0.1);

    fault::Config again = fault::parseSpec(fault::specString(config));
    EXPECT_EQ(again.rate, config.rate);
    EXPECT_EQ(again.seed, config.seed);
}

TEST(FaultInject, DecisionsAreDeterministicAndSaltSensitive)
{
    FaultGuard guard;
    fault::Config config;
    config.seed = 7;
    config.rate[static_cast<std::size_t>(fault::Point::BuilderThrow)] =
        0.5;
    fault::configure(config);

    // Same (point, key, salt) -> same answer, across repeated asks.
    bool fired = false, clear = false;
    for (std::uint64_t key = 0; key < 64; ++key) {
        const bool first =
            fault::shouldFire(fault::Point::BuilderThrow, key, 0);
        for (int repeat = 0; repeat < 3; ++repeat)
            EXPECT_EQ(
                fault::shouldFire(fault::Point::BuilderThrow, key, 0),
                first);
        (first ? fired : clear) = true;
    }
    // At rate 0.5 over 64 keys both outcomes must occur.
    EXPECT_TRUE(fired);
    EXPECT_TRUE(clear);

    // The retry salt changes the draw for at least one key (this is
    // what lets the ladder see a transient fault clear).
    bool saltMatters = false;
    for (std::uint64_t key = 0; key < 64 && !saltMatters; ++key)
        saltMatters =
            fault::shouldFire(fault::Point::BuilderThrow, key, 0) !=
            fault::shouldFire(fault::Point::BuilderThrow, key, 1);
    EXPECT_TRUE(saltMatters);

    // Unarmed points never fire; a reset disarms everything.
    EXPECT_FALSE(fault::shouldFire(fault::Point::AllocFail, 1, 0));
    fault::reset();
    EXPECT_FALSE(fault::enabled());
    EXPECT_FALSE(fault::shouldFire(fault::Point::BuilderThrow, 1, 0));
}

// ---------------------------------------------------------------------------
// Admission queue.

TEST(BoundedQueue, ShedsWhenFullAndDrainsAfterClose)
{
    service::BoundedQueue<int> queue(2);
    EXPECT_TRUE(queue.tryPush(1));
    EXPECT_TRUE(queue.tryPush(2));
    EXPECT_FALSE(queue.tryPush(3)); // full -> load shed, not block

    queue.close();
    EXPECT_FALSE(queue.tryPush(4)); // closed -> no admission

    // Everything admitted before close still drains, in order.
    std::optional<int> a = queue.pop();
    std::optional<int> b = queue.pop();
    ASSERT_TRUE(a && b);
    EXPECT_EQ(*a, 1);
    EXPECT_EQ(*b, 2);
    EXPECT_FALSE(queue.pop().has_value()); // closed and drained
}

TEST(BoundedQueue, PopBlocksUntilPushArrives)
{
    service::BoundedQueue<int> queue(1);
    std::optional<int> got;
    std::thread consumer([&] { got = queue.pop(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(queue.tryPush(42));
    consumer.join();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 42);
}

// ---------------------------------------------------------------------------
// Wire protocol.

TEST(Protocol, ParsesFullRequestAndAppliesDefaults)
{
    std::string error;
    std::optional<service::RequestSpec> spec =
        service::parseRequestLine(
            "{\"id\":\"r1\",\"source\":\"add %g1, %g2, %g3\\n\","
            "\"algorithm\":\"warren\",\"builder\":\"table-fwd\","
            "\"policy\":\"base-offset\",\"machine\":\"sparcstation2\","
            "\"deadline_ms\":250,\"evaluate\":true,"
            "\"emit\":\"schedule\"}",
            error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_EQ(spec->id, "r1");
    EXPECT_EQ(spec->source, "add %g1, %g2, %g3\n");
    ASSERT_TRUE(spec->algorithm.has_value());
    ASSERT_TRUE(spec->builder.has_value());
    EXPECT_EQ(*spec->builder, BuilderKind::TableForward);
    EXPECT_DOUBLE_EQ(spec->deadlineMs, 250.0);
    EXPECT_TRUE(spec->evaluate);
    EXPECT_TRUE(spec->emitSchedule);

    // Minimal request: only source; everything else daemon defaults.
    spec = service::parseRequestLine("{\"source\":\"\"}", error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_TRUE(spec->id.empty());
    EXPECT_FALSE(spec->algorithm.has_value());
    EXPECT_FALSE(spec->builder.has_value());
    EXPECT_DOUBLE_EQ(spec->deadlineMs, 0.0);

    // Display names (stats-JSON meta spellings) are accepted too.
    spec = service::parseRequestLine(
        "{\"source\":\"\",\"builder\":\"" +
            std::string(builderKindName(BuilderKind::TableForward)) +
            "\"}",
        error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_EQ(*spec->builder, BuilderKind::TableForward);
}

TEST(Protocol, RejectsMalformedRequests)
{
    std::string error;
    EXPECT_FALSE(service::parseRequestLine("not json", error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(service::parseRequestLine("{\"id\":\"x\"}", error));
    EXPECT_FALSE(
        service::parseRequestLine("{\"source\":123}", error));
    EXPECT_FALSE(service::parseRequestLine(
        "{\"source\":\"\",\"algorithm\":\"bogus\"}", error));
    EXPECT_FALSE(service::parseRequestLine(
        "{\"source\":\"\",\"deadline_ms\":-1}", error));
}

TEST(Protocol, ResponseLinesRoundTripThroughTheJsonParser)
{
    service::ResponseBody body;
    body.status = "degraded";
    body.blocks = 3;
    body.insts = 17;
    body.degradedBlocks = 2;
    body.attempts = 2;
    body.downgradedBuilder = true;
    body.schedule = {"add %g1, %g2, %g3", "nop"};

    obs::JsonValue doc =
        obs::parseJson(service::responseLine("r9", body));
    EXPECT_EQ(doc.strOr("id", ""), "r9");
    EXPECT_EQ(doc.strOr("status", ""), "degraded");
    EXPECT_EQ(doc.numberOr("blocks", -1), 3);
    EXPECT_EQ(doc.numberOr("degraded_blocks", -1), 2);
    EXPECT_EQ(doc.numberOr("attempts", -1), 2);
    EXPECT_TRUE(doc.at("downgraded_builder").boolean());
    ASSERT_TRUE(doc.at("schedule").isArray());
    EXPECT_EQ(doc.at("schedule").array().size(), 2u);

    doc = obs::parseJson(service::rejectedLine("r2", "overloaded"));
    EXPECT_EQ(doc.strOr("status", ""), "rejected");
    EXPECT_EQ(doc.strOr("reason", ""), "overloaded");

    doc = obs::parseJson(service::errorLine("", "bad token"));
    EXPECT_EQ(doc.strOr("status", ""), "error");
    EXPECT_EQ(doc.strOr("error", ""), "bad token");
}

TEST(Protocol, DeadlineHitIsEmittedOnlyWhenTrue)
{
    // The supervisor attributes deadline expiry across the process
    // boundary from this field, so a degraded-on-budget response must
    // carry it and the common case must not pay for the key.
    service::ResponseBody body;
    body.status = "degraded";
    body.deadlineHit = true;
    obs::JsonValue doc =
        obs::parseJson(service::responseLine("r1", body));
    EXPECT_TRUE(doc.at("deadline_hit").boolean());

    body.deadlineHit = false;
    doc = obs::parseJson(service::responseLine("r1", body));
    EXPECT_FALSE(doc.has("deadline_hit"));
}

TEST(Protocol, SandboxEnvelopeRoundTripsAndStaysAValidRequest)
{
    service::SandboxEnvelope env;
    env.spec.id = "e7";
    env.spec.source = "add %g1, %g2, %g3\n";
    env.spec.builder = BuilderKind::TableForward;
    env.spec.algorithm = AlgorithmKind::SimpleForward;
    env.spec.deadlineMs = 125.0;
    env.spec.evaluate = true;
    env.attempt = 1;
    env.downgraded = true;

    std::string line = service::sandboxEnvelopeLine(env);

    std::string error;
    std::optional<service::SandboxEnvelope> back =
        service::parseSandboxEnvelopeLine(line, error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->spec.id, "e7");
    EXPECT_EQ(back->spec.source, env.spec.source);
    EXPECT_EQ(*back->spec.builder, BuilderKind::TableForward);
    EXPECT_DOUBLE_EQ(back->spec.deadlineMs, 125.0);
    EXPECT_TRUE(back->spec.evaluate);
    EXPECT_EQ(back->attempt, 1);
    EXPECT_TRUE(back->downgraded);

    // The envelope is a plain request line plus extra keys: ordinary
    // protocol consumers parse it and ignore the ladder fields.
    std::optional<service::RequestSpec> asRequest =
        service::parseRequestLine(line, error);
    ASSERT_TRUE(asRequest.has_value()) << error;
    EXPECT_EQ(asRequest->id, "e7");
    EXPECT_EQ(*asRequest->builder, BuilderKind::TableForward);

    // Malformed envelopes answer "error", not UB.
    EXPECT_FALSE(service::parseSandboxEnvelopeLine("not json", error));
    EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Engine ladder — one test per injection point (the failure-mode
// matrix of docs/ROBUSTNESS.md), plus quarantine and the empty
// program.

TEST(EngineLadder, EmptyProgramAnswersOkWithZeroBlocks)
{
    FaultGuard guard;
    service::Engine engine{service::EngineConfig{}};
    obs::JsonValue doc = processToJson(engine, specFor(""));
    EXPECT_EQ(doc.strOr("status", ""), "ok");
    EXPECT_EQ(doc.numberOr("blocks", -1), 0);
    EXPECT_EQ(doc.numberOr("insts", -1), 0);
    EXPECT_EQ(doc.numberOr("attempts", -1), 1);
    EXPECT_EQ(engine.counters().ok.load(), 1u);
}

TEST(EngineLadder, PersistentBuilderThrowFallsToLastRungAndQuarantines)
{
    FaultGuard guard;
    fault::Config config;
    config.rate[static_cast<std::size_t>(
        fault::Point::BuilderThrow)] = 1.0; // fails every attempt
    fault::configure(config);

    service::Engine engine{service::EngineConfig{}};
    obs::JsonValue doc = processToJson(engine, specFor(kSource));
    EXPECT_EQ(doc.strOr("status", ""), "degraded");
    EXPECT_EQ(doc.numberOr("attempts", -1), 3); // both rungs + fallback
    EXPECT_FALSE(doc.at("quarantined").boolean());
    EXPECT_EQ(doc.numberOr("degraded_blocks", -1),
              doc.numberOr("blocks", -2));
    EXPECT_EQ(engine.counters().retries.load(), 1u);
    EXPECT_EQ(engine.counters().degradedFallbacks.load(), 1u);
    EXPECT_EQ(engine.counters().quarantineAdds.load(), 1u);
    EXPECT_EQ(engine.quarantineSize(), 1u);

    // The same payload again short-circuits at the quarantine rung.
    doc = processToJson(engine, specFor(kSource, "t2"));
    EXPECT_EQ(doc.strOr("status", ""), "degraded");
    EXPECT_TRUE(doc.at("quarantined").boolean());
    EXPECT_EQ(doc.numberOr("attempts", -1), 0);
    EXPECT_EQ(engine.counters().quarantineHits.load(), 1u);
    // No second quarantine entry, no extra retries.
    EXPECT_EQ(engine.counters().retries.load(), 1u);
    EXPECT_EQ(engine.quarantineSize(), 1u);
}

TEST(EngineLadder, TransientBuilderThrowClearsOnTheRetryRung)
{
    FaultGuard guard;
    // At rate 0.5 the salt re-draw clears the fault for some seed;
    // search a few.  Each trial uses a fresh engine so quarantine
    // state never leaks between seeds.
    bool sawRetrySuccess = false;
    for (std::uint64_t seed = 1; seed <= 200 && !sawRetrySuccess;
         ++seed) {
        fault::Config config;
        config.seed = seed;
        config.rate[static_cast<std::size_t>(
            fault::Point::BuilderThrow)] = 0.5;
        fault::configure(config);

        service::Engine engine{service::EngineConfig{}};
        service::RequestSpec spec = specFor(kSource);
        spec.builder = BuilderKind::N2Forward; // downgrade is visible
        obs::JsonValue doc = processToJson(engine, spec);
        if (doc.strOr("status", "") == "ok" &&
            doc.numberOr("attempts", -1) == 2) {
            sawRetrySuccess = true;
            EXPECT_TRUE(doc.at("downgraded_builder").boolean());
            EXPECT_EQ(engine.counters().retries.load(), 1u);
            EXPECT_EQ(engine.counters().degradedFallbacks.load(), 0u);
            EXPECT_EQ(engine.quarantineSize(), 0u);
        }
    }
    EXPECT_TRUE(sawRetrySuccess)
        << "no seed in 1..200 produced fail-then-clear";
}

TEST(EngineLadder, PersistentVerifierRejectEscalatesThroughTheLadder)
{
    FaultGuard guard;
    fault::Config config;
    config.rate[static_cast<std::size_t>(
        fault::Point::VerifierReject)] = 1.0;
    fault::configure(config);

    service::Engine engine{service::EngineConfig{}};
    obs::JsonValue doc = processToJson(engine, specFor(kSource));
    // Attempt 0 runs with containment *off*, so the rejection
    // surfaces as a failure; at rate 1.0 the retry rejects too, and
    // the request lands on the last rung (original order).
    EXPECT_EQ(doc.strOr("status", ""), "degraded");
    EXPECT_EQ(doc.numberOr("attempts", -1), 3);
    EXPECT_EQ(doc.numberOr("degraded_blocks", -1),
              doc.numberOr("blocks", -2));
    EXPECT_EQ(engine.counters().retries.load(), 1u);
    EXPECT_EQ(engine.counters().degradedFallbacks.load(), 1u);
    EXPECT_EQ(engine.counters().error.load(), 0u);
    EXPECT_EQ(engine.counters().degraded.load(), 1u);
}

TEST(EngineLadder, AllocFailEveryAttemptReachesTheLastRung)
{
    FaultGuard guard;
    fault::Config config;
    config.rate[static_cast<std::size_t>(fault::Point::AllocFail)] =
        1.0;
    fault::configure(config);

    service::Engine engine{service::EngineConfig{}};
    obs::JsonValue doc = processToJson(engine, specFor(kSource));
    EXPECT_EQ(doc.strOr("status", ""), "degraded");
    EXPECT_EQ(doc.numberOr("attempts", -1), 3);
    EXPECT_EQ(engine.counters().degradedFallbacks.load(), 1u);
    EXPECT_EQ(engine.counters().error.load(), 0u); // contained, not error
}

TEST(EngineLadder, SlowBlockDrivesTheDeadlineRung)
{
    FaultGuard guard;
    fault::Config config;
    config.rate[static_cast<std::size_t>(fault::Point::SlowBlock)] =
        1.0;
    config.slowBlockMs = 100;
    fault::configure(config);

    service::Engine engine{service::EngineConfig{}};
    // 10 ms of deadline against a 100 ms stall: the budget rung
    // degrades the block instead of erroring out.
    obs::JsonValue doc =
        processToJson(engine, specFor(kSource), /*remaining=*/0.010);
    EXPECT_EQ(doc.strOr("status", ""), "degraded");
    EXPECT_GE(engine.counters().deadlineExpired.load(), 1u);
    EXPECT_EQ(engine.counters().error.load(), 0u);
}

TEST(EngineLadder, FlightRecorderCapturesInjectionEvents)
{
    FaultGuard guard;
    fault::Config config;
    config.rate[static_cast<std::size_t>(
        fault::Point::BuilderThrow)] = 1.0;
    fault::configure(config);

    // Daemon-style flight ownership: the service owns the rings and
    // installs one recorder per worker lane; the pipeline detects
    // external management and records into the installed lane.
    obs::flight::setEnabled(true);
    obs::flight::beginRun();
    obs::flight::setExternallyManaged(true);
    {
        obs::flight::ScopedRecorder scope(obs::flight::claim());
        service::Engine engine{service::EngineConfig{}};
        processToJson(engine, specFor(kSource));

        obs::flight::Recorder *rec = obs::flight::current();
        ASSERT_NE(rec, nullptr);
        bool sawInjection = false;
        for (std::size_t i = 0; i < rec->kept(); ++i) {
            const obs::flight::Event &ev = rec->keptAt(i);
            if (std::string_view(ev.tag) == "inject" &&
                std::string_view(ev.detail) == "builder-throw")
                sawInjection = true;
        }
        EXPECT_TRUE(sawInjection)
            << "no 'inject' event in the flight ring";
    }
    obs::flight::setExternallyManaged(false);
    obs::flight::setEnabled(false);
    obs::flight::beginRun(); // leave clean rings for later tests
}

TEST(EngineLadder, FaultsDoNotLeakAcrossRequests)
{
    FaultGuard guard;
    fault::Config config;
    config.rate[static_cast<std::size_t>(
        fault::Point::BuilderThrow)] = 1.0;
    fault::configure(config);

    service::Engine engine{service::EngineConfig{}};
    processToJson(engine, specFor(kSource)); // degraded + quarantined

    // A different payload with injection disarmed schedules cleanly:
    // nothing sticks to the engine from the previous failure.
    fault::reset();
    obs::JsonValue doc = processToJson(
        engine, specFor("add %g1, %g2, %g3\nsub %g3, %g1, %g4\n"));
    EXPECT_EQ(doc.strOr("status", ""), "ok");
    EXPECT_FALSE(doc.at("quarantined").boolean());
    EXPECT_EQ(doc.numberOr("degraded_blocks", -1), 0);
}

// ---------------------------------------------------------------------------
// Pipeline interrupt rung (the CLI's SIGINT path uses exactly this).

TEST(PipelineInterrupt, FiredTokenDegradesRemainingBlocks)
{
    fuzz::GenParams params;
    params.seed = 3;
    params.numBlocks = 6;
    params.maxBlockSize = 12;
    params.branchProb = 1.0; // every block ends in a control transfer
    DiagnosticEngine diags;
    Program prog =
        parseAssembly(fuzz::generateSource(params), diags, "interrupt.s");

    CancellationToken token;
    token.requestCancel(); // drain requested before the run starts

    PipelineOptions opts;
    opts.threads = 1;
    opts.interrupt = &token;
    MachineModel machine = presetByName("sparcstation2");
    ProgramResult result = runPipeline(prog, machine, opts);

    ASSERT_GE(result.numBlocks, 2u);
    EXPECT_EQ(result.blocksDegraded, result.numBlocks);
    ASSERT_FALSE(result.blockIssues.empty());
    for (const ProgramResult::BlockIssue &issue : result.blockIssues) {
        EXPECT_EQ(issue.stage, "interrupt");
        EXPECT_TRUE(issue.degraded);
    }
}

// ---------------------------------------------------------------------------
// Reducer wall-clock cap (--reduce-seconds): best-so-far semantics.

TEST(ReducerCap, WallClockCapReturnsBestSoFar)
{
    std::string source;
    for (int i = 0; i < 40; ++i)
        source += "line" + std::to_string(i) + "\n";

    // "Fails" only while line39 survives, and takes 5 ms per check,
    // so the search is long: most candidate windows drop line39 and
    // are refused, which is what makes the cap worth testing.
    std::atomic<int> uncappedCalls{0}, cappedCalls{0};
    auto slowNeedsLastLine = [](std::atomic<int> &calls) {
        return [&calls](const std::string &text) {
            calls.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            return text.find("line39\n") != std::string::npos;
        };
    };

    std::string uncapped =
        fuzz::minimizeLines(source, slowNeedsLastLine(uncappedCalls));
    EXPECT_EQ(uncapped, "line39\n"); // fully reduced
    EXPECT_GT(uncappedCalls.load(), 10);

    std::string capped = fuzz::minimizeLines(
        source, slowNeedsLastLine(cappedCalls), 512,
        /*maxSeconds=*/0.025);
    EXPECT_LT(cappedCalls.load(), uncappedCalls.load());
    // Best-so-far: a valid reproducer (line39 kept), but the cap
    // fired before full reduction.
    EXPECT_NE(capped.find("line39\n"), std::string::npos);
    EXPECT_GT(std::count(capped.begin(), capped.end(), '\n'), 1);

    // Operand pass honors its cap too.
    std::string operands;
    for (int i = 0; i < 8; ++i)
        operands += "op %a, %b, %c, %d\n";
    std::atomic<int> opCalls{0};
    auto slowAlwaysFails = [&opCalls](const std::string &) {
        opCalls.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return true;
    };
    std::string trimmed = fuzz::minimizeOperands(
        operands, slowAlwaysFails, 256, /*maxSeconds=*/0.001);
    EXPECT_FALSE(trimmed.empty());
    EXPECT_NE(trimmed.find(','), std::string::npos); // stopped early
}

// ---------------------------------------------------------------------------
// In-process daemon over a real socket: admission, drain, shed.

namespace
{

/** A client of an in-process daemon over the line layer: connects
 * once the daemon is up (retrying for about two seconds; fd stays -1
 * when it never came up). */
struct Client
{
    explicit Client(const std::string &path)
    {
        for (int i = 0; i < 100 && fd < 0; ++i) {
            fd = connectUnix(path);
            if (fd < 0)
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        reader = LineReader(fd);
    }
    ~Client() { close(); }

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    void
    close()
    {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }

    /** Send @p lines ('\n'-separated) as one write. */
    bool send(const std::string &lines) { return writeLine(fd, lines); }

    /** Responses until @p want lines arrive (or a 10 s safety
     * timeout). */
    std::vector<std::string>
    read(std::size_t want)
    {
        std::vector<std::string> lines;
        const auto deadline =
            LineReader::Clock::now() + std::chrono::seconds(10);
        std::string_view line;
        while (lines.size() < want &&
               reader.read(line, deadline) == LineReader::Status::Line)
            lines.emplace_back(line);
        return lines;
    }

    int fd = -1;
    LineReader reader;
};

std::string
testSocketPath(const char *tag)
{
    return "/tmp/sched91-test-" + std::string(tag) + "-" +
           std::to_string(::getpid()) + ".sock";
}

} // namespace

TEST(Daemon, DrainAnswersEverythingAccepted)
{
    FaultGuard guard;
    service::DaemonConfig config;
    config.socketPath = testSocketPath("drain");
    config.workers = 2;
    config.queueCapacity = 8;
    config.statsPath = ""; // no stats document from a test
    ::unlink(config.socketPath.c_str());

    service::Daemon daemon(config);
    int rc = -1;
    std::thread server([&] { rc = daemon.run(); });

    Client client(config.socketPath);
    ASSERT_GE(client.fd, 0) << "daemon did not come up";

    // Three requests: the empty program, a real one, a malformed one.
    ASSERT_TRUE(client.send("{\"id\":\"q0\",\"source\":\"\"}"));
    ASSERT_TRUE(client.send("{\"id\":\"q1\",\"source\":\"add %g1, "
                            "%g2, %g3\\nld [%g3], %g4\\n\"}"));
    ASSERT_TRUE(client.send("this is not json"));

    std::vector<std::string> lines = client.read(3);
    ASSERT_EQ(lines.size(), 3u);

    std::set<std::string> statuses;
    for (const std::string &line : lines) {
        obs::JsonValue doc = obs::parseJson(line);
        statuses.insert(doc.strOr("id", "") + ":" +
                        doc.strOr("status", ""));
    }
    EXPECT_TRUE(statuses.count("q0:ok"));
    EXPECT_TRUE(statuses.count("q1:ok"));
    EXPECT_TRUE(statuses.count(":error")); // malformed line, no id

    daemon.requestDrain();
    server.join();
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(daemon.counters().accepted.load(), 2u);
    EXPECT_EQ(daemon.counters().ok.load(), 2u);
    EXPECT_EQ(daemon.counters().rejected.load(), 0u);
}

TEST(Daemon, FullQueueShedsInsteadOfBuffering)
{
    FaultGuard guard;
    // One worker stalled 300 ms per block by fault injection, a
    // one-slot queue: pipelined requests 3..N find the queue full and
    // must come back "rejected"/overloaded — never block, never drop.
    fault::Config fconfig;
    fconfig.rate[static_cast<std::size_t>(fault::Point::SlowBlock)] =
        1.0;
    fconfig.slowBlockMs = 300;
    fault::configure(fconfig);

    service::DaemonConfig config;
    config.socketPath = testSocketPath("shed");
    config.workers = 1;
    config.queueCapacity = 1;
    config.statsPath = "";
    ::unlink(config.socketPath.c_str());

    service::Daemon daemon(config);
    int rc = -1;
    std::thread server([&] { rc = daemon.run(); });

    Client client(config.socketPath);
    ASSERT_GE(client.fd, 0);

    const int kRequests = 6;
    std::string burst;
    for (int i = 0; i < kRequests; ++i)
        burst += std::string(i ? "\n" : "") + "{\"id\":\"q" +
                 std::to_string(i) +
                 "\",\"source\":\"add %g1, %g2, %g3\\n\"}";
    ASSERT_TRUE(client.send(burst));

    std::vector<std::string> lines =
        client.read(static_cast<std::size_t>(kRequests));
    ASSERT_EQ(lines.size(), static_cast<std::size_t>(kRequests));

    int answered = 0, rejected = 0;
    for (const std::string &line : lines) {
        obs::JsonValue doc = obs::parseJson(line);
        const std::string status = doc.strOr("status", "");
        EXPECT_TRUE(status == "ok" || status == "degraded" ||
                    status == "rejected")
            << line;
        ++answered;
        if (status == "rejected") {
            ++rejected;
            EXPECT_EQ(doc.strOr("reason", ""), "overloaded");
        }
    }
    EXPECT_EQ(answered, kRequests); // zero lost
    EXPECT_GE(rejected, 1);         // shed under pressure

    daemon.requestDrain();
    server.join();
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(daemon.counters().accepted.load() +
                  daemon.counters().rejected.load(),
              static_cast<std::uint64_t>(kRequests));
}

TEST(Daemon, DrainWithNoRequestsExitsCleanly)
{
    FaultGuard guard;
    service::DaemonConfig config;
    config.socketPath = testSocketPath("idle");
    config.workers = 1;
    config.statsPath = "";
    ::unlink(config.socketPath.c_str());

    service::Daemon daemon(config);
    int rc = -1;
    std::thread server([&] { rc = daemon.run(); });
    // Wait until the socket exists so drain races with nothing.
    Client client(config.socketPath);
    ASSERT_GE(client.fd, 0);
    client.close();
    daemon.requestDrain();
    server.join();
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(daemon.counters().accepted.load(), 0u);
}

TEST(Daemon, ConnectionChurnKeepsNoThreadStacks)
{
    // One I/O thread serves every connection, and a connection is
    // closed with its client: 500 connect -> health -> close cycles
    // must map nothing that stays (no thread stack, no buffer arena)
    // until the drain.
    FaultGuard guard;
    service::DaemonConfig config;
    config.socketPath = testSocketPath("churn");
    config.workers = 1;
    config.statsPath = "";
    ::unlink(config.socketPath.c_str());

    service::Daemon daemon(config);
    int rc = -1;
    std::thread server([&] { rc = daemon.run(); });

    const auto mapsLines = [] {
        std::ifstream in("/proc/self/maps");
        std::size_t n = 0;
        for (std::string line; std::getline(in, line);)
            ++n;
        return n;
    };
    const auto cycle = [&config] {
        Client client(config.socketPath);
        return client.send(R"({"type":"health","id":"h"})") &&
               client.read(1).size() == 1;
    };
    EXPECT_TRUE(cycle()) << "daemon did not come up";
    const std::size_t before = mapsLines();
    int answered = 0;
    for (int i = 0; i < 500; ++i)
        answered += cycle() ? 1 : 0;
    // The daemon closes the last connections a moment after their
    // clients do.
    std::size_t after = mapsLines();
    for (int i = 0; i < 100 && after >= before + 50; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        after = mapsLines();
    }

    daemon.requestDrain();
    server.join();
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(answered, 500);
    EXPECT_LT(after, before + 50)
        << "/proc/self/maps went from " << before << " to " << after
        << " lines over 500 connections";
}

TEST(Daemon, IdleConnectionsStartNoThreads)
{
    // The daemon runs one I/O thread beside its lanes: 64 idle
    // connections cost it no thread more than one does.
    FaultGuard guard;
    service::DaemonConfig config;
    config.socketPath = testSocketPath("idle64");
    config.workers = 2;
    config.statsPath = "";
    ::unlink(config.socketPath.c_str());

    service::Daemon daemon(config);
    int rc = -1;
    std::thread server([&] { rc = daemon.run(); });

    const auto tasks = [] {
        std::size_t n = 0;
        for ([[maybe_unused]] const auto &entry :
             std::filesystem::directory_iterator("/proc/self/task"))
            ++n;
        return n;
    };
    std::vector<std::unique_ptr<Client>> clients;
    const auto open = [&] {
        clients.push_back(std::make_unique<Client>(config.socketPath));
        return clients.back()->send(R"({"type":"health"})") &&
               clients.back()->read(1).size() == 1;
    };
    EXPECT_TRUE(open()) << "daemon did not come up";
    const std::size_t withOne = tasks();
    int answered = 1;
    for (int i = 1; i < 64; ++i)
        answered += open() ? 1 : 0;
    const std::size_t withAll = tasks();
    clients.clear();

    daemon.requestDrain();
    server.join();
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(answered, 64);
    EXPECT_EQ(withAll, withOne)
        << withOne << " threads with one connection, " << withAll
        << " with 64";
}

TEST(Daemon, HalfClosedClientGetsEveryAnswer)
{
    // A client that shuts down its write side after its last line,
    // here unterminated, still gets every answer: its connection stays
    // open until nothing is in flight or unsent, then closes.
    FaultGuard guard;
    service::DaemonConfig config;
    config.socketPath = testSocketPath("halfclose");
    config.workers = 2;
    config.statsPath = "";
    ::unlink(config.socketPath.c_str());

    service::Daemon daemon(config);
    int rc = -1;
    std::thread server([&] { rc = daemon.run(); });
    std::set<std::string> answered;
    {
        Client client(config.socketPath);
        const std::string bytes =
            R"({"id":"q1","source":"add %g1, %g2, %g3\n","emit":"schedule"})"
            "\n"
            R"({"id":"q2","source":"nop\n"})";
        EXPECT_EQ(::send(client.fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(bytes.size()));
        EXPECT_EQ(::shutdown(client.fd, SHUT_WR), 0);
        for (const std::string &line : client.read(2)) {
            const obs::JsonValue doc = obs::parseJson(line);
            answered.insert(doc.strOr("id", "") + ":" +
                            doc.strOr("status", ""));
        }
        std::string_view more;
        EXPECT_EQ(client.reader.read(more, 5000), LineReader::Status::Eof);
    }
    daemon.requestDrain();
    server.join();
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(answered, (std::set<std::string>{"q1:ok", "q2:ok"}));
}

TEST(Daemon, AClientThatNeverReadsStallsOnlyItself)
{
    // Client A pipelines requests over a 4 KiB receive buffer and reads
    // none of its answers.  The daemon stops reading A once A's unsent
    // answers pass the cap; B is still answered "ok" at once, and the
    // drain closes A after its deadline instead of waiting on it.
    FaultGuard guard;
    using Clock = std::chrono::steady_clock;
    service::DaemonConfig config;
    config.socketPath = testSocketPath("stall");
    config.workers = 2;
    config.statsPath = "";
    ::unlink(config.socketPath.c_str());

    service::Daemon daemon(config);
    int rc = -1;
    std::atomic<bool> ran{false};
    std::thread server([&] {
        rc = daemon.run();
        ran = true;
    });

    // No ASSERT from here on: a failing check must still reach the
    // join below.
    Client a(config.socketPath);
    EXPECT_GE(a.fd, 0) << "daemon did not come up";
    const int rcvbuf = 4096;
    EXPECT_EQ(::setsockopt(a.fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                           sizeof rcvbuf),
              0);
    EXPECT_EQ(::fcntl(a.fd, F_SETFL, O_NONBLOCK), 0);
    // An endless pipeline of one request, sent until nothing more goes
    // out for half a second: the daemon has stopped reading A.
    std::string burst;
    for (int i = 0; i < 256; ++i)
        burst += R"({"id":"a","source":"add %g1, %g2, %g3\nnop\n",)"
                 R"("emit":"schedule"})"
                 "\n";
    std::size_t at = 0, sent = 0;
    while (sent < (256u << 20)) {
        const ssize_t n = ::send(a.fd, burst.data() + at, burst.size() - at,
                                 MSG_NOSIGNAL);
        if (n > 0) {
            sent += static_cast<std::size_t>(n);
            at = (at + static_cast<std::size_t>(n)) % burst.size();
            continue;
        }
        pollfd pfd{a.fd, POLLOUT, 0};
        if (errno != EAGAIN || ::poll(&pfd, 1, 500) == 0)
            break;
    }
    EXPECT_LT(sent, 256u << 20) << "the daemon never stopped reading A";

    Client b(config.socketPath);
    const auto asked = Clock::now();
    EXPECT_TRUE(b.send(R"({"id":"b","source":"add %g1, %g2, %g3\n"})"));
    std::string_view answer;
    const LineReader::Status st =
        b.reader.read(answer, asked + std::chrono::seconds(2));
    EXPECT_EQ(st, LineReader::Status::Line) << "B had no answer in 2 s";
    if (st == LineReader::Status::Line) {
        EXPECT_EQ(obs::parseJson(answer).strOr("status", ""), "ok")
            << answer;
    }

    const auto drainAt = Clock::now();
    daemon.requestDrain();
    const auto bound =
        service::Daemon::kDrainDeadline + std::chrono::seconds(1);
    while (!ran && Clock::now() - drainAt < bound)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(ran) << "the drain waited on a client that never reads";
    a.close(); // lanes blocked on A's socket, if any, fail and go on
    server.join();
    EXPECT_EQ(rc, 0);
}

namespace
{

/** ROADMAP item 6(a)'s corpus: 20 program_gen seeds under three
 * algorithm/builder pairs, as request lines whose id and trace id
 * name the pair and the seed.  Run it with maxBlockInsts 40, so
 * n2-fwd also takes the table fallback. */
std::vector<std::string>
crossModeRequests()
{
    const std::pair<const char *, const char *> configs[] = {
        {"krishnamurthy", "table-fwd"},
        {"simple-forward", "table-bwd"},
        {"warren", "n2-fwd"}};
    std::vector<std::string> lines;
    for (const auto &[algorithm, builder] : configs)
        for (std::uint64_t seed = 1; seed <= 20; ++seed) {
            fuzz::GenParams params;
            params.seed = seed;
            params.numBlocks = 6;
            params.maxBlockSize = 64;
            const std::string id = std::string(algorithm) + "/" +
                                   builder + "/" + std::to_string(seed);
            obs::JsonWriter w;
            w.beginObject();
            w.key("id").value(id);
            w.key("trace_id").value(id);
            w.key("source").value(fuzz::generateSource(params));
            w.key("algorithm").value(algorithm);
            w.key("builder").value(builder);
            w.key("emit").value("schedule");
            w.endObject();
            lines.push_back(w.take());
        }
    return lines;
}

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

} // namespace

TEST(Daemon, AnswersAlikeOnOneAndFourLanes)
{
    // Neither the lane count nor the isolation mode may change a
    // response: the same pipelined corpus against in-process and
    // sandboxed (--isolate=process) daemons, each at one and at four
    // lanes, answers matched by id.
    FaultGuard guard;
    const std::vector<std::string> requests = crossModeRequests();
    std::string batch;
    for (const std::string &line : requests)
        batch += (batch.empty() ? "" : "\n") + line;

    struct Side
    {
        const char *tag;
        unsigned lanes;
        bool isolate;
    };
    const Side sides[] = {{"lanes1", 1, false},
                          {"lanes4", 4, false},
                          {"isolated1", 1, true},
                          {"isolated4", 4, true}};
    std::map<std::string, std::string> answers[std::size(sides)];
    for (std::size_t side = 0; side < std::size(sides); ++side) {
        SCOPED_TRACE(sides[side].tag);
        service::DaemonConfig config;
        config.socketPath = testSocketPath(sides[side].tag);
        config.workers = sides[side].lanes;
        config.isolateProcess = sides[side].isolate;
        config.sandboxWorkerExe = SCHED91_CLI_PATH;
        config.queueCapacity = requests.size(); // nothing is shed
        config.engine.maxBlockInsts = 40;
        config.statsPath = "";
        ::unlink(config.socketPath.c_str());

        service::Daemon daemon(config);
        int rc = -1;
        std::thread server([&] { rc = daemon.run(); });
        {
            Client client(config.socketPath);
            EXPECT_TRUE(client.send(batch)) << "daemon did not come up";
            for (const std::string &line : client.read(requests.size())) {
                const obs::JsonValue doc = obs::parseJson(line);
                EXPECT_EQ(doc.strOr("status", ""), "ok") << line;
                EXPECT_EQ(doc.strOr("trace_id", ""), doc.strOr("id", ""));
                answers[side][doc.strOr("id", "")] = withoutSpans(line);
            }
            // A sandboxed daemon answered through its workers.
            EXPECT_TRUE(client.send(R"({"type":"health"})"));
            const std::vector<std::string> health = client.read(1);
            EXPECT_EQ(health.size(), 1u);
            for (const std::string &line : health)
                EXPECT_EQ(obs::parseJson(line).numberOr("workers_live", 0),
                          sides[side].isolate ? sides[side].lanes : 0);
        }
        daemon.requestDrain();
        server.join();
        EXPECT_EQ(rc, 0);
    }
    for (std::size_t side = 0; side < std::size(sides); ++side)
        ASSERT_EQ(answers[side].size(), requests.size())
            << sides[side].tag;
    for (std::size_t side = 1; side < std::size(sides); ++side)
        for (const auto &[id, answer] : answers[0])
            EXPECT_EQ(answer, answers[side][id])
                << sides[side].tag << ": " << id;
}

namespace
{

/** @p line with every non-ASCII character as a \u escape (a surrogate
 * pair past the basic plane), the way Python's json.dumps writes it. */
std::string
asciiEscaped(const std::string &line)
{
    std::string out;
    const auto emit = [&out](unsigned code) {
        char buf[16];
        std::snprintf(buf, sizeof buf, "\\u%04x", code);
        out += buf;
    };
    for (std::size_t i = 0; i < line.size();) {
        const auto lead = static_cast<unsigned char>(line[i]);
        if (lead < 0x80) {
            out += line[i++];
            continue;
        }
        const int n = lead >= 0xf0 ? 4 : lead >= 0xe0 ? 3 : 2;
        unsigned code = lead & (0x3fu >> (n - 1));
        for (int k = 1; k < n; ++k)
            code = (code << 6) |
                   (static_cast<unsigned char>(line[i + k]) & 0x3fu);
        i += static_cast<std::size_t>(n);
        if (code < 0x10000) {
            emit(code);
        } else {
            emit(0xd800 + ((code - 0x10000) >> 10));
            emit(0xdc00 + ((code - 0x10000) & 0x3ff));
        }
    }
    return out;
}

} // namespace

TEST(Daemon, EscapedNonAsciiSourceAnswersLikeRawUtf8)
{
    // suspicious.s has an em dash in a comment.  A client whose
    // encoder escapes non-ASCII sends it as \u2014; the daemon must
    // read the same source, and answer as it does the raw UTF-8.
    FaultGuard guard;
    std::ifstream in(SCHED91_SOURCE_DIR
                     "/tests/corpus/malformed/suspicious.s");
    std::ostringstream text;
    text << in.rdbuf();
    const std::string source = text.str();
    ASSERT_NE(source.find("\xe2\x80\x94"), std::string::npos);

    std::string lines[2];
    for (int side = 0; side < 2; ++side) {
        obs::JsonWriter w;
        w.beginObject();
        w.key("id").value(side == 0 ? "raw" : "escaped");
        w.key("trace_id").value("t");
        w.key("source").value(source);
        w.key("emit").value("schedule");
        w.endObject();
        lines[side] = w.take();
    }
    lines[1] = asciiEscaped(lines[1]);
    ASSERT_NE(lines[1].find("\\u2014"), std::string::npos);
    ASSERT_EQ(lines[1].find('\xe2'), std::string::npos);

    service::DaemonConfig config;
    config.socketPath = testSocketPath("utf8");
    config.workers = 1;
    config.statsPath = "";
    ::unlink(config.socketPath.c_str());
    service::Daemon daemon(config);
    int rc = -1;
    std::thread server([&] { rc = daemon.run(); });
    std::map<std::string, std::string> answers;
    {
        Client client(config.socketPath);
        EXPECT_TRUE(client.send(lines[0] + "\n" + lines[1]))
            << "daemon did not come up";
        for (const std::string &line : client.read(2))
            answers[obs::parseJson(line).strOr("id", "")] =
                withoutSpans(line);
    }
    daemon.requestDrain();
    server.join();
    EXPECT_EQ(rc, 0);

    std::string all;
    for (const auto &[id, line] : answers)
        all += line + "\n";
    ASSERT_EQ(answers.count("raw") + answers.count("escaped"), 2u) << all;
    const obs::JsonValue escaped = obs::parseJson(answers["escaped"]);
    EXPECT_EQ(escaped.strOr("status", ""), "ok") << answers["escaped"];
    ASSERT_TRUE(escaped.has("schedule"));
    EXPECT_FALSE(escaped.at("schedule").array().empty());
    const std::string raw = answers["raw"];
    const std::string prefix = "{\"id\":\"raw\"";
    ASSERT_EQ(raw.rfind(prefix, 0), 0u) << raw;
    EXPECT_EQ("{\"id\":\"escaped\"" + raw.substr(prefix.size()),
              answers["escaped"]);
}

TEST(Daemon, MalformedLinesAnswerOneErrorEachInOrder)
{
    // Each line is decoded once and classified from the decoded
    // value; malformed and invalid lines, answered on the reader
    // thread, keep their error answers, one per line, in order.
    FaultGuard guard;
    const std::pair<const char *, const char *> cases[] = {
        {"{\"source\":", "malformed JSON at offset 10: unexpected end of "
                         "input"},
        {"not json", "malformed JSON at offset 0: bad literal"},
        {"[1,2]", "request is not a JSON object"},
        {"{\"id\":\"x\"}", "request has no string 'source' field"},
        {"{\"source\":\"nop\",\"builder\":\"bogus\"}",
         "unknown builder 'bogus'"},
        {"{\"source\":\"nop\",\"deadline_ms\":-1}",
         "deadline_ms must be >= 0"},
        {"{\"source\":\"nop\",\"emit\":\"all\"}",
         "unknown emit mode 'all'"},
        {"{\"type\":\"reboot\",\"id\":\"c1\"}",
         "unknown control type 'reboot'"},
        {"{\"type\":\"stats\",\"format\":\"xml\",\"id\":\"c2\"}",
         "unknown format 'xml'"},
    };
    std::string batch;
    std::vector<std::string> want;
    for (const auto &[line, error] : cases) {
        batch += std::string(line) + "\n{\"type\":\"health\"}\n";
        const std::string id = std::string(line).find("\"c1\"") !=
                                       std::string::npos
                                   ? "c1"
                               : std::string(line).find("\"c2\"") !=
                                       std::string::npos
                                   ? "c2"
                                   : "";
        want.push_back(service::errorLine(id, error));
        want.push_back("health");
    }
    batch.pop_back();

    service::DaemonConfig config;
    config.socketPath = testSocketPath("malformed");
    config.workers = 1;
    config.statsPath = "";
    ::unlink(config.socketPath.c_str());
    service::Daemon daemon(config);
    int rc = -1;
    std::thread server([&] { rc = daemon.run(); });
    std::vector<std::string> got;
    {
        Client client(config.socketPath);
        EXPECT_TRUE(client.send(batch)) << "daemon did not come up";
        got = client.read(want.size());
    }
    daemon.requestDrain();
    server.join();
    EXPECT_EQ(rc, 0);

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        if (want[i] == "health")
            EXPECT_EQ(obs::parseJson(got[i]).strOr("status", ""), "ok")
                << got[i];
        else
            EXPECT_EQ(got[i], want[i]);
    }
    EXPECT_EQ(daemon.counters().error.load(), 7u);
    EXPECT_EQ(daemon.counters().accepted.load(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end CLI contracts (subprocess; SCHED91_CLI_PATH from CMake).

namespace
{

std::string
tempPath(const char *tag)
{
    return "/tmp/sched91-clitest-" + std::string(tag) + "-" +
           std::to_string(::getpid());
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
    ASSERT_TRUE(out.good());
}

std::string
readFileOr(const std::string &path, const std::string &fallback)
{
    std::ifstream in(path);
    if (!in)
        return fallback;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Run `sched91 <args>`; returns its stdout, sets @p status to its
 * exit status (-1 when it did not exit), and puts its stderr in @p err
 * (discarded when null). */
std::string
runCli(const std::string &args, int &status, std::string *err = nullptr)
{
    const std::string out = tempPath("cli.out");
    const std::string err_path = err ? tempPath("cli.err") : "/dev/null";
    const std::string cmd = std::string(SCHED91_CLI_PATH) + " " + args +
                            " > " + out + " 2> " + err_path;
    const int rc = std::system(cmd.c_str());
    status = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    std::string text = readFileOr(out, "");
    ::unlink(out.c_str());
    if (err) {
        *err = readFileOr(err_path, "");
        ::unlink(err_path.c_str());
    }
    return text;
}

/** The lines of @p text that contain @p needle. */
std::vector<std::string>
linesWith(const std::string &text, const std::string &needle)
{
    std::vector<std::string> found;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        if (line.find(needle) != std::string::npos)
            found.push_back(line);
    return found;
}

} // namespace

TEST(CliContract, EmptyProgramSchedulesCleanlyWithValidStats)
{
    const std::string input = tempPath("empty.s");
    const std::string stats = tempPath("empty-stats.json");
    writeFile(input, "");

    const std::string cmd = std::string(SCHED91_CLI_PATH) +
                            " schedule " + input + " --stats-json " +
                            stats + " > /dev/null 2>&1";
    int rc = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(rc));
    EXPECT_EQ(WEXITSTATUS(rc), 0);

    const std::string text = readFileOr(stats, "");
    ASSERT_FALSE(text.empty());
    obs::JsonValue doc = obs::parseJson(text); // must stay valid JSON
    EXPECT_EQ(doc.numberOr("blocks", -1), 0);
    EXPECT_EQ(text.find("nan"), std::string::npos);
    ::unlink(input.c_str());
    ::unlink(stats.c_str());
}

TEST(CliContract, SigintMidRunDrainsAndEmitsStats)
{
    // A deliberately large multi-block program so the run outlives
    // the signal: ~30 generated translation units, n**2 builder.
    std::string source;
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        fuzz::GenParams params;
        params.seed = seed;
        params.numBlocks = 16;
        params.maxBlockSize = 220;
        source += fuzz::generateSource(params);
    }
    const std::string input = tempPath("sigint.s");
    const std::string stats = tempPath("sigint-stats.json");
    writeFile(input, source);

    int out[2];
    ASSERT_EQ(::pipe(out), 0);
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::dup2(out[1], STDOUT_FILENO);
        ::close(out[0]);
        ::close(out[1]);
        int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0)
            ::dup2(devnull, STDERR_FILENO);
        ::execl(SCHED91_CLI_PATH, SCHED91_CLI_PATH, "schedule",
                input.c_str(), "--builder", "n2-fwd", "--stats-json",
                stats.c_str(), static_cast<char *>(nullptr));
        ::_exit(127);
    }
    ::close(out[1]);

    // Sync point: the first stdout byte means the run is under way.
    char byte;
    ssize_t got = ::read(out[0], &byte, 1);
    ASSERT_EQ(got, 1) << "CLI produced no output before exiting";
    ASSERT_EQ(::kill(pid, SIGINT), 0);

    // Keep the pipe drained so the child never blocks on a full pipe
    // while degrading the remaining blocks.
    std::thread sink([&] {
        char sinkBuffer[65536];
        while (::read(out[0], sinkBuffer, sizeof sinkBuffer) > 0) {
        }
    });

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    sink.join();
    ::close(out[0]);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0); // drain is not a failure

    obs::JsonValue doc = obs::parseJson(readFileOr(stats, "{}"));
    ASSERT_TRUE(doc.has("robust"));
    EXPECT_GT(doc.at("robust").numberOr("blocks_degraded", 0), 0);
    ASSERT_TRUE(doc.has("counters"));
    EXPECT_GE(doc.at("counters").numberOr("cancel.run_interrupted", 0),
              1);
    ::unlink(input.c_str());
    ::unlink(stats.c_str());
}

TEST(CliContract, StrictBudgetOverrunDegradesTheBlock)
{
    // docs/ROBUSTNESS.md: a budget overrun degrades the block to its
    // original order even under --strict.  No 600-instruction block
    // builds within 1 ns.
    std::string source = "big:\n";
    for (int i = 0; i < 600; ++i)
        source += "add %l" + std::to_string(i % 6) + ", 1, %l" +
                  std::to_string((i + 1) % 6) + "\n";
    const std::string input = tempPath("budget.s");
    const std::string stats = tempPath("budget-stats.json");
    writeFile(input, source);

    int status = 0;
    const std::string out =
        runCli("schedule " + input +
                   " --strict --max-block-seconds 1e-9 --stats-json " +
                   stats,
               status);
    EXPECT_EQ(status, 0);
    obs::JsonValue doc = obs::parseJson(readFileOr(stats, "{}"));
    ASSERT_TRUE(doc.has("robust"));
    EXPECT_GE(doc.at("robust").numberOr("blocks_degraded", 0), 1);

    const Program prog = parseAssembly(source);
    std::string want =
        "! scheduled by sched91 (simple-forward, table fwd)\n.B0:\n";
    for (const Instruction &inst : prog.insts())
        want += "    " + inst.toString() + "\n";
    EXPECT_EQ(out, want);
    ::unlink(input.c_str());
    ::unlink(stats.c_str());
}

TEST(CliContract, ScheduleWritesTheSameAtOneAndFourLanes)
{
    // Many blocks, some past --max-block-insts under an n**2 builder:
    // the assembly, the stats document and the JSONL trace do not
    // depend on how the blocks were spread over lanes.
    std::string source;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        fuzz::GenParams params;
        params.seed = seed;
        params.numBlocks = 8;
        params.maxBlockSize = 64;
        source += fuzz::generateSource(params);
    }
    const std::string input = tempPath("lanes.s");
    writeFile(input, source);

    std::string outputs[2][3];
    for (int side = 0; side < 2; ++side) {
        const std::string threads = side == 0 ? "1" : "4";
        const std::string stats = tempPath("lanes-stats.json");
        const std::string trace = tempPath("lanes-trace.jsonl");
        int status = 0;
        outputs[side][0] = runCli(
            "schedule " + input +
                " --builder n2-fwd --max-block-insts 40 --zero-times"
                " --threads " +
                threads + " --stats-json " + stats + " --trace " + trace,
            status);
        EXPECT_EQ(status, 0) << "--threads " << threads;
        outputs[side][1] = readFileOr(stats, "");
        outputs[side][2] = readFileOr(trace, "");
        ::unlink(stats.c_str());
        ::unlink(trace.c_str());
    }
    const char *what[] = {"stdout", "stats document", "trace"};
    for (int i = 0; i < 3; ++i) {
        EXPECT_FALSE(outputs[0][i].empty()) << what[i];
        EXPECT_EQ(outputs[0][i], outputs[1][i]) << what[i];
    }
    ::unlink(input.c_str());
}

TEST(CliContract, ThreadsOutsideItsRangeIsAUsageError)
{
    // A lane count that is negative, not a whole number or past the
    // cap is refused before anything runs (exit 2, naming the option),
    // as a bad --queue-capacity is; an ordinary one still schedules.
    for (const std::string bad : {"-1", "abc", "1025"}) {
        int status = 0;
        std::string err;
        runCli("schedule --kernel daxpy --threads " + bad, status, &err);
        EXPECT_EQ(status, 2) << "--threads " << bad;
        EXPECT_NE(err.find("--threads"), std::string::npos) << err;
    }
    int status = 0;
    runCli("schedule --kernel daxpy --threads 4", status);
    EXPECT_EQ(status, 0);
}

TEST(CliContract, NumericOptionsRejectJunk)
{
    // Every numeric option reads the whole of its text: junk, a
    // trailing letter or a value below the option's range exits 2
    // naming the option, where it used to read as a number.  Only
    // commands that start no daemon are tried.
    const std::pair<const char *, const char *> bad[] = {
        {"dag --kernel daxpy --block abc", "--block"},
        {"schedule --kernel daxpy --window -5", "--window"},
        {"schedule --kernel daxpy --max-block-seconds 1x",
         "--max-block-seconds"},
        {"schedule --kernel daxpy --max-block-insts 40x",
         "--max-block-insts"},
        // The sandbox worker's own flags: junk is not fd 0 (stdin).
        {"__sandbox-worker --fd abc", "--fd"},
        {"__sandbox-worker --fd 3 --ring-fd 4x", "--ring-fd"},
    };
    for (const auto &[args, option] : bad) {
        int status = 0;
        std::string err;
        runCli(args, status, &err);
        EXPECT_EQ(status, 2) << args;
        EXPECT_NE(err.find(option), std::string::npos) << err;
    }
    for (const char *good :
         {"dag --kernel daxpy --block 0",
          "schedule --kernel daxpy --window 1000",
          "schedule --kernel daxpy --max-block-seconds 1e-9"}) {
        int status = 0;
        runCli(good, status);
        EXPECT_EQ(status, 0) << good;
    }
}

TEST(CliContract, CompileReportsEachPassInScheduleWording)
{
    // A 601-instruction block under an n**2 builder: each of compile's
    // two passes falls back to table building once, and reports it as
    // `schedule` does, on a line naming the pass.
    int status = 0;
    std::string err;
    runCli("compile " SCHED91_SOURCE_DIR
           "/tests/corpus/malformed/oversized_block.s --builder n2-fwd",
           status, &err);
    EXPECT_EQ(status, 0);
    const char *reason = "601 insts over --max-block-insts 400";
    EXPECT_EQ(linesWith(err, reason).size(), 2u) << err;
    for (const std::string pass : {"prepass", "postpass"}) {
        EXPECT_EQ(linesWith(err, "! " + pass +
                                     " robustness: 0 degraded, 1 builder "
                                     "fallbacks, 0 verifier rejections")
                      .size(),
                  1u)
            << err;
        const auto issues = linesWith(err, "!   " + pass + " block ");
        ASSERT_EQ(issues.size(), 1u) << err;
        EXPECT_EQ(issues[0], "!   " + pass + " block 0 [fallback]: " +
                                 reason +
                                 ": n**2 builder fell back to table "
                                 "building");
    }
}

TEST(CliContract, CompileDegradesInjectedFaults)
{
    // Fault injection reaches both passes: every block's build throws,
    // so every block keeps its order in each pass (exit 0), and
    // --strict makes the first fault end the run (exit 1).
    const std::string args =
        "compile --kernel livermore1 --fault-inject "
        "seed=1,builder-throw=1";
    int status = 0;
    std::string err;
    const std::string out = runCli(args, status, &err);
    EXPECT_EQ(status, 0) << err;
    std::size_t blocks = 0; // one `B<n>:` label a block
    std::istringstream printed(out);
    for (std::string line; std::getline(printed, line);)
        blocks += line.rfind('B', 0) == 0;
    ASSERT_GT(blocks, 0u) << out;
    for (const std::string pass : {"prepass", "postpass"}) {
        const auto issues = linesWith(err, "!   " + pass + " block ");
        EXPECT_EQ(issues.size(), blocks) << err;
        for (const std::string &line : issues)
            EXPECT_NE(line.find("[build] degraded: injected fault: "
                                "builder-throw"),
                      std::string::npos)
                << line;
    }

    runCli(args + " --strict", status);
    EXPECT_EQ(status, 1);
}

TEST(CliContract, ServeAnswersWhatSchedulePrints)
{
    // The daemon's schedule lines for a source are the instruction
    // lines `sched91 schedule` prints for it under the same
    // configuration.  Without fault injection only: under
    // --fault-inject the daemon's ladder retries and quarantines a
    // failing request while the CLI degrades its failing blocks, so
    // the two answer differently by design.
    struct Config
    {
        const char *algorithm;
        const char *builder;
    };
    const Config configs[] = {{"krishnamurthy", "table-fwd"},
                              {"simple-forward", "table-bwd"},
                              {"warren", "n2-fwd"}};
    const int kMaxBlockInsts = 40;
    const std::string input = tempPath("serve-eq.s");
    for (const Config &c : configs) {
        service::EngineConfig cfg;
        cfg.algorithm = service::algorithmFromToken(c.algorithm);
        cfg.builder = service::builderFromToken(c.builder);
        cfg.maxBlockInsts = kMaxBlockInsts;
        service::Engine engine{cfg};
        for (std::uint64_t seed = 1; seed <= 20; ++seed) {
            fuzz::GenParams params;
            params.seed = seed;
            params.numBlocks = 6;
            params.maxBlockSize = 64;
            const std::string source = fuzz::generateSource(params);
            service::RequestSpec spec = specFor(source);
            spec.emitSchedule = true;
            obs::JsonValue doc = processToJson(engine, spec);
            ASSERT_EQ(doc.strOr("status", ""), "ok") << "seed " << seed;
            std::vector<std::string> served;
            for (const obs::JsonValue &line : doc.at("schedule").array())
                served.push_back(line.str());

            writeFile(input, source);
            int status = 0;
            std::istringstream printed_text(runCli(
                "schedule " + input + " --algorithm " + c.algorithm +
                    " --builder " + c.builder + " --max-block-insts " +
                    std::to_string(kMaxBlockInsts),
                status));
            ASSERT_EQ(status, 0) << "seed " << seed;
            std::vector<std::string> printed;
            for (std::string line; std::getline(printed_text, line);)
                if (line.rfind("    ", 0) == 0)
                    printed.push_back(line.substr(4));
            EXPECT_FALSE(printed.empty()) << "seed " << seed;
            EXPECT_EQ(served, printed)
                << c.algorithm << "/" << c.builder << " seed " << seed;
        }
    }
    ::unlink(input.c_str());
}

TEST(EngineLadder, AnswersAlikeWithObservabilityOnAndOff)
{
    // The daemon always observes; whether observability is on must
    // not change a response.
    FaultGuard guard;
    struct ObsOff
    {
        ~ObsOff() { obs::setEnabled(false); }
    } restore;
    service::EngineConfig cfg;
    cfg.maxBlockInsts = 40;
    std::vector<std::string> answers[2];
    for (int on = 0; on < 2; ++on) {
        obs::setEnabled(on == 1);
        service::Engine engine{cfg};
        for (const std::string &line : crossModeRequests()) {
            std::string error;
            std::optional<service::RequestSpec> spec =
                service::parseRequestLine(line, error);
            ASSERT_TRUE(spec) << error;
            answers[on].push_back(withoutSpans(engine.process(*spec, 0.0)));
        }
    }
    ASSERT_EQ(answers[0].size(), 60u);
    for (std::size_t i = 0; i < answers[0].size(); ++i) {
        EXPECT_EQ(obs::parseJson(answers[0][i]).strOr("status", ""), "ok");
        EXPECT_EQ(answers[0][i], answers[1][i]) << "request " << i;
    }
}

TEST(CliContract, ServeOutlivesDescriptorExhaustion)
{
    // Under `ulimit -n 64`, 80 connections exhaust the daemon's
    // descriptors.  accept() failing with EMFILE is transient: the
    // daemon keeps its socket and serves again once clients close.
    const std::string sock = testSocketPath("nofile");
    const std::string err = tempPath("nofile.err");
    ::unlink(sock.c_str());
    const std::string cmd = "ulimit -n 64 && exec " +
                            std::string(SCHED91_CLI_PATH) +
                            " serve --socket " + sock +
                            " --threads 1 > /dev/null 2> " + err;
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::execl("/bin/sh", "sh", "-c", cmd.c_str(),
                static_cast<char *>(nullptr));
        ::_exit(127);
    }
    // However the test ends, the daemon does not outlive it.
    struct Reap
    {
        pid_t &pid;
        ~Reap()
        {
            if (pid > 0) {
                ::kill(pid, SIGKILL);
                ::waitpid(pid, nullptr, 0);
            }
        }
    } reap{pid};
    {
        Client probe(sock);
        ASSERT_GE(probe.fd, 0) << "daemon did not come up";
    }

    std::vector<int> clients;
    for (int i = 0; i < 80; ++i)
        clients.push_back(connectUnix(sock));
    for (int i = 0; i < 100 && readFileOr(err, "").find(
                                   "Too many open files") ==
                                   std::string::npos;
         ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_NE(readFileOr(err, "").find("Too many open files"),
              std::string::npos)
        << "the descriptor limit never bit";
    // A daemon that drained on the error would be gone well within
    // this second.
    std::this_thread::sleep_for(std::chrono::seconds(1));
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) != 0)
        pid = -1; // reaped: the daemon is gone
    for (int fd : clients)
        if (fd >= 0)
            ::close(fd);
    ASSERT_GT(pid, 0) << readFileOr(err, "");

    {
        Client client(sock);
        EXPECT_TRUE(client.send(R"({"type":"health","id":"h"})"));
        const std::vector<std::string> lines = client.read(1);
        ASSERT_EQ(lines.size(), 1u) << readFileOr(err, "");
        EXPECT_EQ(obs::parseJson(lines[0]).strOr("id", ""), "h");
    }
    ASSERT_EQ(::kill(pid, SIGINT), 0);
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    pid = -1;
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << readFileOr(err, "");
    ::unlink(err.c_str());
}

TEST(CliContract, TopRendersFramesFromALiveDaemon)
{
    FaultGuard guard;
    service::DaemonConfig config;
    config.socketPath = testSocketPath("top");
    config.workers = 1;
    config.statsPath = "";
    ::unlink(config.socketPath.c_str());

    service::Daemon daemon(config);
    int rc = -1;
    std::thread server([&] { rc = daemon.run(); });
    int status = -1;
    std::string out;
    {
        // One answered health probe: the daemon is up.
        Client client(config.socketPath);
        EXPECT_TRUE(client.send(R"({"type":"health"})"));
        EXPECT_EQ(client.read(1).size(), 1u) << "daemon did not come up";
        out = runCli("top " + config.socketPath +
                         " --iterations 2 --interval-ms 50",
                     status);
    }
    daemon.requestDrain();
    server.join();
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(status, 0) << out;
    EXPECT_EQ(linesWith(out, "sched91 top").size(), 2u) << out;
    EXPECT_EQ(linesWith(out, "requests  accepted").size(), 2u) << out;
}

// ---------------------------------------------------------------------------
// Live telemetry (docs/OBSERVABILITY.md): control-line protocol,
// trace propagation, the span log, and the in-band endpoints.

namespace
{

/** Classify @p line as the daemon does: decode it once, then read the
 * decoded value. */
service::ControlRequest
controlLine(std::string_view line)
{
    obs::JsonValue doc;
    std::string error;
    EXPECT_TRUE(service::decodeLine(line, doc, error)) << error;
    return service::controlFromJson(doc);
}

} // namespace

TEST(Protocol, ControlLinesClassifyAndRoundTrip)
{
    // The three live endpoints.
    service::ControlRequest req =
        controlLine("{\"type\":\"stats\",\"id\":\"s1\"}");
    EXPECT_EQ(req.type, service::ControlType::Stats);
    EXPECT_EQ(req.id, "s1");
    EXPECT_EQ(req.format, "json"); // the default format

    req = controlLine("{\"type\":\"stats\",\"format\":\"prometheus\"}");
    EXPECT_EQ(req.type, service::ControlType::Stats);
    EXPECT_EQ(req.format, "prometheus");

    req = controlLine("{\"type\":\"health\"}");
    EXPECT_EQ(req.type, service::ControlType::Health);

    req = controlLine("{\"type\":\"trace-dump\"}");
    EXPECT_EQ(req.type, service::ControlType::TraceDump);

    // Anything without a "type" string key takes the scheduling path.
    // Malformed JSON never gets classified: its decode error is the
    // answer.
    EXPECT_EQ(controlLine("{\"id\":\"q1\",\"source\":\"\"}").type,
              service::ControlType::None);
    EXPECT_EQ(controlLine("{\"type\":7}").type, service::ControlType::None);
    obs::JsonValue doc;
    std::string error;
    EXPECT_FALSE(service::decodeLine("not json at all", doc, error));
    EXPECT_FALSE(error.empty());

    // A "type" we do not serve is Invalid (answered with an error),
    // as is an unknown stats format.
    req = controlLine("{\"type\":\"bogus\"}");
    EXPECT_EQ(req.type, service::ControlType::Invalid);
    EXPECT_FALSE(req.error.empty());
    req = controlLine("{\"type\":\"stats\",\"format\":\"xml\"}");
    EXPECT_EQ(req.type, service::ControlType::Invalid);
    EXPECT_FALSE(req.error.empty());
}

TEST(Protocol, TraceIdRidesRequestEnvelopeAndResponse)
{
    // Client-supplied trace id survives request parsing.
    std::string error;
    std::optional<service::RequestSpec> spec =
        service::parseRequestLine("{\"id\":\"q1\",\"source\":\"\","
                                  "\"trace_id\":\"t42\"}",
                                  error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_EQ(spec->traceId, "t42");

    // ... and the sandbox envelope round trip.
    service::SandboxEnvelope env;
    env.spec = *spec;
    env.attempt = 2;
    std::optional<service::SandboxEnvelope> back =
        service::parseSandboxEnvelopeLine(
            service::sandboxEnvelopeLine(env), error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->spec.traceId, "t42");
    EXPECT_EQ(back->attempt, 2);

    // Responses echo the id and carry the per-phase spans, which
    // phaseSpansFromResponse() recovers on the supervisor side from
    // the decoded answer.
    service::ResponseBody body;
    body.traceId = "t42";
    body.spans.parseNs = 10;
    body.spans.buildNs = 20;
    body.spans.schedNs = 30;
    const obs::JsonValue doc =
        obs::parseJson(service::responseLine("q1", body));
    EXPECT_EQ(doc.strOr("trace_id", ""), "t42");
    service::PhaseSpans spans = service::phaseSpansFromResponse(doc);
    EXPECT_EQ(spans.parseNs, 10u);
    EXPECT_EQ(spans.buildNs, 20u);
    EXPECT_EQ(spans.heurNs, 0u);
    EXPECT_EQ(spans.schedNs, 30u);
    EXPECT_TRUE(spans.any());

    // Absent spans parse as all-zero (old workers, error lines).
    body = service::ResponseBody{};
    spans = service::phaseSpansFromResponse(
        obs::parseJson(service::responseLine("q2", body)));
    EXPECT_FALSE(spans.any());
}

TEST(ServiceTraceLog, BoundedRecordingAndChromeRendering)
{
    obs::ServiceTraceLog log(3);
    obs::RequestTrace trace;
    trace.log = &log;
    trace.traceId = "t1";
    trace.lane = 2;
    trace.epoch = std::chrono::steady_clock::now();

    trace.span("queue", -1, 0, 50);
    trace.span("rung", 1, 50, 90, "ok");
    trace.span("request", -1, 0, 100);
    EXPECT_EQ(log.size(), 3u);
    EXPECT_EQ(log.dropped(), 0u);

    // Full log counts drops instead of evicting history.
    trace.span("request", -1, 0, 10);
    EXPECT_EQ(log.size(), 3u);
    EXPECT_EQ(log.dropped(), 1u);

    // The rendered document is one parseable Chrome trace whose
    // events carry the trace id and note under args.
    obs::JsonValue doc = obs::parseJson(log.chromeJson(false));
    ASSERT_TRUE(doc.has("traceEvents"));
    const obs::JsonValue::Array &events = doc.at("traceEvents").array();
    ASSERT_EQ(events.size(), 3u);
    std::set<std::string> names;
    for (const obs::JsonValue &ev : events) {
        EXPECT_EQ(ev.strOr("ph", ""), "X");
        names.insert(ev.strOr("name", ""));
        ASSERT_TRUE(ev.has("args"));
        EXPECT_EQ(ev.at("args").strOr("trace_id", ""), "t1");
    }
    EXPECT_TRUE(names.count("queue"));
    EXPECT_TRUE(names.count("rung"));
    EXPECT_TRUE(names.count("request"));

    // zeroTimes yields a byte-stable document across runs.
    EXPECT_EQ(log.chromeJson(true), log.chromeJson(true));

    // A null log is a safe no-op sink.
    obs::RequestTrace off;
    off.span("request", -1, 0, 1);
    EXPECT_EQ(log.size(), 3u); // nothing new was recorded anywhere
}

TEST(Daemon, ControlLinesAnswerInBandWithOneSchema)
{
    FaultGuard guard;
    service::DaemonConfig config;
    config.socketPath = testSocketPath("control");
    config.workers = 2;
    config.queueCapacity = 8;
    config.statsPath = "";
    ::unlink(config.socketPath.c_str());

    service::Daemon daemon(config);
    int rc = -1;
    std::thread server([&] { rc = daemon.run(); });

    Client client(config.socketPath);
    ASSERT_GE(client.fd, 0) << "daemon did not come up";

    // One real request first, so the tallies are non-trivial and the
    // span log holds one finished request tree.
    ASSERT_TRUE(client.send("{\"id\":\"q0\",\"source\":\"add %g1, "
                            "%g2, %g3\\n\"}"));
    std::vector<std::string> lines = client.read(1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(obs::parseJson(lines[0]).strOr("status", ""), "ok");

    ASSERT_TRUE(client.send(
        "{\"type\":\"stats\",\"id\":\"s1\"}\n"
        "{\"type\":\"stats\",\"id\":\"s2\",\"format\":"
        "\"prometheus\"}\n"
        "{\"type\":\"health\",\"id\":\"h1\"}\n"
        "{\"type\":\"trace-dump\",\"id\":\"t1\"}\n"
        "{\"type\":\"bogus\",\"id\":\"x1\"}"));
    lines = client.read(5);
    ASSERT_EQ(lines.size(), 5u);

    // Stats: the same document shape as the drain-time file, and at
    // quiesce the conservation law balances exactly.
    obs::JsonValue stats = obs::parseJson(lines[0]);
    EXPECT_EQ(stats.numberOr("sched91_serve_stats", 0), 1);
    EXPECT_EQ(stats.strOr("id", ""), "s1");
    ASSERT_TRUE(stats.has("meta"));
    EXPECT_EQ(stats.at("meta").numberOr("stats_schema", 0), 1);
    EXPECT_GE(stats.at("meta").numberOr("uptime_seconds", -1), 0);
    ASSERT_TRUE(stats.has("service"));
    const obs::JsonValue &svc = stats.at("service");
    EXPECT_EQ(svc.numberOr("accepted", -1), 1);
    EXPECT_EQ(svc.numberOr("accepted", -1),
              svc.numberOr("ok", 0) + svc.numberOr("degraded", 0) +
                  svc.numberOr("error", 0) +
                  svc.numberOr("rejected_after_admit", 0));
    ASSERT_TRUE(stats.has("queue"));
    EXPECT_EQ(stats.at("queue").numberOr("capacity", 0), 8);
    ASSERT_TRUE(stats.has("histograms"));
    ASSERT_TRUE(stats.has("trace"));
    EXPECT_GT(stats.at("trace").numberOr("spans", 0), 0);

    // Prometheus: the text exposition rides inside the JSON line.
    obs::JsonValue prom = obs::parseJson(lines[1]);
    EXPECT_EQ(prom.strOr("id", ""), "s2");
    EXPECT_EQ(prom.strOr("format", ""), "prometheus");
    const std::string expo = prom.strOr("exposition", "");
    EXPECT_NE(expo.find("# TYPE sched91_svc_uptime_seconds gauge\n"),
              std::string::npos);
    EXPECT_NE(expo.find("sched91_svc_queue_capacity"),
              std::string::npos);
    EXPECT_NE(expo.find("machine=\""), std::string::npos);

    // Health: cheap liveness/pressure probe.
    obs::JsonValue health = obs::parseJson(lines[2]);
    EXPECT_EQ(health.numberOr("sched91_serve_health", 0), 1);
    EXPECT_EQ(health.strOr("id", ""), "h1");
    EXPECT_EQ(health.strOr("status", ""), "ok");
    EXPECT_EQ(health.numberOr("accepted", -1), 1);
    EXPECT_EQ(health.numberOr("queue_capacity", 0), 8);

    // Trace dump: the answered request renders as one connected span
    // tree — a request span plus its queue child, same trace id.
    obs::JsonValue dump = obs::parseJson(lines[3]);
    EXPECT_EQ(dump.numberOr("sched91_serve_trace", 0), 1);
    ASSERT_TRUE(dump.has("trace"));
    const obs::JsonValue::Array &events =
        dump.at("trace").at("traceEvents").array();
    ASSERT_FALSE(events.empty());
    std::set<std::string> spanNames;
    std::set<std::string> traceIds;
    for (const obs::JsonValue &ev : events) {
        spanNames.insert(ev.strOr("name", ""));
        traceIds.insert(ev.at("args").strOr("trace_id", ""));
    }
    EXPECT_TRUE(spanNames.count("request"));
    EXPECT_TRUE(spanNames.count("queue"));
    EXPECT_EQ(traceIds.size(), 1u); // one request, one tree

    // Unknown type: answered as an error, not dropped, not queued.
    obs::JsonValue bad = obs::parseJson(lines[4]);
    EXPECT_EQ(bad.strOr("status", ""), "error");
    EXPECT_EQ(bad.strOr("id", ""), "x1");

    daemon.requestDrain();
    server.join();
    EXPECT_EQ(rc, 0);
    // Control lines never touch admission.
    EXPECT_EQ(daemon.counters().accepted.load(), 1u);
    EXPECT_EQ(daemon.counters().rejected.load(), 0u);
}

TEST(Daemon, PeriodicSnapshotsShareTheStatsSchema)
{
    FaultGuard guard;
    service::DaemonConfig config;
    config.socketPath = testSocketPath("snapshot");
    config.workers = 1;
    config.queueCapacity = 8;
    config.statsPath = "";
    config.snapshotSeconds = 0.05;
    config.snapshotPath = "/tmp/sched91-test-snap-" +
                          std::to_string(::getpid()) + ".jsonl";
    ::unlink(config.socketPath.c_str());
    ::unlink(config.snapshotPath.c_str());

    service::Daemon daemon(config);
    int rc = -1;
    std::thread server([&] { rc = daemon.run(); });

    Client client(config.socketPath);
    ASSERT_GE(client.fd, 0) << "daemon did not come up";
    ASSERT_TRUE(client.send("{\"id\":\"q0\",\"source\":\"add %g1, "
                            "%g2, %g3\\n\"}"));
    ASSERT_EQ(client.read(1).size(), 1u);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));

    daemon.requestDrain();
    server.join();
    EXPECT_EQ(rc, 0);

    // Every line is one complete stats document (temp-then-rename
    // writes mean a reader never sees a torn line) with the shared
    // schema marker and a delta section.
    std::ifstream in(config.snapshotPath);
    ASSERT_TRUE(in.good()) << config.snapshotPath;
    std::string line;
    std::size_t count = 0;
    double lastAccepted = 0.0;
    while (std::getline(in, line)) {
        obs::JsonValue doc = obs::parseJson(line);
        EXPECT_EQ(doc.numberOr("sched91_serve_stats", 0), 1);
        EXPECT_EQ(doc.at("meta").numberOr("stats_schema", 0), 1);
        ASSERT_TRUE(doc.has("delta"));
        const double accepted =
            doc.at("service").numberOr("accepted", 0);
        EXPECT_GE(accepted, lastAccepted); // snapshots are monotone
        lastAccepted = accepted;
        ++count;
    }
    EXPECT_GE(count, 1u);
    // The final tick ran at drain, so the last snapshot accounts for
    // everything this test sent.
    EXPECT_EQ(lastAccepted, 1.0);
    ::unlink(config.snapshotPath.c_str());
}

TEST(Daemon, LiveStatsAtQuiesceMatchTheDrainDocument)
{
    // Lanes count outside the pipeline too (request parsing's
    // robust.parse_* counters); a live scrape must see those counts as
    // soon as the request is answered, not only at drain.
    FaultGuard guard;
    struct ObsOn
    {
        ObsOn() { obs::setEnabled(true); } // serve always observes
        ~ObsOn() { obs::setEnabled(false); }
    } obsOn;
    service::DaemonConfig config;
    config.socketPath = testSocketPath("quiesce");
    config.workers = 2;
    config.queueCapacity = 8;
    config.statsPath = "/tmp/sched91-test-quiesce-" +
                       std::to_string(::getpid()) + ".json";
    ::unlink(config.socketPath.c_str());

    service::Daemon daemon(config);
    int rc = -1;
    std::thread server([&] { rc = daemon.run(); });

    Client client(config.socketPath);
    ASSERT_GE(client.fd, 0) << "daemon did not come up";
    ASSERT_TRUE(client.send("{\"id\":\"q0\",\"source\":\"add %g1, %g2, "
                            "%g3\\nfrobnicate %g1, %g2\\nld [%g3], "
                            "%g4\\n\"}"));
    std::vector<std::string> lines = client.read(1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(obs::parseJson(lines[0]).strOr("status", ""), "ok");

    ASSERT_TRUE(client.send("{\"type\":\"stats\",\"id\":\"s\"}"));
    lines = client.read(1);
    ASSERT_EQ(lines.size(), 1u);
    const obs::JsonValue live = obs::parseJson(lines[0]);

    daemon.requestDrain();
    server.join();
    EXPECT_EQ(rc, 0);

    std::ifstream in(config.statsPath);
    ASSERT_TRUE(in.good()) << config.statsPath;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const obs::JsonValue drained = obs::parseJson(text);
    ::unlink(config.statsPath.c_str());

    auto counters = [](const obs::JsonValue &doc) {
        std::map<std::string, double> out;
        for (const auto &[name, value] : doc.at("counters").object())
            out[name] = value.number();
        return out;
    };
    EXPECT_EQ(counters(drained).at("robust.parse_errors"), 1.0);
    EXPECT_GT(counters(drained).at("dag.arcs_added"), 0.0);
    EXPECT_EQ(counters(live), counters(drained));
}
