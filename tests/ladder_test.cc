/**
 * @file
 * The resilience ladder (docs/ROBUSTNESS.md) driven by a scripted
 * attempt runner: every transition — answered, failed-then-retried,
 * last rung, quarantine hit, worker crash and missing worker on either
 * attempt, and a request that cannot run at all — with what each
 * leaves behind: the response's attempts/quarantined fields, the
 * quarantine table, the svc tally deltas, and the rung span notes.
 * Real runners (in-process, sandboxed) are covered by service_test and
 * isolation_test; here the runner is a script, so the crash and
 * no-worker rungs are reachable on attempt 1 too.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "fuzz/program_gen.hh"
#include "obs/chrome_trace.hh"
#include "obs/json_parse.hh"
#include "service/engine.hh"

using namespace sched91;
using Kind = service::AttemptOutcome::Kind;

namespace
{

service::AttemptOutcome
outcome(Kind kind, std::string error = {})
{
    service::AttemptOutcome out;
    out.kind = kind;
    out.error = std::move(error);
    return out;
}

/** An answered attempt, as a runner reports it: the ladder forwards
 * the line verbatim. */
service::AttemptOutcome
answered(Kind kind, int attempt, bool deadlineHit = false)
{
    service::AttemptOutcome out = outcome(kind);
    out.line = std::string("{\"status\":\"") +
               (kind == Kind::Ok ? "ok" : "degraded") +
               "\",\"attempts\":" + std::to_string(attempt + 1) +
               ",\"quarantined\":false}";
    out.deadlineHit = deadlineHit;
    out.spans.parseNs = 5;
    out.spans.buildNs = 7;
    out.workerSpans = true;
    return out;
}

/** Plays back one outcome per attempt and records what it was asked. */
class ScriptedRunner final : public service::AttemptRunner
{
  public:
    explicit ScriptedRunner(std::vector<service::AttemptOutcome> script,
                            bool unrunnable = false)
        : script_(std::move(script)), unrunnable_(unrunnable)
    {
    }

    service::ParsedRequest *
    prepare() override
    {
        if (unrunnable_)
            throw std::runtime_error("unknown machine 'vax'");
        return nullptr; // the ladder parses for its degraded rungs
    }

    service::AttemptOutcome
    run(BuilderKind builder, int attempt, bool downgraded) override
    {
        calls.emplace_back(builder, attempt, downgraded);
        return script_.at(calls.size() - 1);
    }

    std::vector<std::tuple<BuilderKind, int, bool>> calls;

  private:
    std::vector<service::AttemptOutcome> script_;
    bool unrunnable_;
};

/** One span as the trace renders it: name, rung, note, worker flag. */
using Span = std::tuple<std::string, int, std::string, bool>;

struct Step
{
    const char *name;
    int payload; ///< requests with the same payload share a key
    std::vector<service::AttemptOutcome> script;
    bool unrunnable = false;

    std::string status;
    int attempts = -1; ///< -1: not an ok/degraded answer
    bool quarantined = false;  ///< the response's flag
    bool inQuarantine = false; ///< payload is in the table afterwards
    std::map<std::string, std::uint64_t> deltas; ///< svc tally key
    std::vector<Span> spans;
    /** Asks for no builder: the default is table-forward, so the retry
     * runs the same builder and is no downgrade. */
    bool defaultBuilder = false;
};

service::RequestSpec
specFor(const Step &step)
{
    fuzz::GenParams params;
    params.seed = 900 + static_cast<std::uint64_t>(step.payload);
    service::RequestSpec spec;
    spec.id = "r";
    spec.source = fuzz::generateSource(params);
    if (!step.defaultBuilder)
        spec.builder = BuilderKind::N2Forward;
    return spec;
}

std::map<std::string, std::uint64_t>
tallies(const service::SvcCounters &c)
{
    std::map<std::string, std::uint64_t> out;
    for (const service::SvcTally &t : service::kSvcTallies)
        out[t.key] = (c.*t.value).load();
    return out;
}

std::vector<Span>
spansOf(const obs::ServiceTraceLog &log)
{
    std::vector<Span> spans;
    const obs::JsonValue doc = obs::parseJson(log.chromeJson(false));
    for (const obs::JsonValue &ev : doc.at("traceEvents").array()) {
        const obs::JsonValue &args = ev.at("args");
        spans.emplace_back(ev.strOr("name", ""),
                           static_cast<int>(args.numberOr("rung", -1)),
                           args.strOr("note", ""), args.has("worker"));
    }
    return spans;
}

} // namespace

TEST(Ladder, EveryTransitionOverAScriptedRunner)
{
    const std::vector<Step> steps = {
        {"ok on attempt 0", 0, {answered(Kind::Ok, 0)}, false,
         "ok", 1, false, false, {{"ok", 1}},
         {{"rung", 0, "ok", false},
          {"parse", 0, "", true},
          {"build", 0, "", true}}},
        {"degraded past the deadline", 1,
         {answered(Kind::Degraded, 0, /*deadlineHit=*/true)}, false,
         "degraded", 1, false, false,
         {{"degraded", 1}, {"deadline_expired", 1}},
         {{"rung", 0, "degraded", false},
          {"parse", 0, "", true},
          {"build", 0, "", true}}},
        {"failed, then ok on the retry", 2,
         {outcome(Kind::Failed, "boom"), answered(Kind::Ok, 1)}, false,
         "ok", 2, false, false, {{"ok", 1}, {"retries", 1}},
         {{"rung", 0, "failed: boom", false},
          {"rung", 1, "ok", false},
          {"parse", 1, "", true},
          {"build", 1, "", true}}},
        {"failed twice: last rung", 3,
         {outcome(Kind::Failed, "a"), outcome(Kind::Failed, "b")}, false,
         "degraded", 3, false, true,
         {{"degraded", 1}, {"retries", 1}, {"degraded_fallbacks", 1},
          {"quarantine_adds", 1}},
         {{"rung", 0, "failed: a", false},
          {"rung", 1, "failed: b", false},
          {"rung", 2, "last-rung", false}}},
        {"quarantine hit", 3, {}, false, "degraded", 0, true, true,
         {{"degraded", 1}, {"quarantine_hits", 1}},
         {{"rung", 0, "quarantine", false}}},
        {"crash on attempt 0", 4,
         {outcome(Kind::Crashed, "signal 11")}, false, "degraded", 1,
         false, true, {{"degraded", 1}, {"quarantine_adds", 1}},
         {{"rung", 0, "crash: signal 11", false},
          {"rung", 1, "degrade: crash", false},
          {"parse", 1, "", false}}},
        {"crash on attempt 1", 5,
         {outcome(Kind::Failed, "x"), outcome(Kind::Crashed, "signal 9")},
         false, "degraded", 2, false, true,
         {{"degraded", 1}, {"retries", 1}, {"quarantine_adds", 1}},
         {{"rung", 0, "failed: x", false},
          {"rung", 1, "crash: signal 9", false},
          {"rung", 2, "degrade: crash", false},
          {"parse", 2, "", false}}},
        {"no worker on attempt 0", 6,
         {outcome(Kind::NoWorker, "no sandbox worker on lane 0")}, false,
         "degraded", 0, false, false, {{"degraded", 1}},
         {{"rung", 0, "degrade: no-worker", false}}},
        {"no worker on attempt 1", 7,
         {outcome(Kind::Failed, "x"),
          outcome(Kind::NoWorker, "no sandbox worker on lane 0")},
         false, "degraded", 1, false, false,
         {{"degraded", 1}, {"retries", 1}},
         {{"rung", 0, "failed: x", false},
          {"rung", 1, "degrade: no-worker", false}}},
        {"cannot run at all", 8, {}, true, "error", -1, false, false,
         {{"error", 1}}, {}},
        {"retry on the default builder", 9,
         {outcome(Kind::Failed, "boom"), answered(Kind::Ok, 1)}, false,
         "ok", 2, false, false, {{"ok", 1}, {"retries", 1}},
         {{"rung", 0, "failed: boom", false},
          {"rung", 1, "ok", false},
          {"parse", 1, "", true},
          {"build", 1, "", true}},
         /*defaultBuilder=*/true},
    };

    service::Engine engine{service::EngineConfig{}};
    for (const Step &step : steps) {
        SCOPED_TRACE(step.name);
        const service::RequestSpec spec = specFor(step);
        obs::ServiceTraceLog log;
        obs::RequestTrace trace;
        trace.log = &log;
        trace.traceId = "t";
        trace.epoch = std::chrono::steady_clock::now();

        ScriptedRunner runner(step.script, step.unrunnable);
        const std::map<std::string, std::uint64_t> before =
            tallies(engine.counters());
        const obs::JsonValue doc =
            obs::parseJson(engine.process(spec, runner, &trace));

        EXPECT_EQ(doc.strOr("status", ""), step.status);
        if (step.attempts >= 0) {
            EXPECT_EQ(doc.numberOr("attempts", -1), step.attempts);
            EXPECT_EQ(doc.at("quarantined").boolean(), step.quarantined);
        }

        // Exactly the scripted attempts ran, on the ladder's builders:
        // the requested one, then table-forward.
        const BuilderKind requested = step.defaultBuilder
                                          ? BuilderKind::TableForward
                                          : BuilderKind::N2Forward;
        ASSERT_EQ(runner.calls.size(), step.script.size());
        for (std::size_t i = 0; i < runner.calls.size(); ++i) {
            const auto &[builder, attempt, downgraded] = runner.calls[i];
            EXPECT_EQ(attempt, static_cast<int>(i));
            EXPECT_EQ(builder,
                      i == 0 ? requested : BuilderKind::TableForward);
            EXPECT_EQ(downgraded,
                      i > 0 && requested != BuilderKind::TableForward);
        }

        std::map<std::string, std::uint64_t> deltas;
        for (const auto &[key, value] : tallies(engine.counters()))
            if (value != before.at(key))
                deltas[key] = value - before.at(key);
        EXPECT_EQ(deltas, step.deltas);

        EXPECT_EQ(spansOf(log), step.spans);
    }

    // Membership: a quarantined payload short-circuits without running
    // any attempt.
    for (const Step &step : steps) {
        ScriptedRunner probe({answered(Kind::Ok, 0)});
        engine.process(specFor(step), probe);
        EXPECT_EQ(probe.calls.empty(), step.inQuarantine) << step.name;
    }
    EXPECT_EQ(engine.quarantineSize(), 3u);
}
