#include "service/engine.hh"

#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "dag/memdep.hh"
#include "ir/parser.hh"
#include "obs/emitter.hh"
#include "obs/flight_recorder.hh"
#include "support/diagnostics.hh"
#include "support/fault_inject.hh"
#include "support/log.hh"

namespace sched91::service
{

/** The parse every rung shares: even the last-resort degradation
 * needs the instructions to answer truthfully.  It owns the text a
 * response's schedule views (ResponseBody::schedule) until the
 * response line is written. */
struct ParsedRequest
{
    Program prog;
    ResponseBody body; ///< insts/parse tallies pre-filled
    std::optional<MachineModel> overrideMachine;
    std::uint64_t parseNs = 0; ///< the parse's wall clock
    /** toString() of the scheduled instructions without text (none
     * that parseAssembly makes); a deque, so views stay put. */
    std::deque<std::string> rendered;
};

namespace
{

/** Payloads quarantined at most.  A full table stops admitting rather
 * than evicting: losing an old entry would let a known-bad payload
 * back onto the failing path, the worse trade for a daemon. */
constexpr std::size_t kQuarantineCapacity = 256;

/** Point @p body's schedule at the scheduled instruction text, block
 * by block (@p schedules, one per block in program order), or at the
 * original order without @p schedules: each line is the instruction's
 * own text, exactly what Instruction::toString() returns. */
void
viewSchedule(ResponseBody &body, ParsedRequest &parsed,
             const std::vector<Schedule> *schedules)
{
    const std::span<const Instruction> insts = parsed.prog.insts();
    const auto text = [&parsed](const Instruction &inst) {
        return inst.text().empty()
                   ? std::string_view(
                         parsed.rendered.emplace_back(inst.toString()))
                   : inst.text();
    };
    body.schedule.reserve(insts.size());
    if (schedules == nullptr) {
        for (const Instruction &inst : insts)
            body.schedule.push_back(text(inst));
        return;
    }
    // Blocks partition the program in order, and each schedule orders
    // its whole block.
    std::size_t begin = 0;
    for (const Schedule &sched : *schedules) {
        for (std::uint32_t pos : sched.order)
            body.schedule.push_back(text(insts[begin + pos]));
        begin += sched.order.size();
    }
}

/** Parse @p spec; throws on an unknown machine override (the assembly
 * parse itself is lenient).  Blocks are left to runPipeline, which
 * partitions the program itself; only a degraded answer, made without
 * a pipeline run, partitions here (Engine::lastRungLine). */
ParsedRequest
parseRequest(const RequestSpec &spec)
{
    const auto t0 = std::chrono::steady_clock::now();
    ParsedRequest parsed;
    if (spec.machine)
        parsed.overrideMachine = presetByName(*spec.machine);

    DiagnosticEngine::Options dopts;
    dopts.strict = false;
    dopts.echoToLog = false;
    DiagnosticEngine diags(dopts);
    // One lane, like the pipeline below: concurrency comes from the
    // daemon's workers.
    parsed.prog = parseAssembly(spec.source, diags, "request", 1);

    parsed.body.insts = parsed.prog.size();
    parsed.body.parseErrors = diags.errorCount();
    parsed.body.parseWarnings = diags.warningCount();
    parsed.body.traceId = spec.traceId;
    parsed.parseNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    return parsed;
}

/**
 * Stitch one attempt's per-phase timings into @p trace as child spans
 * of the rung that ran it, laid out sequentially from @p rungStartNs
 * (phase wall-clock is measured as durations, so the sequential layout
 * reconstructs the attempt's internal timeline).  @p worker marks
 * spans measured inside a sandbox worker.
 */
void
recordPhaseSpans(const obs::RequestTrace *trace, int rung,
                 std::uint64_t rungStartNs, const PhaseSpans &spans,
                 bool worker)
{
    if (trace == nullptr || trace->log == nullptr)
        return;
    std::uint64_t at = rungStartNs;
    for (const PhaseSpanField &f : kPhaseSpanFields) {
        const std::uint64_t durNs = spans.*f.ns;
        if (durNs == 0)
            continue;
        trace->span(f.name, rung, at, at + durNs, {}, worker);
        at += durNs;
    }
}

} // namespace

/** Every attempt in this process, on the request's one parse. */
class Engine::InProcessRunner final : public AttemptRunner
{
  public:
    InProcessRunner(Engine &engine, const RequestSpec &spec,
                    double remainingSeconds)
        : engine_(engine), spec_(spec),
          remainingSeconds_(remainingSeconds)
    {
    }

    ParsedRequest *
    prepare() override
    {
        return &parsed_.emplace(parseRequest(spec_));
    }

    AttemptOutcome run(BuilderKind builder, int attempt,
                       bool downgraded) override;

  private:
    Engine &engine_;
    const RequestSpec &spec_;
    double remainingSeconds_;
    std::optional<ParsedRequest> parsed_;
};

AttemptOutcome
Engine::InProcessRunner::run(BuilderKind builder, int attempt,
                             bool downgraded)
{
    const EngineConfig &config = engine_.config_;
    ParsedRequest &parsed = *parsed_;
    AttemptOutcome out;
    try {
        PipelineOptions popts;
        popts.builder = builder;
        popts.algorithm = spec_.algorithm.value_or(config.algorithm);
        popts.build.memPolicy = spec_.policy.value_or(config.policy);
        popts.threads = 1; // concurrency comes from daemon workers
        // An answer reads none of the run report; the lane shard still
        // gets every count.
        popts.report = false;
        popts.evaluate = spec_.evaluate;
        popts.verify = true;
        // Failures must reach the ladder, not vanish into per-block
        // degradation.  The budget/deadline and interrupt rungs still
        // degrade in-pipeline — by design (see pipeline.hh).
        popts.containFaults = false;
        popts.maxBlockInsts = config.maxBlockInsts;
        if (remainingSeconds_ > 0.0)
            popts.maxRunSeconds = remainingSeconds_;
        popts.faultSalt = static_cast<std::uint64_t>(attempt);
        if (config.captureOutliers > 0)
            popts.captureOutliers = config.captureOutliers;

        std::vector<Schedule> schedules;
        if (spec_.emitSchedule)
            popts.schedules = &schedules;

        const MachineModel &machine = parsed.overrideMachine
                                          ? *parsed.overrideMachine
                                          : engine_.machine_;
        ProgramResult result = runPipeline(parsed.prog, machine, popts);

        ResponseBody body = parsed.body;
        body.status = result.blocksDegraded > 0 ? "degraded" : "ok";
        body.blocks = result.numBlocks;
        body.degradedBlocks = result.blocksDegraded;
        body.builderFallbacks = result.builderFallbacks;
        body.verifierRejections = result.verifierRejections;
        body.attempts = attempt + 1;
        body.downgradedBuilder = downgraded;
        if (spec_.evaluate) {
            body.haveCycles = true;
            body.cyclesOriginal = result.cyclesOriginal;
            body.cyclesScheduled = result.cyclesScheduled;
        }
        if (spec_.emitSchedule)
            viewSchedule(body, parsed, &schedules);
        for (const ProgramResult::BlockIssue &issue : result.blockIssues)
            body.deadlineHit =
                body.deadlineHit || issue.stage == "budget";
        body.spans.parseNs = parsed.parseNs;
        body.spans.buildNs = obs::secondsToNs(result.buildSeconds);
        body.spans.heurNs = obs::secondsToNs(result.heurSeconds);
        body.spans.schedNs = obs::secondsToNs(result.schedSeconds);
        body.spans.verifyNs = obs::secondsToNs(result.verifySeconds);

        if (config.captureOutliers > 0 && !config.outlierDir.empty() &&
            !result.outliers.empty())
            engine_.writeOutlierBundles(spec_, result, popts,
                                        fault::fnv1a64(spec_.source));

        out.kind = result.blocksDegraded > 0
                       ? AttemptOutcome::Kind::Degraded
                       : AttemptOutcome::Kind::Ok;
        out.deadlineHit = body.deadlineHit;
        out.spans = body.spans;
        out.line = responseLine(spec_.id, body);
    } catch (const std::exception &e) {
        out.kind = AttemptOutcome::Kind::Failed;
        out.error = e.what();
    }
    return out;
}

obs::RunMeta
bundleMeta(const RequestSpec &spec, const EngineConfig &defaults,
           BuilderKind builder, AlgorithmKind algorithm, AliasPolicy policy)
{
    obs::RunMeta meta;
    meta.command = "serve";
    meta.input = spec.id.empty() ? "request" : spec.id;
    meta.builder = std::string(builderKindName(builder));
    meta.algorithm = std::string(algorithmName(algorithm));
    meta.machine = spec.machine.value_or(defaults.machineName);
    meta.policy = std::string(aliasPolicyName(policy));
    meta.traceId = spec.traceId;
    return meta;
}

std::string
bundleKeyHex(std::uint64_t key)
{
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(key));
    return hex;
}

Engine::Engine(EngineConfig config)
    : config_(std::move(config)),
      machine_(presetByName(config_.machineName))
{
}

bool
Engine::isQuarantined(std::uint64_t key) const
{
    std::lock_guard<std::mutex> lock(quarantineMu_);
    return quarantine_.count(key) != 0;
}

void
Engine::addToQuarantine(std::uint64_t key)
{
    std::lock_guard<std::mutex> lock(quarantineMu_);
    if (quarantine_.size() >= kQuarantineCapacity)
        return;
    if (quarantine_.insert(key).second)
        counters_.quarantineAdds.fetch_add(1,
                                           std::memory_order_relaxed);
}

std::size_t
Engine::quarantineSize() const
{
    std::lock_guard<std::mutex> lock(quarantineMu_);
    return quarantine_.size();
}

void
Engine::writeOutlierBundles(const RequestSpec &spec,
                            const ProgramResult &result,
                            const PipelineOptions &popts,
                            std::uint64_t key) const
{
    const obs::RunMeta meta =
        bundleMeta(spec, config_, popts.builder, popts.algorithm,
                   popts.build.memPolicy);
    const std::string keyHex = bundleKeyHex(key);
    for (const obs::OutlierRecord &rec : result.outliers) {
        std::ostringstream path;
        path << config_.outlierDir << "/outlier-req" << keyHex
             << "-block" << rec.block << ".json";
        std::ofstream out(path.str());
        if (!out) {
            log::warn("cannot write outlier bundle '", path.str(),
                      "'");
            return;
        }
        out << obs::outlierBundleJson(rec, meta) << '\n';
    }
}

std::string
Engine::lastRungLine(ParsedRequest &parsed, const RequestSpec &spec,
                     bool fromQuarantine, int attempts)
{
    ResponseBody body = parsed.body;
    body.status = "degraded";
    body.attempts = attempts;
    body.quarantined = fromQuarantine;
    body.blocks = partitionBlocks(parsed.prog, {}).size();
    body.degradedBlocks = body.blocks;
    // The last rung's only real work is the parse; report it so even a
    // crash-degraded answer carries a per-phase span.
    body.spans.parseNs = parsed.parseNs;
    if (spec.emitSchedule)
        viewSchedule(body, parsed, nullptr);
    counters_.degraded.fetch_add(1, std::memory_order_relaxed);
    return responseLine(spec.id, body);
}

std::string
Engine::attemptLine(const RequestSpec &spec, int attempt,
                    bool downgraded, double remainingSeconds)
{
    InProcessRunner runner(*this, spec, remainingSeconds);
    try {
        runner.prepare();
    } catch (const std::exception &e) {
        return errorLine(spec.id, e.what());
    }
    const AttemptOutcome out = runner.run(
        spec.builder.value_or(config_.builder), attempt, downgraded);
    return out.kind == AttemptOutcome::Kind::Failed
               ? errorLine(spec.id, out.error)
               : out.line;
}

std::string
Engine::process(const RequestSpec &spec, double remainingSeconds,
                const obs::RequestTrace *trace)
{
    InProcessRunner runner(*this, spec, remainingSeconds);
    return process(spec, runner, trace);
}

std::string
Engine::process(const RequestSpec &spec, AttemptRunner &runner,
                const obs::RequestTrace *trace)
{
    using Kind = AttemptOutcome::Kind;
    // The payload's quarantine key, hashed over the whole source only
    // when read: the quarantine holds an entry, or an attempt failed.
    std::optional<std::uint64_t> keyMemo;
    const auto key = [&keyMemo, &spec] {
        if (!keyMemo)
            keyMemo = fault::fnv1a64(spec.source);
        return *keyMemo;
    };
    const std::string_view id =
        spec.id.empty() ? std::string_view("?") : std::string_view(spec.id);
    const auto now = [trace] { return trace ? trace->nowNs() : 0; };
    const auto rungSpan = [trace](int rung, std::uint64_t startNs,
                                  std::string_view note) {
        if (trace)
            trace->span("rung", rung, startNs, trace->nowNs(), note);
    };

    ParsedRequest *parsed = nullptr;
    try {
        parsed = runner.prepare();
    } catch (const std::exception &e) {
        counters_.error.fetch_add(1, std::memory_order_relaxed);
        return errorLine(spec.id, e.what());
    }

    // Every degraded rung answers original order from a parse: the
    // runner's own, or — for a sandboxed request — one made here on
    // first need.  @p parseSpan gives the rung the parse as its phase
    // child, for a crash whose dead worker reported none.
    std::optional<ParsedRequest> ownParse;
    const auto degrade = [&](int rung, std::string_view note,
                             bool fromQuarantine, int attempts,
                             bool parseSpan = false) {
        const std::uint64_t t0 = now();
        if (parsed == nullptr)
            parsed = &ownParse.emplace(parseRequest(spec));
        std::string line =
            lastRungLine(*parsed, spec, fromQuarantine, attempts);
        rungSpan(rung, t0, note);
        if (parseSpan)
            recordPhaseSpans(trace, rung, t0, PhaseSpans{parsed->parseNs},
                             /*worker=*/false);
        return line;
    };

    if (quarantineSize() != 0 && isQuarantined(key())) {
        counters_.quarantineHits.fetch_add(1,
                                           std::memory_order_relaxed);
        obs::flight::record(obs::flight::EventKind::Diag, "svc",
                            "quarantine hit", key());
        return degrade(0, "quarantine", /*fromQuarantine=*/true,
                       /*attempts=*/0);
    }

    // Attempts 0 (requested builder) and 1 (table-forward downgrade).
    const BuilderKind requested = spec.builder.value_or(config_.builder);
    for (int attempt = 0; attempt < 2; ++attempt) {
        const std::uint64_t t0 = now();
        const AttemptOutcome out = runner.run(
            attempt == 0 ? requested : BuilderKind::TableForward, attempt,
            attempt > 0 && requested != BuilderKind::TableForward);
        switch (out.kind) {
        case Kind::Ok:
        case Kind::Degraded: {
            const bool ok = out.kind == Kind::Ok;
            if (out.deadlineHit)
                counters_.deadlineExpired.fetch_add(
                    1, std::memory_order_relaxed);
            (ok ? counters_.ok : counters_.degraded)
                .fetch_add(1, std::memory_order_relaxed);
            rungSpan(attempt, t0, ok ? "ok" : "degraded");
            recordPhaseSpans(trace, attempt, t0, out.spans,
                             out.workerSpans);
            return out.line;
        }
        case Kind::Failed:
            rungSpan(attempt, t0, "failed: " + out.error);
            if (attempt == 0) {
                counters_.retries.fetch_add(1, std::memory_order_relaxed);
                obs::flight::record(obs::flight::EventKind::Diag, "svc",
                                    "retry: table builder", key());
                log::info("request ", id, ": attempt 0 failed (",
                          out.error, "); retrying on table builder");
            } else {
                obs::flight::record(obs::flight::EventKind::Diag, "svc",
                                    "quarantine add", key());
                log::info("request ", id, ": attempt 1 failed (",
                          out.error, "); degrading to original order");
            }
            break;
        case Kind::Crashed:
            // The payload killed a worker: quarantine it and answer
            // original order — a retry would crash the replacement too.
            rungSpan(attempt, t0, "crash: " + out.error);
            addToQuarantine(key());
            return degrade(attempt + 1, "degrade: crash",
                           /*fromQuarantine=*/false, attempt + 1,
                           /*parseSpan=*/true);
        case Kind::NoWorker:
            // An environment failure, not a payload failure: answer
            // original order but do not quarantine the content.
            log::warn("request ", id, ": ", out.error,
                      "; degrading to original order");
            return degrade(attempt, "degrade: no-worker",
                           /*fromQuarantine=*/false, attempt);
        }
    }

    // Both real attempts failed: quarantine and answer the last rung.
    addToQuarantine(key());
    counters_.degradedFallbacks.fetch_add(1, std::memory_order_relaxed);
    return degrade(2, "last-rung", /*fromQuarantine=*/false,
                   /*attempts=*/3);
}

} // namespace sched91::service
