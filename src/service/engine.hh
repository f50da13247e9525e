/**
 * @file
 * Request engine of the scheduling daemon: one request through the
 * resilience ladder (docs/ROBUSTNESS.md).
 *
 * The ladder, in order:
 *
 *  0. quarantine check — a payload that already failed twice is
 *     answered degraded (original order) without touching the
 *     pipeline again (the content hash is taken only while the
 *     quarantine holds an entry, or once an attempt fails);
 *  1. attempt 0: the requested builder, fault containment *off* so
 *     failures surface here instead of silently degrading per block;
 *     the per-request deadline rides PipelineOptions::maxRunSeconds,
 *     so overruns come back as degraded blocks, not errors;
 *  2. attempt 1 (retry with downgrade): the table-forward builder —
 *     the construction that handled fpppp's 11750-instruction block —
 *     with the fault-injection salt advanced, so a transient injected
 *     fault clears deterministically;
 *  3. last rung: degrade the whole request to original instruction
 *     order (always possible — it needs only the parse), and
 *     quarantine the payload by content hash.
 *
 * The ladder is written once (Engine::process over an AttemptRunner)
 * and drives one of two runners: in-process, where every attempt
 * shares the request's one parse, or sandboxed, where each attempt is
 * an envelope to a lane's worker process (service/supervisor.hh).  The
 * in-process path does only what its answer needs: the parse leaves
 * partitioning to runPipeline (blocks come from
 * ProgramResult::numBlocks, schedule lines block by block from the
 * returned schedules; only a degraded rung, which answers without a
 * pipeline run, partitions here), and the answer's schedule views
 * each parsed instruction's own text (ResponseBody::schedule).  A
 * runner only reports what an attempt did; the ladder alone decides
 * the next rung and does every ladder tally, flight event, log line
 * and rung span, so both isolation modes answer alike (the sandbox
 * pool keeps only its own worker_* tallies).  A sandboxed attempt
 * adds two rungs: a crashed worker quarantines the payload and answers
 * original order; a missing worker answers original order without
 * quarantine (it says nothing about the payload).
 *
 * Thread safety: process() is called concurrently by the daemon's
 * workers.  Each call runs its pipeline single-threaded (threads=1)
 * on the calling worker, whose thread-installed counter shard and
 * flight recorder absorb all per-event traffic; the engine's own
 * tallies are atomics (SvcCounters).  The quarantine table is the
 * only shared mutable state and sits behind a mutex.
 */

#ifndef SCHED91_SERVICE_ENGINE_HH
#define SCHED91_SERVICE_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_set>

#include "core/pipeline.hh"
#include "machine/presets.hh"
#include "obs/chrome_trace.hh"
#include "obs/emitter.hh"
#include "service/protocol.hh"

namespace sched91::service
{

/** Daemon-side defaults a request can override. */
struct EngineConfig
{
    BuilderKind builder = BuilderKind::TableForward;
    AlgorithmKind algorithm = AlgorithmKind::SimpleForward;
    AliasPolicy policy = AliasPolicy::BaseOffset;
    std::string machineName = "sparcstation2";

    /** Default per-request deadline in ms; 0 = none. */
    double defaultDeadlineMs = 0.0;

    /** F1/F2 window: oversized blocks fall back to table building. */
    int maxBlockInsts = 0;

    /** Per-request forensic bundles: keep the K most expensive blocks
     * of each successful request and write replayable bundles into
     * outlierDir (empty = off).  Bundles replay with
     * `sched91 explain`. */
    int captureOutliers = 0;
    std::string outlierDir;
};

/** Service-layer tallies; atomics because every daemon thread (the
 * I/O thread and the lanes) bumps them.  kSvcTallies names each one
 * for the stats document. */
struct SvcCounters
{
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> degraded{0};
    std::atomic<std::uint64_t> error{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> degradedFallbacks{0};
    std::atomic<std::uint64_t> quarantineAdds{0};
    std::atomic<std::uint64_t> quarantineHits{0};
    std::atomic<std::uint64_t> deadlineExpired{0};

    /** Admitted, then shed at queue pickup with the deadline already
     * expired — the "rejected-after-admit" leg of the conservation
     * law `accepted == ok + degraded + error + rejectedAfterAdmit`
     * the soak client asserts against live scrapes. */
    std::atomic<std::uint64_t> rejectedAfterAdmit{0};

    // Process isolation (service/supervisor.hh); all zero when the
    // daemon runs in-process.
    std::atomic<std::uint64_t> workerCrashes{0};   ///< deaths mid-request
    std::atomic<std::uint64_t> workerKills{0};     ///< kill-time SIGKILLs
    std::atomic<std::uint64_t> workerRespawns{0};  ///< replacements spawned
    std::atomic<std::uint64_t> workerSpawnFailures{0}; ///< spawns that died
};

/** One svc tally's names: the counter name of the stats document's
 * `counters` section (and Prometheus), and the key of its `service`
 * section. */
struct SvcTally
{
    std::atomic<std::uint64_t> SvcCounters::*value;
    const char *counter;
    const char *key;
    bool isolationOnly; ///< reported only under --isolate=process
};

/** Every svc tally, in the `service` section's key order. */
inline constexpr SvcTally kSvcTallies[] = {
    {&SvcCounters::accepted, "svc.requests_accepted", "accepted", false},
    {&SvcCounters::rejected, "svc.requests_rejected", "rejected", false},
    {&SvcCounters::ok, "svc.requests_ok", "ok", false},
    {&SvcCounters::degraded, "svc.requests_degraded", "degraded", false},
    {&SvcCounters::error, "svc.requests_error", "error", false},
    {&SvcCounters::retries, "svc.retries", "retries", false},
    {&SvcCounters::degradedFallbacks, "svc.degraded_fallbacks",
     "degraded_fallbacks", false},
    {&SvcCounters::quarantineAdds, "svc.quarantine_adds",
     "quarantine_adds", false},
    {&SvcCounters::quarantineHits, "svc.quarantine_hits",
     "quarantine_hits", false},
    {&SvcCounters::deadlineExpired, "svc.deadline_expired",
     "deadline_expired", false},
    {&SvcCounters::rejectedAfterAdmit, "svc.rejected_after_admit",
     "rejected_after_admit", false},
    {&SvcCounters::workerCrashes, "svc.worker_crashes", "worker_crashes",
     true},
    {&SvcCounters::workerKills, "svc.worker_kills", "worker_kills", true},
    {&SvcCounters::workerRespawns, "svc.worker_respawns",
     "worker_respawns", true},
    {&SvcCounters::workerSpawnFailures, "svc.worker_spawn_failures",
     "worker_spawn_failures", true},
};

/** What one ladder attempt came back with. */
struct AttemptOutcome
{
    enum class Kind
    {
        Ok,       ///< scheduled; @ref line is the client's answer
        Degraded, ///< answered with blocks on original order
        Failed,   ///< the attempt threw; @ref error says why
        Crashed,  ///< the sandbox worker died; @ref error is its exit
        NoWorker, ///< no sandbox worker; @ref error says which lane
    };

    Kind kind = Kind::Failed;
    std::string line;
    std::string error;
    bool deadlineHit = false; ///< a block degraded on the budget rung
    PhaseSpans spans;         ///< per-phase timings of the attempt
    bool workerSpans = false; ///< spans measured in a sandbox worker
};

/** One request's parse (engine.cc): the in-process attempts and every
 * degraded answer share it. */
struct ParsedRequest;

/**
 * The meta of a bundle the service writes for one attempt of @p spec
 * (an outlier bundle, a crash bundle): command `serve`, the request id
 * as input (`request` without one), the attempt's builder, algorithm
 * and policy by display name, the machine (@p defaults' without an
 * override) and the trace id — what the CLI writes, so
 * `sched91 explain` replays the bundle verbatim.
 */
obs::RunMeta bundleMeta(const RequestSpec &spec,
                        const EngineConfig &defaults, BuilderKind builder,
                        AlgorithmKind algorithm, AliasPolicy policy);

/** @p key as the 16 hex digits of a bundle's file name. */
std::string bundleKeyHex(std::uint64_t key);

/** Runs one request's ladder attempts: in this process, or in a
 * lane's sandbox worker (service/supervisor.hh). */
class AttemptRunner
{
  public:
    virtual ~AttemptRunner() = default;

    /**
     * Ready the request before the ladder's first rung.  Throws when
     * the request cannot run at all (an unknown machine override), so
     * the ladder answers "error".  Returns the runner's own parse when
     * it made one, for the degraded rungs to share; null = the ladder
     * parses on demand.
     */
    virtual ParsedRequest *prepare() = 0;

    /** Attempt @p attempt (0 = the requested builder, 1 = the
     * table-forward retry) on @p builder; @p downgraded marks an
     * answer from the retry rung.  Never throws. */
    virtual AttemptOutcome run(BuilderKind builder, int attempt,
                               bool downgraded) = 0;
};

class Engine
{
  public:
    explicit Engine(EngineConfig config);

    /**
     * Run one parsed request through the ladder in this process and
     * return the response line (no trailing newline).
     * @p remainingSeconds is what is left of the request's deadline at
     * pick-up time (<= 0 = no deadline).  Never throws.
     *
     * @p trace, when non-null, receives the request's span tree:
     * one "rung" span per ladder attempt plus per-phase child spans
     * (parse/build/heur/sched/verify) under the answering rung.
     */
    std::string process(const RequestSpec &spec,
                        double remainingSeconds,
                        const obs::RequestTrace *trace = nullptr);

    /** The ladder over @p runner's attempts, same contract as above:
     * the one ladder both the overload above (in-process runner) and
     * Supervisor::process() (sandbox runner) delegate to. */
    std::string process(const RequestSpec &spec, AttemptRunner &runner,
                        const obs::RequestTrace *trace = nullptr);

    /**
     * One ladder attempt in this process, answered as a wire line —
     * the sandbox worker's body (`--isolate=process`): the spec
     * carries the attempt's explicit configuration, @p attempt sets
     * the fault-injection salt and the reported attempts count, and
     * @p downgraded marks the retry rung.  A failed attempt answers
     * status "error"; never throws.  Touches neither the tallies nor
     * the quarantine — the parent's ladder owns those.
     */
    std::string attemptLine(const RequestSpec &spec, int attempt,
                            bool downgraded, double remainingSeconds);

    SvcCounters &counters() { return counters_; }
    const EngineConfig &config() const { return config_; }

    /** Payloads currently quarantined (tests). */
    std::size_t quarantineSize() const;

  private:
    class InProcessRunner;

    bool isQuarantined(std::uint64_t key) const;
    void addToQuarantine(std::uint64_t key);
    std::string lastRungLine(ParsedRequest &parsed,
                             const RequestSpec &spec,
                             bool fromQuarantine, int attempts);
    void writeOutlierBundles(const RequestSpec &spec,
                             const ProgramResult &result,
                             const PipelineOptions &popts,
                             std::uint64_t key) const;

    EngineConfig config_;
    MachineModel machine_;
    SvcCounters counters_;

    mutable std::mutex quarantineMu_;
    std::unordered_set<std::uint64_t> quarantine_;
};

} // namespace sched91::service

#endif // SCHED91_SERVICE_ENGINE_HH
