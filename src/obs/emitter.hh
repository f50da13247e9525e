/**
 * @file
 * Structured run-output emitter: serializes a whole-program pipeline
 * result — per-phase seconds, DAG structural statistics (Tables 4/5),
 * schedule quality, event counters (Table 1's a/f/b/v work, counted),
 * and the nested phase tree — as one machine-readable JSON document.
 *
 * Schema documented in docs/OBSERVABILITY.md.
 */

#ifndef SCHED91_OBS_EMITTER_HH
#define SCHED91_OBS_EMITTER_HH

#include <string>

#include "core/pipeline.hh"
#include "obs/counters.hh"
#include "obs/phase.hh"

namespace sched91::obs
{

/** Run identification carried into the JSON `meta` object. */
struct RunMeta
{
    std::string command;   ///< CLI command or bench name
    std::string input;     ///< file, kernel, or profile name
    std::string builder;
    std::string algorithm;
    std::string machine;
    std::string policy;    ///< alias policy (emitted when non-empty)
    std::string traceId;   ///< originating service trace id (emitted
                           ///< when non-empty; lets `sched91 explain`
                           ///< cross-reference a daemon bundle with
                           ///< its live trace)
};

/** Serialization knobs. */
struct EmitOptions
{
    /** Write every `seconds` field as 0.  Wall-clock is run-to-run
     * noise; zeroing it makes whole documents byte-comparable (used by
     * the determinism tests and `--zero-times`). */
    bool zeroTimes = false;
};

/**
 * Serialize @p result with @p counters (typically the CLI session
 * shard's counts) and, when non-null, the phase tree rooted at @p phases.
 * Cycle totals are included only when the result carries them.
 */
std::string programResultJson(const ProgramResult &result,
                              const RunMeta &meta,
                              const CounterSet &counters,
                              const PhaseStats *phases = nullptr,
                              const EmitOptions &opts = {});

/** Fixed-width text table of nonzero counters (for `--counters`). */
std::string renderCounters(const CounterSet &counters);

/**
 * Serialize one captured outlier as a standalone forensic bundle
 * (docs/FORENSICS.md): run meta, block identity, DAG shape, per-phase
 * seconds (zeroed under opts.zeroTimes), counter deltas, degradation
 * attribution, and the block's source text.  Marked with
 * `"sched91_outlier": 1` so `sched91 explain` can validate its input.
 */
std::string outlierBundleJson(const OutlierRecord &record,
                              const RunMeta &meta,
                              const EmitOptions &opts = {});

/** Text rendering of a decision log (for `--explain-block`). */
std::string renderDecisionTrace(const DecisionTrace &trace);

/** Text summary of captured outliers (for `--capture-outliers`). */
std::string renderOutliers(const std::vector<OutlierRecord> &outliers);

} // namespace sched91::obs

#endif // SCHED91_OBS_EMITTER_HH
