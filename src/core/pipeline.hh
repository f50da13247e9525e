/**
 * @file
 * Top-level scheduling pipeline: the paper's three-step structure
 * (Section 1) over a whole program.
 *
 *  1. DAG construction for each basic block (Section 2);
 *  2. the intermediate heuristic calculation step, run in the
 *     direction(s) the chosen algorithm actually needs (Section 4);
 *  3. the scheduling pass (Section 5).
 *
 * The pipeline reports per-phase wall-clock time and DAG structural
 * statistics — the quantities of Tables 4 and 5 — and can optionally
 * evaluate schedule quality in cycles with the in-order pipeline
 * simulator against a timing-complete table-built ground-truth DAG.
 *
 * Basic blocks are independent (each gets its own DAG, heuristic
 * pass, and schedule), so the pipeline processes them block-parallel
 * on a chunked thread pool.  Every worker owns a WorkerContext (bump
 * arena + scratch buffers) and private counter shards for its blocks
 * and their phases; per-block outputs land in slots indexed by block
 * id and all reductions happen after the join in a fixed order, so
 * schedules, statistics, counters, phase trees, trace events, outlier
 * records and the degraded-block log notices are identical for every
 * thread count (see docs/PERFORMANCE.md).  A lane keeps only what
 * folds the same in any order — its counter and phase totals and its
 * arena gauges — and its flight ring, which a crash dump reads from
 * memory.  The calling thread cuts the blocks, one read-only pass
 * over the program (ir/basic_block.hh), and hands them back with the
 * result; each lane moves its blocks' schedules into their slots as
 * they end.  The program is only read, so one Program can run on
 * several threads at once.
 *
 * The run report — the forest count and the other per-node and
 * per-block DAG samples, the phase tree, the per-block histograms, the
 * named counter set and the peak RSS — is built only when
 * PipelineOptions::report asks for it (the default).  The service
 * engine turns it off: nothing it answers or counts reads the report,
 * and its lane shards still get every count.
 */

#ifndef SCHED91_CORE_PIPELINE_HH
#define SCHED91_CORE_PIPELINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dag/builder.hh"
#include "dag/dag_stats.hh"
#include "heuristics/static_passes.hh"
#include "ir/basic_block.hh"
#include "machine/machine_model.hh"
#include "obs/counters.hh"
#include "obs/histogram.hh"
#include "obs/memory.hh"
#include "obs/outliers.hh"
#include "sched/list_scheduler.hh"
#include "sched/pipeline_sim.hh"
#include "sched/registry.hh"

namespace sched91
{

namespace obs
{
class TraceSink;
} // namespace obs

class CancellationToken;

/** Pipeline configuration. */
struct PipelineOptions
{
    BuilderKind builder = BuilderKind::TableForward;
    AlgorithmKind algorithm = AlgorithmKind::SimpleForward;
    BuildOptions build;
    PartitionOptions partition;

    /**
     * Measure schedule quality: simulate original and scheduled order
     * of every block on the machine model (adds simulation time that
     * is *not* charged to the three scheduling phases).
     */
    bool evaluate = false;

    /**
     * Build the run report: ProgramResult's per-node and per-block DAG
     * samples (childrenPerInst, arcsPerBlock, treesPerBlock, with the
     * forest count), and, while the observability layer is enabled,
     * counters, histograms and phaseTree, plus memory.peakRssBytes.
     * A caller that prints none of them (the service engine) turns it
     * off.  Everything else is the same either way: schedules, cycles,
     * issues, the DAG totals, traces, outliers, and the counts added
     * to the caller's active counters.
     */
    bool report = true;

    /**
     * Optional per-block per-phase trace consumer.  Events fire only
     * while the observability layer is enabled (obs::setEnabled).
     * Events are delivered after the parallel region, in block order,
     * from the caller's thread — the sink needs no locking.
     */
    obs::TraceSink *trace = nullptr;

    /**
     * Worker lanes for block-parallel execution: 0 picks the hardware
     * concurrency, 1 runs serial.  The lanes are the calling thread's
     * own (ThreadPool::local), kept from call to call.  parseAssembly
     * takes a lane count with the same meaning, and the CLI sets both
     * from --threads.  Results are deterministic — the same program
     * yields byte-identical schedules, statistics, counters, and
     * traces at every thread count.
     */
    unsigned threads = 0;

    /**
     * When non-null, receives one Schedule per block (indexed by
     * block id) — the per-block output that ProgramResult otherwise
     * aggregates away.  It is sized before the blocks run, and the lane
     * that runs a block moves its schedule into the slot, freeing the
     * schedule the slot held; a run that throws leaves it empty.
     */
    std::vector<Schedule> *schedules = nullptr;

    // --- Robustness (docs/ROBUSTNESS.md) ----------------------------

    /**
     * Independently re-check every block's schedule against its DAG
     * (sched/verifier.hh).  A rejection counts
     * `robust.verifier_rejections` and degrades the block.  On by
     * default: the check is linear in nodes + arcs.
     */
    bool verify = true;

    /**
     * Per-block fault containment: a FatalError/PanicError (or any
     * std::exception) thrown inside one block's build->heur->sched
     * chain — or a verifier rejection or budget overrun — degrades
     * that block to its original instruction order (counted in
     * `robust.blocks_degraded`, detailed in
     * ProgramResult::blockIssues) instead of killing the run.  Turn
     * off to restore fail-fast propagation (`--strict`).
     */
    bool containFaults = true;

    /**
     * The paper's F1/F2 degradation ladder: blocks larger than this
     * fall back from an n**2 builder to table building (F1 shows the
     * n**2 builders are practical only under a ~300-400 instruction
     * window; F2 shows table building handling an 11750-instruction
     * block with no window).  Counted in `robust.builder_fallbacks`,
     * *not* as a degraded block.  0 disables; no effect on table
     * builders.  scheduleBlock honors it too (fallsBackToTable).
     */
    int maxBlockInsts = 0;

    /**
     * Per-block wall-clock budget in seconds.  A CancellationToken
     * armed with this budget is polled inside the DAG-builder and
     * list-scheduler loops (support/cancellation.hh), so even a
     * single pathological n**2 build is cancelled mid-loop; phases
     * that do not poll (heuristics, verification) are still checked
     * at their boundaries.  Overrun degrades the block to original
     * order.  0 disables.  Note that budget outcomes depend on
     * machine load, so runs using this knob trade the byte-identical
     * determinism guarantee for liveness.
     */
    double maxBlockSeconds = 0.0;

    /**
     * Whole-run wall-clock budget in seconds, divided fair-share
     * across the blocks still to run: a block starting at elapsed
     * time t with r blocks remaining gets (maxRunSeconds - t) / r
     * seconds (further capped by maxBlockSeconds when both are set),
     * enforced through the same per-block CancellationToken.  Once
     * the budget is spent entirely, every remaining block degrades
     * immediately to original order.  Either way the run ends in
     * bounded time with every block accounted for.  Blocks cancelled
     * or skipped because of the *run* budget count
     * `cancel.run_budget_exhausted` (on top of the per-block budget
     * counters).  0 disables.  Same determinism trade-off as
     * maxBlockSeconds.
     */
    double maxRunSeconds = 0.0;

    /**
     * Graceful-drain interrupt (SIGINT/SIGTERM): an already-fired
     * external token checked as each block *starts*.  In-flight
     * blocks finish normally; blocks not yet started degrade to
     * original order (counted in `cancel.run_interrupted`) — so the
     * run still ends with every block accounted for and a complete
     * stats document.  Honored even under --strict, like the budget
     * rungs: an interrupted run that was asked to drain is not a
     * fault.  The token outlives the run; null disables.
     */
    const CancellationToken *interrupt = nullptr;

    /**
     * Retry-attempt salt forwarded to the deterministic fault
     * injector (support/fault_inject.hh): decisions are pure
     * functions of (seed, point, block-content-key, faultSalt), so a
     * service ladder re-running a failed payload with salt+1 can see
     * the fault clear — or persist — reproducibly.
     */
    std::uint64_t faultSalt = 0;

    // --- Forensics (docs/FORENSICS.md) ------------------------------

    /**
     * Keep the K most expensive blocks (by deterministic work score:
     * the sum of the block's Sum-kind counter deltas) and fill
     * ProgramResult::outliers with their forensic records.  Requires
     * the observability layer (obs::setEnabled) — the score is made of
     * counters.  0 disables.
     */
    int captureOutliers = 0;

    /**
     * Record the full per-pick decision log for this block id and
     * fill ProgramResult::decisions.  The log observes the
     * scheduler's own winnowing pass, so the schedule is the same; a
     * keyed ranking moves off the heaps for that block, which changes
     * its heuristic-evaluation count.  -1 disables.
     */
    int explainBlock = -1;
};

/** Aggregated outcome of scheduling a whole program. */
struct ProgramResult
{
    std::size_t numBlocks = 0;
    std::size_t numInsts = 0;

    /** The blocks the run cut the program into (PipelineOptions::
     * partition), in block-id order: what PipelineOptions::schedules
     * and every block number in this result index. */
    std::vector<BasicBlock> blocks;

    // Phase wall-clock times, summed over the blocks' phase records
    // (a phase that threw counts the time it ran).
    double buildSeconds = 0.0;
    double heurSeconds = 0.0;
    double schedSeconds = 0.0;
    double verifySeconds = 0.0;

    double
    totalSeconds() const
    {
        return buildSeconds + heurSeconds + schedSeconds;
    }

    /** Tables 4/5 structural statistics.  Without the run report
     * (PipelineOptions::report) only the totals are filled; the
     * samples are empty. */
    DagStructure dagStats;

    // Quality (only when PipelineOptions::evaluate).
    long long cyclesOriginal = 0;  ///< sum over blocks, original order
    long long cyclesScheduled = 0; ///< sum over blocks, scheduled order

    /**
     * Event counts of this run alone (Table 1's a/f/b/v work,
     * counted): the run's merged worker shards, exact even when runs
     * overlap.  The same counts are also added to the caller's
     * installed shard, if it has one.
     * Empty unless the observability layer was enabled for the run,
     * and without the run report (PipelineOptions::report).
     */
    obs::CounterSet counters;

    /**
     * Per-block distributions: phase latencies (`lat.build_ns`,
     * `lat.heur_ns`, `lat.sched_ns`, `lat.verify_ns`, nanoseconds, one
     * sample per block per phase that started) and sizes
     * (`block.insts`, `block.arena_bytes`).  Empty unless the
     * observability layer was enabled for the run, and without the
     * run report.
     */
    obs::HistogramSet histograms;

    /** The run's phase tree, folded from the blocks' phase records.
     * Empty unless the observability layer was enabled for the run,
     * and without the run report. */
    obs::PhaseStats phaseTree;

    /** Memory footprint of the run (filled regardless of
     * observability — the quantities are free at run end), except
     * peakRssBytes, a getrusage call, which stays 0 without the run
     * report. */
    obs::MemoryStats memory;

    // --- Robustness outcomes (filled regardless of observability) ---

    /** One per-block incident: a degradation or a builder fallback. */
    struct BlockIssue
    {
        std::size_t block = 0;
        /** Where it happened: "build" | "heur" | "sched" | "verify" |
         * "budget" | "evaluate" | "fallback". */
        std::string stage;
        std::string reason;
        /** False for the "fallback" stage (the block still scheduled
         * normally, just via the table builder). */
        bool degraded = false;
    };

    std::size_t blocksDegraded = 0;     ///< blocks on original order
    std::size_t builderFallbacks = 0;   ///< n**2 -> table switches
    std::size_t verifierRejections = 0; ///< schedules the verifier refused
    std::vector<BlockIssue> blockIssues; ///< block order, possibly empty

    /** Front-end diagnostic counts for the input that produced this
     * run.  The pipeline itself never parses; callers that own the
     * parse (the CLI) fill these so `--stats-json` carries the whole
     * robustness picture, warnings included. */
    std::size_t parseErrors = 0;
    std::size_t parseWarnings = 0;

    // --- Forensics (docs/FORENSICS.md) ------------------------------

    /** Captured outlier blocks in block-id order (empty unless
     * PipelineOptions::captureOutliers). */
    std::vector<obs::OutlierRecord> outliers;

    /** Decision log for PipelineOptions::explainBlock (empty() unless
     * requested and the block scheduled normally). */
    DecisionTrace decisions;
};

/**
 * Rung one of the F1/F2 degradation ladder (PipelineOptions::
 * maxBlockInsts): whether a block of @p insts instructions falls back
 * from @p builder to table building.  It does when @p builder is an
 * n**2 builder and @p maxBlockInsts is positive and exceeded.
 */
bool fallsBackToTable(BuilderKind builder, std::size_t insts,
                      int maxBlockInsts);

/**
 * How runPipeline hands a program's blocks to its lanes: chunks of
 * blocks, dispatched in order, each to the next free lane.
 */
struct DispatchPlan
{
    /** Block ids in dispatch order; every block appears once. */
    std::vector<std::size_t> order;
    /** Chunk c is order[bounds[c], bounds[c + 1]). */
    std::vector<std::size_t> bounds{0};

    std::size_t chunks() const { return bounds.size() - 1; }
};

/**
 * Plan the dispatch of @p blocks over @p lanes.  Chunks are cut by
 * instruction count: the target is the program's instructions over
 * (lanes * 8).  With more than one lane, each block at or above the
 * target is a chunk of its own and goes first, largest first (ties in
 * program order), so no lane is left with a queue of big blocks while
 * the others idle; the other blocks follow in program order.  One
 * lane keeps program order.
 */
DispatchPlan planDispatch(const std::vector<BasicBlock> &blocks,
                          unsigned lanes);

/** Run the full pipeline over @p prog. */
ProgramResult runPipeline(const Program &prog, const MachineModel &machine,
                          const PipelineOptions &opts);

/** Single-block result: the annotated DAG and its schedule. */
struct BlockScheduleResult
{
    Dag dag;
    Schedule sched;
    /** Rung one fired: the DAG came from table building, not the
     * requested n**2 builder (counted in `robust.builder_fallbacks`). */
    bool builderFallback = false;
};

/**
 * Convenience single-block entry point: build, annotate with the
 * passes the algorithm needs, schedule.  An n**2 builder facing a
 * block over PipelineOptions::maxBlockInsts falls back to table
 * building, as in runPipeline.  When PipelineOptions::verify
 * is set (the default) the schedule is re-checked against the DAG and
 * a rejection throws PanicError; likewise PipelineOptions::
 * maxBlockSeconds arms a per-call cancellation token whose
 * CancelledError propagates.  There is no degrade ladder and no fault
 * injection: a caller that wants them (every whole-program path,
 * compileProgram included) runs runPipeline instead.  No phase is
 * recorded: per-phase outputs come from runPipeline.
 */
BlockScheduleResult scheduleBlock(const BlockView &block,
                                  const MachineModel &machine,
                                  const PipelineOptions &opts);

} // namespace sched91

#endif // SCHED91_CORE_PIPELINE_HH
