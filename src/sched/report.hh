/**
 * @file
 * Per-block scheduling quality reports.
 *
 * The whole-program pipeline aggregates totals; this module keeps the
 * per-block breakdown — block position and size, cycles before and
 * after scheduling, stall counts, and the DAG's critical path — and
 * renders the worst offenders, so a user can see *where* a scheduler
 * is leaving cycles (the kind of analysis behind the paper's plan to
 * characterize "the attributes of larger basic blocks").
 */

#ifndef SCHED91_SCHED_REPORT_HH
#define SCHED91_SCHED_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "ir/basic_block.hh"
#include "machine/machine_model.hh"

namespace sched91
{

/** Quality record for one scheduled block. */
struct BlockReport
{
    std::uint32_t begin = 0;   ///< first program index of the block
    std::uint32_t size = 0;
    int cyclesOriginal = 0;
    int cyclesScheduled = 0;
    int stallsOriginal = 0;
    int stallsScheduled = 0;
    int criticalPath = 0;      ///< lower bound in cycles

    int gain() const { return cyclesOriginal - cyclesScheduled; }

    /** Cycles above the critical-path lower bound after scheduling. */
    int slackToBound() const { return cyclesScheduled - criticalPath; }
};

/** Per-block quality over a whole program. */
struct ProgramReport
{
    std::vector<BlockReport> blocks;
    long long cyclesOriginal = 0;
    long long cyclesScheduled = 0;

    /** The runPipeline run the schedules came from: its robustness
     * tallies and block issues say which blocks degraded. */
    ProgramResult run;

    /** Blocks sorted by remaining distance to the critical path. */
    std::vector<BlockReport> worstBlocks(std::size_t n) const;

    /** Fixed-width text rendering of the n worst blocks. */
    std::string render(std::size_t n = 10) const;
};

/**
 * Schedule every block of @p prog with one runPipeline call under
 * @p opts and collect per-block quality records.  A block the
 * pipeline degrades (a contained fault, a budget overrun) is reported
 * in original order, and in ProgramReport::run's block issues.
 */
ProgramReport reportProgram(const Program &prog,
                            const MachineModel &machine,
                            const PipelineOptions &opts);

} // namespace sched91

#endif // SCHED91_SCHED_REPORT_HH
