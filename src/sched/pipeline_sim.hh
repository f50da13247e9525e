/**
 * @file
 * In-order pipeline simulator: the authoritative measure of schedule
 * quality in machine cycles.
 *
 * Instructions issue in schedule order on an in-order machine: an
 * instruction stalls until (a) every dependence delay from already
 * issued producers has elapsed, (b) its function unit is free
 * (non-pipelined units such as FP divide stay busy for their full
 * latency — the structural hazards of Section 1), and (c) an issue
 * slot is available.  With issueWidth > 1 the machine can issue
 * multiple instructions per cycle but no two of the same issue group —
 * the superscalar setting that motivates the alternate-type heuristic.
 */

#ifndef SCHED91_SCHED_PIPELINE_SIM_HH
#define SCHED91_SCHED_PIPELINE_SIM_HH

#include <span>
#include <vector>

#include "dag/dag.hh"
#include "machine/machine_model.hh"
#include "sched/schedule.hh"

namespace sched91
{

/** Cycle-level outcome of executing one block in a given order. */
struct SimResult
{
    int cycles = 0;      ///< block completion time (last writeback)
    int lastIssue = 0;   ///< issue cycle of the final instruction
    int stallCycles = 0; ///< issue slots lost to dependence/structural
                         ///< hazards
};

/**
 * Simulate @p order on @p machine using the dependence arcs of
 * @p ground_truth (build it with a full-dependence builder over the
 * same block so no conservative constraint is missed).
 *
 * @p initial_ready, when non-null, gives per-node earliest issue
 * floors carried in from the previous block (see
 * sched/global_info.hh).  @p issue_cycles, when non-empty, receives
 * the issue cycle of each position of @p order (it must hold
 * order.size() entries); this is the one in-order issue model, which
 * the timeline chart draws from too.
 */
SimResult simulateSchedule(const Dag &ground_truth,
                           const std::vector<std::uint32_t> &order,
                           const MachineModel &machine,
                           const std::vector<int> *initial_ready = nullptr,
                           std::span<int> issue_cycles = {});

} // namespace sched91

#endif // SCHED91_SCHED_PIPELINE_SIM_HH
