/**
 * @file
 * Postpass delay-slot fixup (Krishnamurthy [8]).
 *
 * "Some algorithms (e.g., Krishnamurthy) use a postpass 'fixup' to try
 * to fill more operation delay slots than are filled by the heuristic
 * scheduling pass" (Section 5).  The fixup scans the issued schedule
 * for stall cycles and greedily moves a later, dependence-independent
 * instruction up into each stall slot when the move cannot lengthen
 * the schedule.
 */

#ifndef SCHED91_SCHED_FIXUP_HH
#define SCHED91_SCHED_FIXUP_HH

#include "dag/dag.hh"
#include "sched/schedule.hh"

namespace sched91
{

/**
 * Improve @p sched in place; returns the number of instructions moved.
 * The result is still a valid topological order of @p dag, and its
 * issue cycles and makespan are set to the timing of that order (each
 * node issued in sequence, no earlier than its arcs and inherited
 * floor allow), which the fixup works out as it goes.
 */
int applyPostpassFixup(const Dag &dag, Schedule &sched);

} // namespace sched91

#endif // SCHED91_SCHED_FIXUP_HH
