/**
 * @file
 * Dynamic ("v") heuristics: values that "can only be calculated by
 * node visitation during scheduling" (Table 1 legend).
 *
 * The per-node scheduling state (unscheduled parent/child counters,
 * earliest execution time, Tiemann priority boost) lives in
 * NodeAnnotations; this module provides its initialization, the update
 * rules applied when a node is scheduled, and the candidate-time
 * evaluations (#single-parent children, #uncovered children,
 * interlock-with-previous, ...).
 */

#ifndef SCHED91_HEURISTICS_DYNAMIC_HH
#define SCHED91_HEURISTICS_DYNAMIC_HH

#include <cstdint>

#include "dag/dag.hh"
#include "machine/machine_model.hh"

namespace sched91
{

/** Reset all dynamic scheduling state of a DAG. */
void initDynamicState(Dag &dag);

/**
 * #single-parent children: children whose only *unscheduled* parent is
 * the candidate (paper Section 3 pseudocode).
 */
int numSingleParentChildren(const Dag &dag, std::uint32_t n);

/** Sum of arc delays to the single-parent children. */
int sumDelaysToSingleParentChildren(const Dag &dag, std::uint32_t n);

/**
 * #uncovered children: children that would join the candidate list
 * immediately if @p n were scheduled — single unscheduled parent *and*
 * an arc delay of one (Warren [16]).
 */
int numUncoveredChildren(const Dag &dag, std::uint32_t n);

/**
 * Interlock-with-previous predicate: true when @p candidate has a
 * dependence arc of delay > 1 from @p last_scheduled, i.e. it could
 * not execute in the cycle after it (Gibbons & Muchnick).  False when
 * nothing has been scheduled yet (@p last_scheduled < 0).
 */
bool interlocksWithPrevious(const Dag &dag, std::uint32_t candidate,
                            std::int64_t last_scheduled);

/**
 * Forward-scheduling update: mark @p n scheduled at @p issue_time,
 * decrement children's unscheduled-parent counters, and push their
 * earliest execution times to max(previous, issue_time + arc delay).
 * Returns the arcs it relaxed, which the caller counts as
 * `sched.dep_updates`.
 */
std::size_t onScheduledForward(Dag &dag, std::uint32_t n, int issue_time);

/**
 * Backward-scheduling update: mark @p n scheduled and decrement the
 * parents' unscheduled-children counters.  When @p birthing is set,
 * each RAW parent's priority is adjusted upward (Tiemann's birthing-
 * instruction heuristic: shorten the live range by scheduling the
 * producer next).  Returns the arcs it relaxed, which the caller
 * counts as `sched.dep_updates`.
 */
std::size_t onScheduledBackward(Dag &dag, std::uint32_t n, bool birthing,
                                double birthing_boost = 1.0);

} // namespace sched91

#endif // SCHED91_HEURISTICS_DYNAMIC_HH
