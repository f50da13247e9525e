/**
 * @file
 * The intermediate heuristic calculation step (Section 4).
 *
 * "An intermediate heuristic calculation step may be required as a
 * pass over the DAG to provide any remaining static heuristics left
 * undetermined after DAG construction."  The paper compares two
 * implementations:
 *
 *  - a *level algorithm*: nodes bucketed into per-level linked lists
 *    during construction, outer loop from max level to min;
 *  - a *reverse walk of a linked list of the instructions* — any
 *    reverse topological sort works, and program order is topological,
 *    so reversing the instruction list suffices.
 *
 * Conclusion 4 of the paper: the level algorithm is "no better" — both
 * are provided here so bench_heuristic_pass can measure that claim.
 */

#ifndef SCHED91_HEURISTICS_STATIC_PASSES_HH
#define SCHED91_HEURISTICS_STATIC_PASSES_HH

#include <cstdint>

#include "dag/dag.hh"

namespace sched91
{

/** Traversal mechanism for the intermediate pass. */
enum class PassImpl : std::uint8_t {
    ReverseWalk, ///< walk the instruction list (program order)
    LevelLists,  ///< Section 4 level algorithm
};

/**
 * Forward pass: computes maxPathFromRoot, maxDelayFromRoot and the
 * earliest start time (EST, Schlansker-style: EST(n) = max over parents
 * p of EST(p) + latency(p), roots at 0).
 */
void runForwardPass(Dag &dag, PassImpl impl = PassImpl::ReverseWalk);

/**
 * Backward pass: computes maxPathToLeaf, maxDelayToLeaf and the latest
 * start time (LST(leaf) = EST(leaf); LST(n) = min over children c of
 * LST(c) minus latency(n)).  LST is only meaningful after
 * runForwardPass().
 *
 * When @p compute_descendants is set, also fills numDescendants and
 * sumExecOfDescendants using reachability bit maps: the builder's maps
 * when it maintained descendant maps, otherwise maps computed here by
 * one reverse-topological sweep ("#descendants is then merely the
 * population count on the reachability bit map ... minus one").
 */
void runBackwardPass(Dag &dag, PassImpl impl = PassImpl::ReverseWalk,
                     bool compute_descendants = false);

/** slack = LST - EST; requires both passes. */
void computeSlack(Dag &dag);

/** Run forward + backward passes and slack. */
void runAllStaticPasses(Dag &dag, PassImpl impl = PassImpl::ReverseWalk,
                        bool compute_descendants = false);

} // namespace sched91

#endif // SCHED91_HEURISTICS_STATIC_PASSES_HH
