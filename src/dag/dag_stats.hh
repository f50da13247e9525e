/**
 * @file
 * DAG structural statistics for Tables 4 and 5: children per
 * instruction and arcs per basic block (max and average), trees per
 * block (Table 3), plus transitive-arc accounting for the ablation
 * benches.  The totals are cheap and always kept (outlier records and
 * `mem.dag_arc_bytes` read them); the per-node and per-block samples,
 * with their forest count, only for a run report that prints them.
 */

#ifndef SCHED91_DAG_DAG_STATS_HH
#define SCHED91_DAG_DAG_STATS_HH

#include <cstdint>

#include "dag/dag.hh"
#include "support/stats.hh"

namespace sched91
{

/** Accumulated structural data over the DAGs of a whole program. */
struct DagStructure
{
    MinMaxAvg childrenPerInst; ///< one sample per node
    MinMaxAvg arcsPerBlock;    ///< one sample per block
    MinMaxAvg treesPerBlock;   ///< forest size (Section 2)
    std::size_t totalArcs = 0;
    std::size_t totalNodes = 0;
    std::size_t totalBlocks = 0;
    std::size_t duplicateArcAttempts = 0;
    std::size_t suppressedArcs = 0;

    /** Fold one block's DAG into the totals, and with @p samples into
     * the per-node and per-block samples too (counting its forest). */
    void accumulate(const Dag &dag, bool samples = true);

    /** Merge another accumulation. */
    void merge(const DagStructure &other);
};

} // namespace sched91

#endif // SCHED91_DAG_DAG_STATS_HH
