#include "dag/dag_stats.hh"

namespace sched91
{

void
DagStructure::accumulate(const Dag &dag, bool samples)
{
    if (samples) {
        for (std::uint32_t i = 0; i < dag.size(); ++i)
            childrenPerInst.add(dag.numChildren(i));
        arcsPerBlock.add(static_cast<double>(dag.numArcs()));
        treesPerBlock.add(static_cast<double>(dag.countForestTrees()));
    }
    totalArcs += dag.numArcs();
    totalNodes += dag.size();
    ++totalBlocks;
    duplicateArcAttempts += dag.duplicateCount();
    suppressedArcs += dag.suppressedCount();
}

void
DagStructure::merge(const DagStructure &other)
{
    childrenPerInst.merge(other.childrenPerInst);
    arcsPerBlock.merge(other.arcsPerBlock);
    treesPerBlock.merge(other.treesPerBlock);
    totalArcs += other.totalArcs;
    totalNodes += other.totalNodes;
    totalBlocks += other.totalBlocks;
    duplicateArcAttempts += other.duplicateArcAttempts;
    suppressedArcs += other.suppressedArcs;
}

} // namespace sched91
