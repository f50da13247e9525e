#include "dag/n2_landskov.hh"

#include "obs/events.hh"

namespace sched91
{

void
N2LandskovBuilder::addArcs(Dag &dag, const BlockView &block,
                           const MachineModel &machine,
                           const BuildOptions &opts) const
{
    // Pruning requires ancestor maps regardless of the caller's
    // options; the builder *is* the transitive-avoidance variant.
    if (dag.reachMode() == ReachMode::None)
        dag.enableReachMaps(ReachMode::Ancestors);
    dag.setPreventTransitive(true);

    MemDisambiguator mem(opts.memPolicy);
    DelayCalc delays(machine, dag);
    PairMasks masks(dag);
    obs::CountBatch compares(obs::ev::dagPairwiseCompares);
    std::uint32_t n = block.size();
    for (std::uint32_t j = 1; j < n; ++j) {
        dag.beginArcGroup(j);
        // Most recent first ("examines leaves first"): arcs through an
        // intermediate node are established before the older direct
        // dependence is examined, so the ancestor test prunes it.
        for (std::uint32_t i = j; i-- > 0;) {
            if (opts.cancel)
                opts.cancel->poll();
            compares.add();
            if (masks.mayInteract(i, j))
                addPairwiseArcs(dag, i, j, delays, mem);
        }
    }
}

} // namespace sched91
