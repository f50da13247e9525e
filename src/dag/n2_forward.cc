#include "dag/n2_forward.hh"

#include "obs/events.hh"

namespace sched91
{

void
N2ForwardBuilder::addArcs(Dag &dag, const BlockView &block,
                          const MachineModel &machine,
                          const BuildOptions &opts) const
{
    MemDisambiguator mem(opts.memPolicy);
    DelayCalc delays(machine, dag);
    PairMasks masks(dag);
    obs::CountBatch compares(obs::ev::dagPairwiseCompares);
    std::uint32_t n = block.size();
    for (std::uint32_t j = 1; j < n; ++j) {
        dag.beginArcGroup(j);
        for (std::uint32_t i = 0; i < j; ++i) {
            if (opts.cancel)
                opts.cancel->poll();
            compares.add();
            if (masks.mayInteract(i, j))
                addPairwiseArcs(dag, i, j, delays, mem);
        }
    }
}

void
N2BackwardBuilder::addArcs(Dag &dag, const BlockView &block,
                           const MachineModel &machine,
                           const BuildOptions &opts) const
{
    MemDisambiguator mem(opts.memPolicy);
    DelayCalc delays(machine, dag);
    PairMasks masks(dag);
    obs::CountBatch compares(obs::ev::dagPairwiseCompares);
    for (std::uint32_t i = block.size(); i-- > 0;) {
        dag.beginArcGroup(i);
        for (std::uint32_t j = i + 1; j < block.size(); ++j) {
            if (opts.cancel)
                opts.cancel->poll();
            compares.add();
            if (masks.mayInteract(i, j))
                addPairwiseArcs(dag, i, j, delays, mem);
        }
    }
}

} // namespace sched91
