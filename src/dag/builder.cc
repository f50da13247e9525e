#include "dag/builder.hh"

#include "dag/n2_forward.hh"
#include "dag/n2_landskov.hh"
#include "dag/table_backward.hh"
#include "dag/table_forward.hh"
#include "obs/events.hh"
#include "support/logging.hh"
#include "support/worker_context.hh"

namespace sched91
{

namespace
{

/** Adds a build's arc tallies, which Dag::addArc keeps instead of
 * counting, to their counters as the build ends or unwinds. */
class ArcTally
{
  public:
    explicit ArcTally(const Dag &dag) : dag_(dag) {}
    ArcTally(const ArcTally &) = delete;
    ArcTally &operator=(const ArcTally &) = delete;

    ~ArcTally()
    {
        obs::ev::dagArcsAdded.inc(dag_.numArcs());
        obs::ev::dagArcsDuplicate.inc(dag_.duplicateCount());
        obs::ev::dagArcsSuppressed.inc(dag_.suppressedCount());
    }

  private:
    const Dag &dag_;
};

} // namespace

Dag
DagBuilder::build(const BlockView &block, const MachineModel &machine,
                  const BuildOptions &opts) const
{
    // Inside a pipeline worker the arc lists draw from the worker's
    // block-lifetime arena; standalone callers get heap allocation.
    Dag dag(block, WorkerContext::currentArena());
    {
        const ArcTally tally(dag);
        fill(dag, block, machine, opts);
    }
    return dag;
}

void
DagBuilder::fill(Dag &dag, const BlockView &block,
                 const MachineModel &machine, const BuildOptions &opts) const
{
    dag.setLevelOrigin(isForward() ? Dag::LevelOrigin::Roots
                                   : Dag::LevelOrigin::Leaves);

    if (opts.maintainReachMaps || opts.preventTransitive) {
        dag.enableReachMaps(isForward() ? ReachMode::Ancestors
                                        : ReachMode::Descendants);
        dag.setPreventTransitive(opts.preventTransitive);
    }

    // Node-time ('a') annotations that need the machine model.
    NodeAnnotations &ann = dag.ann();
    for (std::uint32_t i = 0; i < dag.size(); ++i) {
        const Instruction &inst = dag.inst(i);
        ann.execTime[i] = machine.latency(inst.cls());
        ann.altType[i] = static_cast<int>(inst.group());
    }

    addArcs(dag, block, machine, opts);

    // Anchor a block-ending control transfer below all true leaves so
    // it is scheduled last.
    if (opts.anchorBranch && dag.size() > 1) {
        std::uint32_t last = dag.size() - 1;
        const Instruction &tail = dag.inst(last);
        if (isControlTransfer(tail.cls()) ||
            tail.cls() == InstClass::WindowOp) {
            dag.beginArcGroup(last);
            ArcIdxVec leaves = dag.leaves();
            bool added = false;
            for (std::uint32_t leaf : leaves) {
                if (leaf != last &&
                    dag.addArc(leaf, last, DepKind::CTRL, 1) ==
                        Dag::AddArcResult::Added) {
                    added = true;
                }
            }
            if (added && !isForward()) {
                // Late arc insertion invalidates the leaf-origin
                // levels of the leaves' ancestors.
                dag.recomputeLevels();
            }
            if (added && dag.reachMode() == ReachMode::Descendants) {
                // Every node reaches some leaf, and all leaves now
                // reach the branch: patch the maintained maps exactly.
                for (std::uint32_t i = 0; i < dag.size(); ++i)
                    if (i != last)
                        dag.reachMapMutable(i).set(last);
            }
        }
    }
}

PairMasks::PairMasks(const Dag &dag)
    : def_(ArenaAllocator<Words>(dag.arena())),
      use_(ArenaAllocator<Words>(dag.arena())),
      mem_(ArenaAllocator<std::uint8_t>(dag.arena()))
{
    static_assert(Resource::kNumSlots <= 128,
                  "pair masks assume two words of resource slots");
    std::uint32_t n = dag.size();
    def_.assign(n, Words{});
    use_.assign(n, Words{});
    mem_.assign(n, 0);
    auto set_bit = [](Words &w, int slot) {
        if (slot < 64)
            w.lo |= std::uint64_t{1} << slot;
        else
            w.hi |= std::uint64_t{1} << (slot - 64);
    };
    for (std::uint32_t i = 0; i < n; ++i) {
        const Instruction &inst = dag.inst(i);
        for (Resource r : inst.defs())
            set_bit(def_[i], r.slot());
        for (Resource r : inst.uses())
            set_bit(use_[i], r.slot());
        if (inst.mem().has_value())
            mem_[i] |= 1;
        if (inst.isStore())
            mem_[i] |= 2;
    }
}

void
addPairwiseArcs(Dag &dag, std::uint32_t i, std::uint32_t j,
                const DelayCalc &delays, const MemDisambiguator &mem)
{
    const Instruction &earlier = dag.inst(i);
    const Instruction &later = dag.inst(j);

    // Register-like resources.
    for (Resource r : later.uses())
        if (earlier.definesResource(r))
            dag.addArc(i, j, DepKind::RAW, delays.raw(i, j, r), r);
    for (Resource r : later.defs()) {
        if (earlier.usesResource(r))
            dag.addArc(i, j, DepKind::WAR, delays.war(), r);
        if (earlier.definesResource(r))
            dag.addArc(i, j, DepKind::WAW, delays.waw(i, j), r);
    }

    // Memory: store-store is WAW, store-load RAW, load-store WAR.
    if (earlier.mem().has_value() && later.mem().has_value()) {
        bool e_store = earlier.isStore();
        bool l_store = later.isStore();
        if (e_store || l_store) {
            AliasResult rel = mem.alias(*earlier.mem(), *later.mem());
            if (rel != AliasResult::NoAlias) {
                if (e_store && l_store)
                    dag.addArc(i, j, DepKind::WAW, delays.waw(i, j));
                else if (e_store)
                    dag.addArc(i, j, DepKind::RAW,
                               delays.raw(i, j, Resource()));
                else
                    dag.addArc(i, j, DepKind::WAR, delays.war());
            }
        }
    }
}

std::unique_ptr<DagBuilder>
makeBuilder(BuilderKind kind)
{
    switch (kind) {
      case BuilderKind::N2Forward:
        return std::make_unique<N2ForwardBuilder>();
      case BuilderKind::N2Backward:
        return std::make_unique<N2BackwardBuilder>();
      case BuilderKind::N2Landskov:
        return std::make_unique<N2LandskovBuilder>();
      case BuilderKind::TableForward:
        return std::make_unique<TableForwardBuilder>();
      case BuilderKind::TableBackward:
        return std::make_unique<TableBackwardBuilder>();
    }
    panic("bad builder kind");
}

std::vector<BuilderKind>
allBuilderKinds()
{
    return {BuilderKind::N2Forward, BuilderKind::N2Backward,
            BuilderKind::N2Landskov, BuilderKind::TableForward,
            BuilderKind::TableBackward};
}

std::string_view
builderKindName(BuilderKind kind)
{
    switch (kind) {
      case BuilderKind::N2Forward: return "n**2 fwd";
      case BuilderKind::N2Backward: return "n**2 bwd";
      case BuilderKind::N2Landskov: return "n**2 landskov";
      case BuilderKind::TableForward: return "table fwd";
      case BuilderKind::TableBackward: return "table bwd";
    }
    return "?";
}

} // namespace sched91
