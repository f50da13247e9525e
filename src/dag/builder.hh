/**
 * @file
 * DAG builder interface and shared construction plumbing.
 *
 * Four builders implement the algorithms compared in the paper:
 *
 *  - N2ForwardBuilder      — compare-against-all, forward (Warren-like)
 *  - N2LandskovBuilder     — compare-against-all with transitive-arc
 *                            pruning (Landskov et al.), the variant
 *                            Section 2 recommends against
 *  - TableForwardBuilder   — table building, forward (Krishnamurthy-like)
 *  - TableBackwardBuilder  — table building, backward (Section 2
 *                            pseudocode, with optional reachability-map
 *                            transitive prevention)
 */

#ifndef SCHED91_DAG_BUILDER_HH
#define SCHED91_DAG_BUILDER_HH

#include <memory>
#include <string_view>
#include <vector>

#include "dag/dag.hh"
#include "dag/memdep.hh"
#include "machine/machine_model.hh"
#include "support/cancellation.hh"

namespace sched91
{

/** Options shared by all DAG builders. */
struct BuildOptions
{
    /** Memory disambiguation aggressiveness. */
    AliasPolicy memPolicy = AliasPolicy::BaseOffset;

    /**
     * Maintain reachability bit maps during construction (needed for
     * the O(1) #descendants heuristic and for transitive prevention).
     */
    bool maintainReachMaps = false;

    /**
     * Suppress transitive arcs.  Implies reach maps.  This reproduces
     * the Landskov-style pruning for the Figure 1 experiment; note the
     * paper's conclusion 3 recommends *against* it.
     */
    bool preventTransitive = false;

    /**
     * Add control arcs from every true leaf to a block-ending control
     * transfer "to ensure that the branch is the last node to be
     * scheduled" (Section 2).
     */
    bool anchorBranch = true;

    /**
     * Cooperative cancellation: when non-null, the builders poll this
     * token inside their arc-insertion loops and abandon the build
     * with CancelledError once it fires.  The pipeline arms one per
     * block from --max-block-seconds so a pathological n**2 build is
     * bounded mid-loop, not just at the next phase boundary.  The
     * token must outlive the build() call; not owned.
     */
    const CancellationToken *cancel = nullptr;
};

/** Abstract DAG construction algorithm. */
class DagBuilder
{
  public:
    virtual ~DagBuilder() = default;

    /** Algorithm name for tables ("n**2 fwd", "table fwd", ...). */
    virtual std::string_view name() const = 0;

    /** Construction pass direction. */
    virtual bool isForward() const = 0;

    /** Build the dependence DAG for one basic block.  The build's arc
     * outcomes count once, as it ends or unwinds (`dag.arcs_added`,
     * `dag.arcs_duplicate`, `dag.arcs_suppressed`). */
    Dag build(const BlockView &block, const MachineModel &machine,
              const BuildOptions &opts = {}) const;

  protected:
    /** Algorithm-specific arc insertion over a prepared DAG. */
    virtual void addArcs(Dag &dag, const BlockView &block,
                         const MachineModel &machine,
                         const BuildOptions &opts) const = 0;

  private:
    /** Everything build() does to the fresh @p dag. */
    void fill(Dag &dag, const BlockView &block, const MachineModel &machine,
              const BuildOptions &opts) const;
};

/** Known builder kinds for registries and benches. */
enum class BuilderKind : std::uint8_t {
    N2Forward,
    N2Backward,
    N2Landskov,
    TableForward,
    TableBackward,
};

/** Instantiate a builder by kind. */
std::unique_ptr<DagBuilder> makeBuilder(BuilderKind kind);

/** All builder kinds, for parameterized tests. */
std::vector<BuilderKind> allBuilderKinds();

/** Display name of a builder kind. */
std::string_view builderKindName(BuilderKind kind);

/**
 * Precomputed dependence-arc delay calculator for one block.
 *
 * The builders' inner loops resolve every arc kind at the call site,
 * so delay lookup needs no per-element branch on kind: WAR and CTRL
 * delays are constants, WAW folds to a latency difference, and RAW —
 * on machine models without per-operand quirks (pair skew, asymmetric
 * bypass, store bypass) — is just the parent's precomputed latency.
 * Quirky models fall back to MachineModel::depDelay so delays stay
 * exactly equal to the unoptimized path.
 *
 * Requires the DAG's execTime annotations to be filled (DagBuilder::
 * build() does this before calling addArcs()).
 */
class DelayCalc
{
  public:
    DelayCalc(const MachineModel &machine, const Dag &dag)
        : machine_(machine), dag_(dag), exec_(dag.ann().execTime.data()),
          warDelay_(machine.warDelay > 1 ? machine.warDelay : 1),
          uniformRaw_(!machine.pairSkew && !machine.asymmetricBypass &&
                      machine.storeBypassSaving == 0)
    {
    }

    int
    raw(std::uint32_t from, std::uint32_t to, Resource res) const
    {
        if (uniformRaw_)
            return exec_[from] > 1 ? exec_[from] : 1;
        return machine_.depDelay(dag_.inst(from), dag_.inst(to),
                                 DepKind::RAW, res);
    }

    int war() const { return warDelay_; }

    int
    waw(std::uint32_t from, std::uint32_t to) const
    {
        int d = exec_[from] - exec_[to] + 1;
        return d > 1 ? d : 1;
    }

  private:
    const MachineModel &machine_;
    const Dag &dag_;
    const int *exec_;
    int warDelay_;
    bool uniformRaw_;
};

/**
 * Two-word def/use resource masks per node, the n² builders' cheap
 * pair filter: most instruction pairs share no resource and no memory
 * relation, so three word-ANDs decide "no interaction" without
 * touching the per-operand loops or the disambiguator.
 */
class PairMasks
{
  public:
    explicit PairMasks(const Dag &dag);

    /** May (i earlier, j later) produce any dependence arc? */
    bool
    mayInteract(std::uint32_t i, std::uint32_t j) const
    {
        const Words &di = def_[i];
        const Words &ui = use_[i];
        const Words &dj = def_[j];
        const Words &uj = use_[j];
        std::uint64_t reg = (di.lo & (uj.lo | dj.lo)) | (ui.lo & dj.lo) |
                            (di.hi & (uj.hi | dj.hi)) | (ui.hi & dj.hi);
        bool mem_pair = (mem_[i] & mem_[j] & 1) != 0 &&
                        ((mem_[i] | mem_[j]) & 2) != 0;
        return reg != 0 || mem_pair;
    }

  private:
    struct Words
    {
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
    };

    ArenaVector<Words> def_;
    ArenaVector<Words> use_;
    ArenaVector<std::uint8_t> mem_; ///< bit 0: has mem op, bit 1: store
};

/**
 * Add every pairwise dependence arc between earlier instruction @p i
 * and later instruction @p j.  Shared by the compare-against-all
 * builders and by the ground-truth DAG used in validation.  The
 * per-pair compare counter is incremented by the callers' loops.
 */
void addPairwiseArcs(Dag &dag, std::uint32_t i, std::uint32_t j,
                     const DelayCalc &delays, const MemDisambiguator &mem);

} // namespace sched91

#endif // SCHED91_DAG_BUILDER_HH
