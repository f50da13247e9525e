/**
 * @file
 * The dependence DAG: nodes, typed weighted arcs, and the add_arc
 * bookkeeping the paper attributes to construction time.
 *
 * Node ids equal instruction positions within the basic block, so
 * program order is always a topological order (every builder adds arcs
 * from earlier to later instructions, whichever direction it scans).
 *
 * add_arc maintains the "a"-class heuristics of Table 1 (those
 * "determined when an instruction node or dependency arc is added"):
 * #children, #parents, phi-delays to children / from parents, and the
 * interlock-with-child flag.  It can also maintain reachability bit
 * maps — used either to *prevent* transitive arcs (the Landskov-style
 * behaviour the paper recommends against) or merely to enable the O(1)
 * #descendants population count of Section 3.
 *
 * Storage is data-oriented:
 *
 *  - Topology and annotations are struct-of-arrays: one dense array
 *    per field (NodeAnnotations holds one span per Table 1 slot), so
 *    the static passes and the scheduler's dynamic-update loops stream
 *    over contiguous ints instead of striding 100+-byte node records.
 *    All the per-node arrays share one slab, allocated and zeroed once
 *    as the DAG is made.
 *  - Adjacency is CSR (compressed sparse row): builders only append to
 *    the flat arc array; the per-node [begin,end) ranges plus flat
 *    arc-id arrays are finalized lazily, in a slab of their own, by one
 *    counting pass the first time adjacency is queried.  Filling in
 *    ascending arc-id order reproduces exactly the per-node insertion
 *    order the old linked-list representation had, so schedules are
 *    byte-identical.
 *  - Reachability maps are one words × nodes BitMatrix slab with
 *    word-granular OR-merge on arc insertion.
 */

#ifndef SCHED91_DAG_DAG_HH
#define SCHED91_DAG_DAG_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ir/basic_block.hh"
#include "ir/instruction.hh"
#include "ir/program.hh"
#include "machine/machine_model.hh"
#include "support/arena.hh"
#include "support/bitmap.hh"

namespace sched91
{

/**
 * Arc-index list.  Arena-backed where a worker context is installed;
 * with no arena attached the allocator is plain heap and the type
 * behaves exactly like std::vector<uint32_t>.
 */
using ArcIdxVec = ArenaVector<std::uint32_t>;

/** Read-only view of one basic block's instructions. */
class BlockView
{
  public:
    BlockView(const Program &prog, BasicBlock bb) : prog_(&prog), bb_(bb) {}

    std::uint32_t size() const { return bb_.size(); }

    /** Instruction @p i of the block (0-based). */
    const Instruction &
    inst(std::uint32_t i) const
    {
        return (*prog_)[bb_.begin + i];
    }

    const Program &program() const { return *prog_; }
    const BasicBlock &block() const { return bb_; }

  private:
    const Program *prog_;
    BasicBlock bb_;
};

/** A dependence arc. */
struct Arc
{
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    DepKind kind = DepKind::RAW;
    std::int32_t delay = 1;
    Resource res;  ///< invalid for memory and control arcs
};

/**
 * Per-node heuristic annotation slots (all 26 heuristics of Table 1
 * draw on these), stored struct-of-arrays: each field is a dense
 * array indexed by node id, a view of the DAG's node slab, zero as
 * the DAG is made.  The 'a' fields are filled during DAG
 * construction, the 'f'/'b' fields by the intermediate heuristic
 * pass, and the dynamic fields evolve during scheduling.
 */
struct NodeAnnotations
{
    // --- 'a': determined when the node / arc is added ---------------
    std::span<int> execTime;             ///< operation latency
    std::span<std::uint8_t> interlockWithChild;
    std::span<int> sumDelaysToChildren;  ///< phi=sum delays to children
    std::span<int> maxDelayToChild;      ///< phi=max delays to children
    std::span<int> sumDelaysFromParents; ///< phi=sum delays from parents
    std::span<int> maxDelayFromParents;  ///< phi=max delays from parents
    std::span<int> altType;              ///< issue group (alternate type)
    std::span<int> regsBorn;
    std::span<int> regsKilled;
    std::span<int> liveness;             ///< Warren-style kills - births

    // --- 'f': forward heuristic pass ---------------------------------
    std::span<int> maxPathFromRoot;
    std::span<int> maxDelayFromRoot;
    std::span<int> earliestStart;        ///< EST (node-latency, [12])

    // --- 'b': backward heuristic pass ---------------------------------
    std::span<int> maxPathToLeaf;
    std::span<int> maxDelayToLeaf;
    std::span<int> latestStart;          ///< LST (node-latency, [12])
    std::span<int> numDescendants;
    std::span<long long> sumExecOfDescendants;

    // --- derived -------------------------------------------------------
    std::span<int> slack;                ///< LST - EST

    // --- 'v': dynamic scheduling state ---------------------------------
    std::span<int> inheritedEet;         ///< cross-block latency floor
    std::span<int> earliestExecTime;
    std::span<int> unscheduledParents;
    std::span<int> unscheduledChildren;
    std::span<double> priorityBoost;     ///< Tiemann birthing adjustment
    std::span<std::uint8_t> scheduled;
};

/** Reachability-map maintenance mode. */
enum class ReachMode : std::uint8_t {
    None,         ///< no maps
    Descendants,  ///< map[i] = nodes reachable from i (backward builds)
    Ancestors,    ///< map[i] = nodes reaching i (forward builds)
};

/**
 * Node lists bucketed by level (Section 4's level algorithm data
 * structure), flattened into one node slab plus per-level offsets.
 */
class LevelLists
{
  public:
    explicit LevelLists(Arena *arena = nullptr)
        : off_(ArenaAllocator<std::uint32_t>(arena)),
          nodes_(ArenaAllocator<std::uint32_t>(arena))
    {
    }

    /** Number of levels. */
    std::size_t
    size() const
    {
        return off_.empty() ? 0 : off_.size() - 1;
    }

    /** Nodes on level @p l, ascending node id. */
    std::span<const std::uint32_t>
    operator[](std::size_t l) const
    {
        return {nodes_.data() + off_[l], nodes_.data() + off_[l + 1]};
    }

  private:
    friend class Dag;
    ArenaVector<std::uint32_t> off_;   ///< size() + 1 offsets
    ArenaVector<std::uint32_t> nodes_; ///< all nodes, level-major
};

/** The dependence DAG for one basic block. */
class Dag
{
  public:
    /** Outcome of an addArc() attempt. */
    enum class AddArcResult : std::uint8_t {
        Added,
        Duplicate,   ///< (from,to) arc existed; delay maximized
        Suppressed,  ///< dropped by transitive-arc prevention
    };

    /**
     * Create one node per block instruction, in program order.  With
     * a non-null @p arena every internal array (annotations, CSR
     * slabs, reach maps, scratch) allocates from it, tying the DAG's
     * lifetime to the arena's reset cycle (the pipeline resets per
     * block).
     */
    explicit Dag(const BlockView &block, Arena *arena = nullptr);

    /** Enable reachability maps (call before any addArc). */
    void enableReachMaps(ReachMode mode);

    /**
     * When true, an arc whose endpoints are already connected through
     * intermediate nodes is suppressed (requires reach maps).  This is
     * the transitive-arc-avoidance behaviour of Landskov et al. that
     * Section 2 argues loses important timing information.
     */
    void setPreventTransitive(bool prevent);

    /** Level numbering origin: roots (forward) or leaves (backward). */
    enum class LevelOrigin : std::uint8_t { Roots, Leaves };
    void setLevelOrigin(LevelOrigin origin) { levelOrigin_ = origin; }
    LevelOrigin levelOrigin() const { return levelOrigin_; }

    /**
     * Recompute all node levels from scratch (one sweep in program
     * order, which is topological).  Needed after arcs are inserted
     * out of construction order — e.g. the branch-anchoring control
     * arcs added at the end of a backward build, which would otherwise
     * leave ancestors' leaf-origin levels stale.
     */
    void recomputeLevels();

    /**
     * Hint that subsequent addArc calls all involve @p node as one
     * endpoint; enables O(1) duplicate detection.
     */
    void beginArcGroup(std::uint32_t node);

    /** Add (or merge) a dependence arc from @p from to @p to.  Counts
     * no event itself: DagBuilder::build adds the tallies below to the
     * `dag.arcs_*` counters once per build. */
    AddArcResult addArc(std::uint32_t from, std::uint32_t to, DepKind kind,
                        int delay, Resource res = Resource());

    std::uint32_t size() const { return numNodes_; }

    // --- topology (struct-of-arrays) ---------------------------------

    const Instruction &inst(std::uint32_t i) const { return *inst_[i]; }
    const Instruction *instPtr(std::uint32_t i) const { return inst_[i]; }

    int level(std::uint32_t i) const { return level_[i]; }
    int numChildren(std::uint32_t i) const { return numChildren_[i]; }
    int numParents(std::uint32_t i) const { return numParents_[i]; }
    std::span<const int> childCounts() const { return numChildren_; }
    std::span<const int> parentCounts() const { return numParents_; }

    /** Heuristic annotation arrays (index by node id). */
    NodeAnnotations &ann() { return ann_; }
    const NodeAnnotations &ann() const { return ann_; }

    // --- CSR adjacency (finalized lazily; see ensureCsr) --------------

    /** Arc ids leaving @p i, in insertion order (ascending arc id). */
    std::span<const std::uint32_t>
    succs(std::uint32_t i) const
    {
        ensureCsr();
        return {succArc_ + succOff_[i], succArc_ + succOff_[i + 1]};
    }

    /** Arc ids entering @p i, in insertion order (ascending arc id). */
    std::span<const std::uint32_t>
    preds(std::uint32_t i) const
    {
        ensureCsr();
        return {predArc_ + predOff_[i], predArc_ + predOff_[i + 1]};
    }

    /** Successor node ids, parallel to succs(i). */
    std::span<const std::uint32_t>
    succTo(std::uint32_t i) const
    {
        ensureCsr();
        return {succTo_ + succOff_[i], succTo_ + succOff_[i + 1]};
    }

    /** Successor arc delays, parallel to succs(i). */
    std::span<const std::int32_t>
    succDelay(std::uint32_t i) const
    {
        ensureCsr();
        return {succDelay_ + succOff_[i], succDelay_ + succOff_[i + 1]};
    }

    /** Predecessor node ids, parallel to preds(i). */
    std::span<const std::uint32_t>
    predFrom(std::uint32_t i) const
    {
        ensureCsr();
        return {predFrom_ + predOff_[i], predFrom_ + predOff_[i + 1]};
    }

    /** Predecessor arc delays, parallel to preds(i). */
    std::span<const std::int32_t>
    predDelay(std::uint32_t i) const
    {
        ensureCsr();
        return {predDelay_ + predOff_[i], predDelay_ + predOff_[i + 1]};
    }

    /** Predecessor arc kinds, parallel to preds(i). */
    std::span<const DepKind>
    predKind(std::uint32_t i) const
    {
        ensureCsr();
        return {predKind_ + predOff_[i], predKind_ + predOff_[i + 1]};
    }

    const Arc &arc(std::uint32_t i) const { return arcs_[i]; }

    std::span<const Arc> arcs() const { return {arcs_.data(), arcs_.size()}; }

    /** Unique arcs added (excludes duplicates and suppressed arcs). */
    std::size_t numArcs() const { return arcs_.size(); }

    /** Duplicate (from,to) attempts merged into existing arcs. */
    std::size_t duplicateCount() const { return duplicates_; }

    /** Arcs dropped by transitive prevention. */
    std::size_t suppressedCount() const { return suppressed_; }

    /** Nodes with no parents (arena-backed where available). */
    ArcIdxVec roots() const;

    /** Nodes with no children (arena-backed where available). */
    ArcIdxVec leaves() const;

    /** Reachability map of a node (requires enableReachMaps). */
    ConstBitRow reachMap(std::uint32_t i) const { return reach_.row(i); }

    /** Mutable reachability map (builders' late fix-ups only). */
    BitRow reachMapMutable(std::uint32_t i) { return reach_.row(i); }

    ReachMode reachMode() const { return reachMode_; }

    /** Per-level node lists, built on demand. */
    const LevelLists &levelLists() const;

    /**
     * Compute descendant bitmaps by a reverse-topological sweep
     * (program order is topological).  Used for #descendants when the
     * builder did not maintain maps, and by countTransitiveArcs().
     */
    BitMatrix computeDescendantMaps() const;

    /**
     * Count arcs that are transitive, i.e. whose endpoints are also
     * connected through at least one intermediate node.
     */
    std::size_t countTransitiveArcs() const;

    /**
     * Number of weakly connected components — the paper's Section 2:
     * "A basic block may result in a collection of one or more DAGs,
     * called a *forest*."  Construction algorithms that want a single
     * candidate-list entry point join them under a dummy root; this
     * library instead seeds the candidate list with every root.
     */
    std::size_t countForestTrees() const;

    const BlockView &block() const { return block_; }

    /** Arena the DAG allocates from (null = heap). */
    Arena *arena() const { return arena_; }

  private:
    BlockView block_;
    Arena *arena_ = nullptr;
    std::uint32_t numNodes_ = 0;

    /** The slabs' storage when the DAG has no arena. */
    std::unique_ptr<std::byte[]> nodeHeap_;
    mutable std::unique_ptr<std::byte[]> csrHeap_;

    // Topology, struct-of-arrays: with ann_ and the duplicate stamps,
    // views of the node slab.
    std::span<const Instruction *> inst_;
    std::span<int> level_;
    std::span<int> numChildren_;
    std::span<int> numParents_;
    ArenaVector<Arc> arcs_;
    NodeAnnotations ann_;

    ReachMode reachMode_ = ReachMode::None;
    bool preventTransitive_ = false;
    LevelOrigin levelOrigin_ = LevelOrigin::Roots;
    BitMatrix reach_;

    std::size_t duplicates_ = 0;
    std::size_t suppressed_ = 0;

    // O(1) duplicate detection within one arc group.
    std::uint32_t groupNode_ = ~std::uint32_t{0};
    std::uint32_t epoch_ = 0;
    std::span<std::uint32_t> dupStamp_;
    std::span<std::uint32_t> dupArc_;

    // CSR adjacency, rebuilt lazily after arc insertion.  In the
    // pipeline every builder appends all arcs first and adjacency is
    // queried afterwards, so the counting pass runs exactly once per
    // block.  The companion to/delay/kind arrays let hot loops stream
    // without touching the (wider) Arc records.  All of them live in
    // the CSR slab, which has room for csrArcs_ arcs.
    mutable bool csrValid_ = false;
    mutable std::size_t csrArcs_ = 0;
    mutable std::uint32_t *succOff_ = nullptr; ///< n + 1 offsets
    mutable std::uint32_t *predOff_ = nullptr;
    mutable std::uint32_t *succArc_ = nullptr; ///< arc ids
    mutable std::uint32_t *predArc_ = nullptr;
    mutable std::uint32_t *succTo_ = nullptr;
    mutable std::uint32_t *predFrom_ = nullptr;
    mutable std::int32_t *succDelay_ = nullptr;
    mutable std::int32_t *predDelay_ = nullptr;
    mutable DepKind *predKind_ = nullptr;

    mutable LevelLists levelLists_;
    mutable bool levelListsValid_ = false;

    /** Counting-pass CSR finalization (no-op when already valid). */
    void
    ensureCsr() const
    {
        if (!csrValid_)
            buildCsr();
    }
    void buildCsr() const;

    /** @p bytes of storage for a slab: from the arena, or from the heap
     * into @p heap. */
    std::byte *slab(std::size_t bytes,
                    std::unique_ptr<std::byte[]> &heap) const;

    /** Find an existing (from,to) arc; returns arc id or ~0. */
    std::uint32_t findArc(std::uint32_t from, std::uint32_t to) const;
};

} // namespace sched91

#endif // SCHED91_DAG_DAG_HH
