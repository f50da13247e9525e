#include "dag/dag.hh"

#include <algorithm>
#include <cstring>

#include "support/logging.hh"
#include "support/worker_context.hh"

namespace sched91
{

namespace
{

/** Bytes per node of the node slab: three 8-byte arrays (instructions,
 * sumExecOfDescendants, priorityBoost), 26 of 4 bytes and two of one. */
constexpr std::size_t kNodeBytes = sizeof(const Instruction *) +
                                   sizeof(long long) + sizeof(double) +
                                   26 * sizeof(int) +
                                   2 * sizeof(std::uint8_t);

/** A slab's alignment: its widest element's. */
constexpr std::size_t kSlabAlign = alignof(long long);
static_assert(alignof(const Instruction *) <= kSlabAlign &&
              alignof(double) <= kSlabAlign);

/** Cuts typed arrays, one after another, out of a slab.  Callers take
 * the widest types first, so no array needs padding. */
class SlabCutter
{
  public:
    explicit SlabCutter(std::byte *at) : at_(at) {}

    template <typename T>
    T *
    take(std::size_t n)
    {
        T *p = reinterpret_cast<T *>(at_);
        at_ += n * sizeof(T);
        return p;
    }

    template <typename T>
    void
    into(std::span<T> &array, std::size_t n)
    {
        array = {take<T>(n), n};
    }

    const std::byte *at() const { return at_; }

  private:
    std::byte *at_;
};

} // namespace

Dag::Dag(const BlockView &block, Arena *arena)
    : block_(block), arena_(arena), numNodes_(block.size()),
      arcs_(ArenaAllocator<Arc>(arena)), reach_(arena), levelLists_(arena)
{
    const std::size_t n = numNodes_;
    const std::size_t bytes = n * kNodeBytes;
    std::byte *const base = slab(bytes, nodeHeap_);
    std::memset(base, 0, bytes);
    SlabCutter cut(base);
    cut.into(inst_, n);
    cut.into(ann_.sumExecOfDescendants, n);
    cut.into(ann_.priorityBoost, n);

    cut.into(level_, n);
    cut.into(numChildren_, n);
    cut.into(numParents_, n);
    cut.into(dupStamp_, n);
    cut.into(dupArc_, n);
    cut.into(ann_.execTime, n);
    cut.into(ann_.sumDelaysToChildren, n);
    cut.into(ann_.maxDelayToChild, n);
    cut.into(ann_.sumDelaysFromParents, n);
    cut.into(ann_.maxDelayFromParents, n);
    cut.into(ann_.altType, n);
    cut.into(ann_.regsBorn, n);
    cut.into(ann_.regsKilled, n);
    cut.into(ann_.liveness, n);
    cut.into(ann_.maxPathFromRoot, n);
    cut.into(ann_.maxDelayFromRoot, n);
    cut.into(ann_.earliestStart, n);
    cut.into(ann_.maxPathToLeaf, n);
    cut.into(ann_.maxDelayToLeaf, n);
    cut.into(ann_.latestStart, n);
    cut.into(ann_.numDescendants, n);
    cut.into(ann_.slack, n);
    cut.into(ann_.inheritedEet, n);
    cut.into(ann_.earliestExecTime, n);
    cut.into(ann_.unscheduledParents, n);
    cut.into(ann_.unscheduledChildren, n);

    cut.into(ann_.interlockWithChild, n);
    cut.into(ann_.scheduled, n);
    SCHED91_ASSERT(cut.at() == base + bytes, "node slab layout");

    for (std::uint32_t i = 0; i < numNodes_; ++i)
        inst_[i] = &block.inst(i);
}

std::byte *
Dag::slab(std::size_t bytes, std::unique_ptr<std::byte[]> &heap) const
{
    if (arena_)
        return static_cast<std::byte *>(arena_->allocate(bytes, kSlabAlign));
    heap = std::make_unique_for_overwrite<std::byte[]>(bytes);
    return heap.get();
}

void
Dag::enableReachMaps(ReachMode mode)
{
    SCHED91_ASSERT(arcs_.empty(), "reach maps must precede arcs");
    reachMode_ = mode;
    if (mode == ReachMode::None) {
        reach_.reset(0, 0);
        return;
    }
    reach_.reset(numNodes_, numNodes_);
    for (std::uint32_t i = 0; i < numNodes_; ++i)
        reach_.row(i).set(i); // "each node's map ... can reach itself"
}

void
Dag::setPreventTransitive(bool prevent)
{
    if (prevent)
        SCHED91_ASSERT(reachMode_ != ReachMode::None,
                       "transitive prevention requires reach maps");
    preventTransitive_ = prevent;
}

void
Dag::beginArcGroup(std::uint32_t node)
{
    groupNode_ = node;
    ++epoch_;
}

std::uint32_t
Dag::findArc(std::uint32_t from, std::uint32_t to) const
{
    // Only reached by ungrouped addArc calls (manual DAG assembly);
    // builders always key duplicate detection on the arc group.
    for (std::uint32_t a = 0; a < arcs_.size(); ++a)
        if (arcs_[a].from == from && arcs_[a].to == to)
            return a;
    return ~std::uint32_t{0};
}

Dag::AddArcResult
Dag::addArc(std::uint32_t from, std::uint32_t to, DepKind kind, int delay,
            Resource res)
{
    SCHED91_ASSERT(from < numNodes_ && to < numNodes_);
    SCHED91_ASSERT(from != to, "self arc");
    levelListsValid_ = false;
    csrValid_ = false;

    // Duplicate detection: O(1) when one endpoint is the current arc
    // group's node, linear scan of the arc array otherwise.
    std::uint32_t existing = ~std::uint32_t{0};
    bool keyed = from == groupNode_ || to == groupNode_;
    std::uint32_t other = from == groupNode_ ? to : from;
    if (keyed) {
        if (dupStamp_[other] == epoch_)
            existing = dupArc_[other];
    } else {
        existing = findArc(from, to);
    }

    if (existing != ~std::uint32_t{0}) {
        Arc &arc = arcs_[existing];
        SCHED91_ASSERT(arc.from == from && arc.to == to);
        // Keep the maximum delay so no timing constraint is lost; a RAW
        // classification wins for reporting purposes.
        if (delay > arc.delay) {
            arc.delay = delay;
            arc.kind = kind;
            arc.res = res;
        } else if (kind == DepKind::RAW && arc.kind != DepKind::RAW &&
                   delay == arc.delay) {
            arc.kind = kind;
            arc.res = res;
        }
        ++duplicates_;
        return AddArcResult::Duplicate;
    }

    // Transitive-arc prevention (the Landskov-style behaviour).
    if (preventTransitive_) {
        bool reachable = reachMode_ == ReachMode::Descendants
                             ? reach_.row(from).test(to)
                             : reach_.row(to).test(from);
        if (reachable) {
            ++suppressed_;
            return AddArcResult::Suppressed;
        }
    }

    std::uint32_t id = static_cast<std::uint32_t>(arcs_.size());
    arcs_.push_back(Arc{from, to, kind, delay, res});
    ++numChildren_[from];
    ++numParents_[to];

    if (keyed) {
        dupStamp_[other] = epoch_;
        dupArc_[other] = id;
    }

    // 'a'-class heuristic bookkeeping (Table 1, legend "a").
    ann_.sumDelaysToChildren[from] += delay;
    ann_.maxDelayToChild[from] =
        std::max(ann_.maxDelayToChild[from], delay);
    ann_.sumDelaysFromParents[to] += delay;
    ann_.maxDelayFromParents[to] =
        std::max(ann_.maxDelayFromParents[to], delay);
    if (delay > 1)
        ann_.interlockWithChild[from] = 1;

    // Level maintenance.
    if (levelOrigin_ == LevelOrigin::Roots)
        level_[to] = std::max(level_[to], level_[from] + 1);
    else
        level_[from] = std::max(level_[from], level_[to] + 1);

    // Reachability maps: word-granular OR within the slab.
    if (reachMode_ == ReachMode::Descendants)
        reach_.orRows(from, to);
    else if (reachMode_ == ReachMode::Ancestors)
        reach_.orRows(to, from);

    return AddArcResult::Added;
}

namespace
{

/**
 * Offsets used as fill cursors end one slot early: entry i holds where
 * i + 1 starts.  Move entries [0, n) up one slot and restart at 0.
 */
void
shiftUpOne(std::uint32_t *off, std::uint32_t n)
{
    if (n == 0)
        return;
    std::copy_backward(off, off + (n - 1), off + n);
    off[0] = 0;
}

} // namespace

void
Dag::buildCsr() const
{
    const std::uint32_t n = numNodes_;
    const std::uint32_t e = static_cast<std::uint32_t>(arcs_.size());

    if (!succOff_ || e > csrArcs_) {
        // The offsets, the six 4-byte arc arrays, then the kinds.
        const std::size_t bytes =
            2 * (std::size_t{n} + 1) * sizeof(std::uint32_t) +
            std::size_t{e} * (6 * sizeof(std::uint32_t) + sizeof(DepKind));
        std::byte *const base = slab(bytes, csrHeap_);
        SlabCutter cut(base);
        succOff_ = cut.take<std::uint32_t>(n + 1);
        predOff_ = cut.take<std::uint32_t>(n + 1);
        succArc_ = cut.take<std::uint32_t>(e);
        predArc_ = cut.take<std::uint32_t>(e);
        succTo_ = cut.take<std::uint32_t>(e);
        predFrom_ = cut.take<std::uint32_t>(e);
        succDelay_ = cut.take<std::int32_t>(e);
        predDelay_ = cut.take<std::int32_t>(e);
        predKind_ = cut.take<DepKind>(e);
        SCHED91_ASSERT(cut.at() == base + bytes, "CSR slab layout");
        csrArcs_ = e;
    }

    std::fill_n(succOff_, n + 1, 0);
    std::fill_n(predOff_, n + 1, 0);
    for (const Arc &arc : arcs_) {
        ++succOff_[arc.from + 1];
        ++predOff_[arc.to + 1];
    }
    for (std::uint32_t i = 0; i < n; ++i) {
        succOff_[i + 1] += succOff_[i];
        predOff_[i + 1] += predOff_[i];
    }

    // Fill in ascending arc-id order: per-node lists come out in
    // insertion order, matching the old per-node push_back lists
    // exactly (schedule tie-breaking depends on this order).  Each
    // node's offset serves as its own fill cursor, so it ends at the
    // next node's start; shifting the offsets up one slot restores
    // them without a cursor array.
    for (std::uint32_t a = 0; a < e; ++a) {
        const Arc &arc = arcs_[a];
        std::uint32_t s = succOff_[arc.from]++;
        succArc_[s] = a;
        succTo_[s] = arc.to;
        succDelay_[s] = arc.delay;
        std::uint32_t p = predOff_[arc.to]++;
        predArc_[p] = a;
        predFrom_[p] = arc.from;
        predDelay_[p] = arc.delay;
        predKind_[p] = arc.kind;
    }
    shiftUpOne(succOff_, n);
    shiftUpOne(predOff_, n);
    csrValid_ = true;
}

void
Dag::recomputeLevels()
{
    levelListsValid_ = false;
    ensureCsr();
    std::fill(level_.begin(), level_.end(), 0);
    if (levelOrigin_ == LevelOrigin::Roots) {
        for (std::uint32_t i = 0; i < numNodes_; ++i) {
            int base = level_[i] + 1;
            for (std::uint32_t to : succTo(i))
                level_[to] = std::max(level_[to], base);
        }
    } else {
        for (std::uint32_t i = numNodes_; i-- > 0;) {
            int lvl = level_[i];
            for (std::uint32_t to : succTo(i))
                lvl = std::max(lvl, level_[to] + 1);
            level_[i] = lvl;
        }
    }
}

ArcIdxVec
Dag::roots() const
{
    ArcIdxVec out((ArenaAllocator<std::uint32_t>(arena_)));
    for (std::uint32_t i = 0; i < numNodes_; ++i)
        if (numParents_[i] == 0)
            out.push_back(i);
    return out;
}

ArcIdxVec
Dag::leaves() const
{
    ArcIdxVec out((ArenaAllocator<std::uint32_t>(arena_)));
    for (std::uint32_t i = 0; i < numNodes_; ++i)
        if (numChildren_[i] == 0)
            out.push_back(i);
    return out;
}

const LevelLists &
Dag::levelLists() const
{
    if (!levelListsValid_) {
        int max_level = 0;
        for (std::uint32_t i = 0; i < numNodes_; ++i)
            max_level = std::max(max_level, level_[i]);
        std::uint32_t levels =
            numNodes_ == 0 ? 0 : static_cast<std::uint32_t>(max_level) + 1;

        // Counting pass, then fill in ascending node order so each
        // level's span preserves the old push_back order.
        levelLists_.off_.assign(levels + 1, 0);
        for (std::uint32_t i = 0; i < numNodes_; ++i)
            ++levelLists_.off_[static_cast<std::uint32_t>(level_[i]) + 1];
        for (std::uint32_t l = 0; l < levels; ++l)
            levelLists_.off_[l + 1] += levelLists_.off_[l];
        // The offsets double as fill cursors, as in buildCsr().
        levelLists_.nodes_.resize(numNodes_);
        for (std::uint32_t i = 0; i < numNodes_; ++i)
            levelLists_.nodes_[levelLists_.off_[static_cast<std::uint32_t>(
                level_[i])]++] = i;
        shiftUpOne(levelLists_.off_.data(), levels);
        levelListsValid_ = true;
    }
    return levelLists_;
}

BitMatrix
Dag::computeDescendantMaps() const
{
    ensureCsr();
    BitMatrix desc(arena_);
    desc.reset(numNodes_, numNodes_);
    for (std::uint32_t i = numNodes_; i-- > 0;) {
        BitRow row = desc.row(i);
        row.set(i);
        for (std::uint32_t to : succTo(i))
            desc.orRows(i, to);
    }
    return desc;
}

std::size_t
Dag::countForestTrees() const
{
    // Union-find over undirected connectivity, on the worker's scratch
    // arena, which takes it back on return.  Not the DAG's arena: at
    // its peak, one more array can cost it a chunk of twice the size.
    Arena *arena = WorkerContext::currentScratchArena();
    ArenaScratch scratch(arena);
    ArenaVector<std::uint32_t> parent(numNodes_,
                                      ArenaAllocator<std::uint32_t>(arena));
    for (std::uint32_t i = 0; i < parent.size(); ++i)
        parent[i] = i;
    auto find = [&parent](std::uint32_t x) {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    };
    for (const Arc &arc : arcs_)
        parent[find(arc.from)] = find(arc.to);
    std::size_t trees = 0;
    for (std::uint32_t i = 0; i < parent.size(); ++i)
        if (find(i) == i)
            ++trees;
    return trees;
}

std::size_t
Dag::countTransitiveArcs() const
{
    BitMatrix desc = computeDescendantMaps();
    std::size_t count = 0;
    for (std::uint32_t i = 0; i < numNodes_; ++i) {
        std::span<const std::uint32_t> children = succTo(i);
        for (std::uint32_t b : children) {
            for (std::uint32_t c : children) {
                if (c != b && desc.row(c).test(b)) {
                    ++count;
                    break;
                }
            }
        }
    }
    return count;
}

} // namespace sched91
