#include "heuristics/static_passes.hh"

#include <algorithm>
#include <limits>

#include "obs/events.hh"
#include "support/logging.hh"

namespace sched91
{

namespace
{

/**
 * Visit nodes in topological order (parents before children) using the
 * selected mechanism.  Program order is always topological because
 * every builder adds arcs from earlier to later instructions.
 */
template <typename F>
void
forEachTopo(const Dag &dag, PassImpl impl, F &&fn)
{
    if (impl == PassImpl::ReverseWalk) {
        for (std::uint32_t i = 0; i < dag.size(); ++i)
            fn(i);
        return;
    }
    const LevelLists &lists = dag.levelLists();
    if (dag.levelOrigin() == Dag::LevelOrigin::Roots) {
        for (std::size_t l = 0; l < lists.size(); ++l)
            for (std::uint32_t n : lists[l])
                fn(n);
    } else {
        for (std::size_t l = lists.size(); l-- > 0;)
            for (std::uint32_t n : lists[l])
                fn(n);
    }
}

/** Visit nodes in reverse topological order (children first). */
template <typename F>
void
forEachReverseTopo(const Dag &dag, PassImpl impl, F &&fn)
{
    if (impl == PassImpl::ReverseWalk) {
        for (std::uint32_t i = dag.size(); i-- > 0;)
            fn(i);
        return;
    }
    const LevelLists &lists = dag.levelLists();
    if (dag.levelOrigin() == Dag::LevelOrigin::Roots) {
        for (std::size_t l = lists.size(); l-- > 0;)
            for (std::uint32_t n : lists[l])
                fn(n);
    } else {
        for (std::size_t l = 0; l < lists.size(); ++l)
            for (std::uint32_t n : lists[l])
                fn(n);
    }
}

} // namespace

void
runForwardPass(Dag &dag, PassImpl impl)
{
    obs::ev::heurForwardVisits.inc(dag.size());

    // Hoist the annotation columns: the pass streams over dense int
    // arrays, indexed only by the CSR predecessor slabs.
    NodeAnnotations &ann = dag.ann();
    int *max_path = ann.maxPathFromRoot.data();
    int *max_delay = ann.maxDelayFromRoot.data();
    int *est = ann.earliestStart.data();
    const int *exec = ann.execTime.data();

    forEachTopo(dag, impl, [&](std::uint32_t i) {
        std::span<const std::uint32_t> from = dag.predFrom(i);
        std::span<const std::int32_t> delay = dag.predDelay(i);
        int mp = 0;
        int md = 0;
        int start = 0;
        for (std::size_t k = 0; k < from.size(); ++k) {
            std::uint32_t p = from[k];
            mp = std::max(mp, max_path[p] + 1);
            md = std::max(md, max_delay[p] + delay[k]);
            start = std::max(start, est[p] + exec[p]);
        }
        max_path[i] = mp;
        max_delay[i] = md;
        est[i] = start;
    });
}

void
runBackwardPass(Dag &dag, PassImpl impl, bool compute_descendants)
{
    obs::ev::heurBackwardVisits.inc(dag.size());

    // Descendant maps: reuse the builder's when it maintained
    // descendant-mode maps (backward table building), else compute them
    // with one sweep.
    BitMatrix local_maps;
    bool use_local = false;
    if (compute_descendants && dag.reachMode() != ReachMode::Descendants) {
        obs::ev::heurDescendantSweeps.inc();
        local_maps = dag.computeDescendantMaps();
        use_local = true;
    }

    NodeAnnotations &ann = dag.ann();
    int *max_path = ann.maxPathToLeaf.data();
    int *max_delay = ann.maxDelayToLeaf.data();
    int *lst = ann.latestStart.data();
    const int *est = ann.earliestStart.data();
    const int *exec = ann.execTime.data();

    // Block finish time: the EST the paper's block-terminating dummy
    // node would receive (max over leaves of EST + latency).  LST of a
    // leaf is then finish - latency, i.e. dummy-node semantics without
    // materializing the dummy.
    int finish = 0;
    for (std::uint32_t i = 0; i < dag.size(); ++i)
        if (dag.numChildren(i) == 0)
            finish = std::max(finish, est[i] + exec[i]);

    forEachReverseTopo(dag, impl, [&](std::uint32_t i) {
        std::span<const std::uint32_t> to = dag.succTo(i);
        std::span<const std::int32_t> delay = dag.succDelay(i);
        int mp = 0;
        int md = 0;
        bool leaf = to.empty();
        int min_child_lst = std::numeric_limits<int>::max();
        for (std::size_t k = 0; k < to.size(); ++k) {
            std::uint32_t c = to[k];
            mp = std::max(mp, max_path[c] + 1);
            md = std::max(md, max_delay[c] + delay[k]);
            min_child_lst = std::min(min_child_lst, lst[c]);
        }
        max_path[i] = mp;
        max_delay[i] = md;
        // LST(leaf) derives from the dummy node's EST; otherwise min
        // over children minus own latency ([12]).
        lst[i] = leaf ? finish - exec[i] : min_child_lst - exec[i];

        if (compute_descendants) {
            ConstBitRow map =
                use_local ? local_maps.row(i) : dag.reachMap(i);
            ann.numDescendants[i] = static_cast<int>(map.count()) - 1;
            long long sum = 0;
            map.forEachSet([&](std::size_t bit) {
                if (bit != i)
                    sum += exec[bit];
            });
            ann.sumExecOfDescendants[i] = sum;
        }
    });
}

void
computeSlack(Dag &dag)
{
    obs::ev::heurSlackComputes.inc(dag.size());
    NodeAnnotations &ann = dag.ann();
    const int *lst = ann.latestStart.data();
    const int *est = ann.earliestStart.data();
    int *slack = ann.slack.data();
    for (std::uint32_t i = 0; i < dag.size(); ++i)
        slack[i] = lst[i] - est[i];
}

void
runAllStaticPasses(Dag &dag, PassImpl impl, bool compute_descendants)
{
    runForwardPass(dag, impl);
    runBackwardPass(dag, impl, compute_descendants);
    computeSlack(dag);
}

} // namespace sched91
