/**
 * @file
 * Layout-equivalence suite for the data-oriented DAG core.
 *
 * The CSR arc slabs, SoA annotation arrays, and BitMatrix reach maps
 * replaced a per-node AoS representation (linked adjacency vectors
 * inside a node struct) whose behaviour the schedulers depend on down
 * to iteration order.  This suite pins that contract over a seeded
 * program sweep, for every builder:
 *
 *  - CSR succ/pred spans enumerate arc ids in exactly the order the
 *    old per-node push_back produced (ascending arc id), and the
 *    companion to/delay/kind slabs mirror the Arc records;
 *  - degree counters, roots/leaves, level lists, numArcs, and the
 *    duplicate/suppressed tallies match a reference recomputation
 *    from the flat arc list;
 *  - reach maps match a brute-force transitive closure, and the
 *    descendant aggregates match popcounts over that closure;
 *  - all Table 1 heuristic values are identical whether the DAG was
 *    built single-threaded on the heap or inside a worker-context
 *    arena on a thread pool (the pipeline's N-thread configuration).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "dag/builder.hh"
#include "heuristics/heuristic.hh"
#include "heuristics/register_pressure.hh"
#include "heuristics/static_passes.hh"
#include "machine/presets.hh"
#include "support/thread_pool.hh"
#include "support/worker_context.hh"
#include "workload/generator.hh"

namespace sched91
{
namespace
{

WorkloadProfile
layoutProfile(std::uint64_t seed, bool fp)
{
    WorkloadProfile p = profileByName(fp ? "lloops" : "dfa");
    p.seed = seed;
    p.numBlocks = 10;
    p.totalInsts = 220;
    p.maxBlock = 44;
    p.secondBlock = 0;
    return p;
}

/** The old AoS adjacency, rebuilt from the flat arc list: addArc did
 * one push_back per endpoint, so per-node lists hold arc ids in
 * ascending order. */
struct RefAdjacency
{
    std::vector<std::vector<std::uint32_t>> succ;
    std::vector<std::vector<std::uint32_t>> pred;

    explicit RefAdjacency(const Dag &dag)
        : succ(dag.size()), pred(dag.size())
    {
        std::span<const Arc> arcs = dag.arcs();
        for (std::uint32_t a = 0; a < arcs.size(); ++a) {
            succ[arcs[a].from].push_back(a);
            pred[arcs[a].to].push_back(a);
        }
    }
};

std::vector<std::uint32_t>
vec(std::span<const std::uint32_t> s)
{
    return {s.begin(), s.end()};
}

/** Brute-force descendant closure (self included, matching the
 * maintained reach maps). */
std::vector<std::vector<bool>>
bruteDescendants(const Dag &dag, const RefAdjacency &ref)
{
    const std::uint32_t n = dag.size();
    std::vector<std::vector<bool>> desc(n, std::vector<bool>(n, false));
    for (std::uint32_t i = n; i-- > 0;) {
        desc[i][i] = true;
        for (std::uint32_t a : ref.succ[i]) {
            std::uint32_t c = dag.arc(a).to;
            for (std::uint32_t j = 0; j < n; ++j)
                if (desc[c][j])
                    desc[i][j] = true;
        }
    }
    return desc;
}

void
checkCsrAgainstReference(const Dag &dag)
{
    RefAdjacency ref(dag);
    ASSERT_EQ(dag.numArcs(), dag.arcs().size());

    for (std::uint32_t i = 0; i < dag.size(); ++i) {
        // Iteration order: ascending arc id, exactly the old per-node
        // insertion order.
        ASSERT_EQ(vec(dag.succs(i)), ref.succ[i]) << "node " << i;
        ASSERT_EQ(vec(dag.preds(i)), ref.pred[i]) << "node " << i;

        // Degrees count unique arcs.
        EXPECT_EQ(static_cast<std::size_t>(dag.numChildren(i)),
                  ref.succ[i].size());
        EXPECT_EQ(static_cast<std::size_t>(dag.numParents(i)),
                  ref.pred[i].size());

        // Companion slabs mirror the Arc records.
        std::span<const std::uint32_t> sto = dag.succTo(i);
        std::span<const std::int32_t> sdel = dag.succDelay(i);
        ASSERT_EQ(sto.size(), ref.succ[i].size());
        for (std::size_t k = 0; k < sto.size(); ++k) {
            const Arc &arc = dag.arc(ref.succ[i][k]);
            EXPECT_EQ(arc.from, i);
            EXPECT_EQ(sto[k], arc.to);
            EXPECT_EQ(sdel[k], arc.delay);
        }
        std::span<const std::uint32_t> pfrom = dag.predFrom(i);
        std::span<const std::int32_t> pdel = dag.predDelay(i);
        std::span<const DepKind> pkind = dag.predKind(i);
        ASSERT_EQ(pfrom.size(), ref.pred[i].size());
        for (std::size_t k = 0; k < pfrom.size(); ++k) {
            const Arc &arc = dag.arc(ref.pred[i][k]);
            EXPECT_EQ(arc.to, i);
            EXPECT_EQ(pfrom[k], arc.from);
            EXPECT_EQ(pdel[k], arc.delay);
            EXPECT_EQ(pkind[k], arc.kind);
        }
    }

    // Roots/leaves are the zero-degree nodes in ascending id order.
    std::vector<std::uint32_t> want_roots, want_leaves;
    for (std::uint32_t i = 0; i < dag.size(); ++i) {
        if (ref.pred[i].empty())
            want_roots.push_back(i);
        if (ref.succ[i].empty())
            want_leaves.push_back(i);
    }
    ArcIdxVec roots = dag.roots();
    ArcIdxVec leaves = dag.leaves();
    EXPECT_EQ(std::vector<std::uint32_t>(roots.begin(), roots.end()),
              want_roots);
    EXPECT_EQ(std::vector<std::uint32_t>(leaves.begin(), leaves.end()),
              want_leaves);

    // Level lists bucket nodes by level, ascending id within a level.
    const LevelLists &lists = dag.levelLists();
    std::vector<std::vector<std::uint32_t>> want_lists;
    for (std::uint32_t i = 0; i < dag.size(); ++i) {
        std::size_t l = static_cast<std::size_t>(dag.level(i));
        if (want_lists.size() <= l)
            want_lists.resize(l + 1);
        want_lists[l].push_back(i);
    }
    ASSERT_EQ(lists.size(), want_lists.size());
    for (std::size_t l = 0; l < want_lists.size(); ++l)
        EXPECT_EQ(vec(lists[l]), want_lists[l]) << "level " << l;
}

void
checkAnnotationsAgainstReference(const Dag &dag)
{
    // The phi sums/maxima accumulate the delay *at insertion time*; a
    // later duplicate that raises the stored arc delay deliberately
    // does not retro-adjust them (addArc contract, pinned by
    // Dag.DuplicateKeepsMaxDelay).  On a duplicate-free DAG the
    // recomputation from final arcs is exact; with duplicates the
    // final delays (pairwise maxima of inserted delays) bound the
    // accumulated values from above.
    const bool exact = dag.duplicateCount() == 0;
    RefAdjacency ref(dag);
    const NodeAnnotations &a = dag.ann();
    for (std::uint32_t i = 0; i < dag.size(); ++i) {
        int sum_to = 0, max_to = 0, sum_from = 0, max_from = 0;
        bool interlock = false;
        for (std::uint32_t id : ref.succ[i]) {
            sum_to += dag.arc(id).delay;
            max_to = std::max(max_to, dag.arc(id).delay);
            interlock = interlock || dag.arc(id).delay > 1;
        }
        for (std::uint32_t id : ref.pred[i]) {
            sum_from += dag.arc(id).delay;
            max_from = std::max(max_from, dag.arc(id).delay);
        }
        if (exact) {
            EXPECT_EQ(a.sumDelaysToChildren[i], sum_to) << "node " << i;
            EXPECT_EQ(a.maxDelayToChild[i], max_to) << "node " << i;
            EXPECT_EQ(a.sumDelaysFromParents[i], sum_from)
                << "node " << i;
            EXPECT_EQ(a.maxDelayFromParents[i], max_from)
                << "node " << i;
            EXPECT_EQ(a.interlockWithChild[i] != 0, interlock)
                << "node " << i;
        } else {
            EXPECT_LE(a.sumDelaysToChildren[i], sum_to) << "node " << i;
            EXPECT_LE(a.maxDelayToChild[i], max_to) << "node " << i;
            EXPECT_LE(a.sumDelaysFromParents[i], sum_from)
                << "node " << i;
            EXPECT_LE(a.maxDelayFromParents[i], max_from)
                << "node " << i;
            // Interlock implies some inserted delay > 1, and final
            // delays are maxima of inserted ones.
            if (a.interlockWithChild[i]) {
                EXPECT_GT(max_to, 1) << "node " << i;
            }
            if (max_to <= 1) {
                EXPECT_FALSE(a.interlockWithChild[i]) << "node " << i;
            }
        }
    }
}

void
checkReachAgainstReference(const Dag &dag)
{
    RefAdjacency ref(dag);
    auto want = bruteDescendants(dag, ref);
    BitMatrix maps = dag.computeDescendantMaps();
    const NodeAnnotations &a = dag.ann();
    for (std::uint32_t i = 0; i < dag.size(); ++i) {
        std::size_t count = 0;
        long long exec_sum = 0;
        for (std::uint32_t j = 0; j < dag.size(); ++j) {
            EXPECT_EQ(maps.row(i).test(j), static_cast<bool>(want[i][j]))
                << i << " -> " << j;
            if (want[i][j]) {
                ++count;
                if (j != i)
                    exec_sum += a.execTime[j];
            }
        }
        EXPECT_EQ(maps.row(i).count(), count);
        // The backward pass fills the descendant aggregates by
        // popcount / iteration over exactly these rows.
        EXPECT_EQ(a.numDescendants[i], static_cast<int>(count) - 1);
        EXPECT_EQ(a.sumExecOfDescendants[i], exec_sum);
    }
}

/** Everything the schedulers can observe about one block's DAG. */
struct LayoutSnapshot
{
    std::vector<Arc> arcs;
    std::vector<std::vector<std::uint32_t>> succ;
    std::size_t duplicates = 0;
    std::size_t suppressed = 0;
    std::vector<std::vector<long long>> heur; ///< [node][heuristic]

    bool
    operator==(const LayoutSnapshot &o) const
    {
        if (succ != o.succ || duplicates != o.duplicates ||
            suppressed != o.suppressed || heur != o.heur ||
            arcs.size() != o.arcs.size())
            return false;
        for (std::size_t i = 0; i < arcs.size(); ++i)
            if (arcs[i].from != o.arcs[i].from ||
                arcs[i].to != o.arcs[i].to ||
                arcs[i].kind != o.arcs[i].kind ||
                arcs[i].delay != o.arcs[i].delay)
                return false;
        return true;
    }
};

LayoutSnapshot
snapshot(const Dag &dag)
{
    LayoutSnapshot s;
    s.arcs.assign(dag.arcs().begin(), dag.arcs().end());
    s.duplicates = dag.duplicateCount();
    s.suppressed = dag.suppressedCount();
    s.succ.resize(dag.size());
    s.heur.resize(dag.size());
    for (std::uint32_t i = 0; i < dag.size(); ++i) {
        s.succ[i] = vec(dag.succs(i));
        for (const HeuristicInfo &info : allHeuristics()) {
            s.heur[i].push_back(staticValue(dag, i, info.heuristic));
            s.heur[i].push_back(staticValueMax(dag, i, info.heuristic));
        }
    }
    return s;
}

struct BlockCase
{
    Program *prog;
    BasicBlock bb;
};

class LayoutSweep
    : public ::testing::TestWithParam<std::tuple<BuilderKind, bool>>
{
};

TEST_P(LayoutSweep, CsrAndAnnotationsMatchReference)
{
    auto [kind, fp] = GetParam();
    MachineModel machine = sparcstation2();
    for (std::uint64_t seed : {1u, 7u, 23u, 91u}) {
        Program prog = generateProgram(layoutProfile(seed, fp));
        auto blocks = partitionBlocks(prog);
        for (const auto &bb : blocks) {
            BlockView block(prog, bb);
            if (block.size() == 0)
                continue;
            Dag dag =
                makeBuilder(kind)->build(block, machine, BuildOptions{});
            runAllStaticPasses(dag, PassImpl::ReverseWalk, true);
            computeRegisterPressure(dag);
            checkCsrAgainstReference(dag);
            checkAnnotationsAgainstReference(dag);
            checkReachAgainstReference(dag);
        }
    }
}

TEST_P(LayoutSweep, HeapAndPooledArenaBuildsAgree)
{
    auto [kind, fp] = GetParam();
    MachineModel machine = sparcstation2();
    Program prog = generateProgram(layoutProfile(1991, fp));
    auto blocks = partitionBlocks(prog);

    // Reference pass: single thread, no worker context, plain heap.
    std::vector<LayoutSnapshot> want(blocks.size());
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        BlockView block(prog, blocks[b]);
        if (block.size() == 0)
            continue;
        Dag dag =
            makeBuilder(kind)->build(block, machine, BuildOptions{});
        runAllStaticPasses(dag, PassImpl::ReverseWalk, true);
        computeRegisterPressure(dag);
        want[b] = snapshot(dag);
    }

    // Same blocks through the pipeline's N-thread configuration:
    // worker contexts with block-recycled arenas on a thread pool.
    const unsigned threads = 4;
    std::vector<WorkerContext> ctxs(threads);
    std::vector<LayoutSnapshot> got(blocks.size());
    ThreadPool pool(threads);
    pool.parallelFor(
        blocks.size(), 1,
        [&](unsigned w, std::size_t begin, std::size_t end) {
            WorkerContext::Scope scope(ctxs[w]);
            for (std::size_t b = begin; b < end; ++b) {
                ctxs[w].beginBlock();
                BlockView block(prog, blocks[b]);
                if (block.size() == 0)
                    continue;
                Dag dag = makeBuilder(kind)->build(block, machine,
                                                   BuildOptions{});
                runAllStaticPasses(dag, PassImpl::ReverseWalk, true);
                computeRegisterPressure(dag);
                got[b] = snapshot(dag);
                // The snapshot deep-copies out of the arena before
                // beginBlock() recycles it.
            }
        });

    for (std::size_t b = 0; b < blocks.size(); ++b)
        EXPECT_TRUE(want[b] == got[b]) << "block " << b;
}

INSTANTIATE_TEST_SUITE_P(
    AllBuilders, LayoutSweep,
    ::testing::Combine(::testing::ValuesIn(allBuilderKinds()),
                       ::testing::Bool()),
    [](const auto &info) {
        std::string name(builderKindName(std::get<0>(info.param)));
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name + (std::get<1>(info.param) ? "_fp" : "_int");
    });

} // namespace
} // namespace sched91
