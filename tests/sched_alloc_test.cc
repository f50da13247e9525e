/**
 * @file
 * Allocation budget of the scheduling pass.  Under a one-lane
 * runPipeline, the lane's WorkerContext keeps every scheduler scratch
 * buffer across blocks: the scan's lists, the heaps and their keys,
 * and the postpass fixup's arrays.  So Krishnamurthy's algorithm
 * (keyed heaps, function-unit state, postpass fixup) may allocate at
 * most once more per block than simple-forward (one all-static heap):
 * for the function-unit state's single buffer.  And turning the
 * observability layer on may cost at most one more per block: phases
 * count into lane storage, so only per-run outputs allocate.  With it
 * off, a block allocates only its Schedule's two arrays: the DAG's
 * slabs live in the lane's arena, and the register table, the
 * verifier's positions and the block's slot stay with the lane.
 *
 * Its own executable: it replaces the global operator new.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "core/pipeline.hh"
#include "dag/builder.hh"
#include "dag/dag_stats.hh"
#include "ir/basic_block.hh"
#include "ir/parser.hh"
#include "machine/presets.hh"
#include "obs/counters.hh"
#include "support/string_util.hh"
#include "support/worker_context.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace
{

std::atomic<bool> counting{false};
std::atomic<std::size_t> allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

// Out of line, so the compiler never pairs an inlined free() with a
// call to operator new (GCC's -Wmismatched-new-delete).
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace sched91
{
namespace
{

/** Allocations per block of a one-lane run of @p prog, with the
 * observability layer on when @p observe. */
double
allocationsPerBlock(Program &prog, AlgorithmKind algorithm,
                    bool observe = false,
                    BuilderKind builder = BuilderKind::TableForward)
{
    PipelineOptions opts;
    opts.algorithm = algorithm;
    opts.builder = builder;
    opts.build.memPolicy = AliasPolicy::SymbolicExpr;
    opts.threads = 1;
    obs::setEnabled(observe);
    runPipeline(prog, sparcstation2(), opts); // first-use statics
    allocations = 0;
    counting = true;
    ProgramResult r = runPipeline(prog, sparcstation2(), opts);
    counting = false;
    obs::setEnabled(false);
    EXPECT_GT(r.numBlocks, 0u);
    return static_cast<double>(allocations) /
           static_cast<double>(r.numBlocks);
}

TEST(SchedAllocations, KrishnamurthyAtMostOneMorePerBlockThanSimpleForward)
{
    for (const WorkloadProfile &profile : allProfiles()) {
        Program prog = generateProgram(profile);
        const double simple =
            allocationsPerBlock(prog, AlgorithmKind::SimpleForward);
        const double krishnamurthy =
            allocationsPerBlock(prog, AlgorithmKind::Krishnamurthy);
        std::printf("%-8s simple-forward %.2f, krishnamurthy %.2f "
                    "allocations per block\n",
                    profile.name.c_str(), simple, krishnamurthy);
        EXPECT_LE(krishnamurthy - simple, 1.0) << profile.name;
    }
}

TEST(SchedAllocations, ObservabilityAtMostOneMorePerBlock)
{
    for (const WorkloadProfile &profile : allProfiles()) {
        Program prog = generateProgram(profile);
        const double off =
            allocationsPerBlock(prog, AlgorithmKind::SimpleForward);
        const double on =
            allocationsPerBlock(prog, AlgorithmKind::SimpleForward, true);
        std::printf("%-8s observability off %.2f, on %.2f allocations "
                    "per block\n",
                    profile.name.c_str(), off, on);
        EXPECT_LE(on - off, 1.0) << profile.name;
    }
}

TEST(SchedAllocations, RunPipelineAllocatesOnlyTheSchedulePerBlock)
{
    // 16,384 one-instruction blocks: a label before every instruction
    // that does not end a block, taken from the Table 3 profiles in
    // turn.  What is left per block is its Schedule's order and issue
    // cycles.
    constexpr std::size_t kBlocks = 16384;
    std::string text;
    std::size_t labels = 0;
    while (labels < kBlocks) {
        for (const WorkloadProfile &profile : allProfiles()) {
            const Program src = generateProgram(profile);
            for (const Instruction &inst : src.insts()) {
                if (labels == kBlocks)
                    break;
                if (inst.endsBlock())
                    continue;
                text += numbered("L", labels++);
                text += ":\n    ";
                text += inst.toString();
                text += '\n';
            }
        }
    }
    Program prog = parseAssembly(text);
    ASSERT_EQ(partitionBlocks(prog).size(), kBlocks);
    for (BuilderKind builder :
         {BuilderKind::TableForward, BuilderKind::TableBackward,
          BuilderKind::N2Forward}) {
        for (AlgorithmKind algorithm :
             {AlgorithmKind::SimpleForward, AlgorithmKind::Krishnamurthy}) {
            const double per_block =
                allocationsPerBlock(prog, algorithm, false, builder);
            std::printf("%-9s %-14s %.3f allocations per block\n",
                        std::string(builderKindName(builder)).c_str(),
                        std::string(algorithmSpec(algorithm).config.name)
                            .c_str(),
                        per_block);
            EXPECT_LE(per_block, 2.01) << builderKindName(builder);
        }
    }
}

TEST(SchedAllocations, DagLayerAllocatesNothingPerBlockAfterWarmUp)
{
    // Table building under SymbolicExpr (the memory table), CSR
    // adjacency, level lists and the forest count all draw on the
    // worker's arenas, so once they have grown to a profile's largest
    // block, its blocks allocate nothing.
    const MachineModel machine = sparcstation2();
    BuildOptions opts;
    opts.memPolicy = AliasPolicy::SymbolicExpr;
    WorkerContext ctx;
    WorkerContext::Scope scope(ctx);
    for (BuilderKind kind :
         {BuilderKind::TableForward, BuilderKind::TableBackward}) {
        std::unique_ptr<DagBuilder> builder = makeBuilder(kind);
        for (const WorkloadProfile &profile : allProfiles()) {
            Program prog = generateProgram(profile);
            const std::vector<BasicBlock> blocks = partitionBlocks(prog);
            DagStructure structure;
            std::size_t levels = 0;
            auto pass = [&] {
                for (const BasicBlock &bb : blocks) {
                    ctx.beginBlock();
                    Dag dag =
                        builder->build(BlockView(prog, bb), machine, opts);
                    dag.preds(dag.size() - 1); // finalizes the CSR
                    levels += dag.levelLists().size();
                    structure.accumulate(dag);
                }
            };
            pass();
            allocations = 0;
            counting = true;
            pass();
            counting = false;
            EXPECT_EQ(structure.totalBlocks, 2 * blocks.size());
            EXPECT_GE(levels, structure.totalBlocks);
            std::printf("%-8s %s: %zu allocations over %zu blocks\n",
                        profile.name.c_str(),
                        std::string(builderKindName(kind)).c_str(),
                        allocations.load(), blocks.size());
            EXPECT_EQ(allocations.load(), 0u)
                << profile.name << ", " << builderKindName(kind);
        }
    }
}

} // namespace
} // namespace sched91
