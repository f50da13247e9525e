/**
 * @file
 * Scheduler tests: the generic list engine (forward and backward), the
 * six Table 2 algorithms, the postpass fixup, and the pipeline
 * simulator.  Core properties: every schedule is a valid topological
 * order, and scheduling never makes a block slower than original
 * order on the simulated machine (for the forward timing-driven
 * algorithms on stall-prone kernels, strictly faster).
 */

#include <gtest/gtest.h>

#include "core/pipeline.hh"
#include "dag/builder.hh"
#include "dag/table_forward.hh"
#include "heuristics/register_pressure.hh"
#include "heuristics/static_passes.hh"
#include "ir/basic_block.hh"
#include "ir/parser.hh"
#include "support/logging.hh"
#include "machine/presets.hh"
#include "sched/fixup.hh"
#include "sched/list_scheduler.hh"
#include "sched/pipeline_sim.hh"
#include "sched/registry.hh"
#include "workload/generator.hh"
#include "workload/kernels.hh"
#include "workload/profiles.hh"

namespace sched91
{
namespace
{

struct BlockCase
{
    Program prog;
    MachineModel machine = sparcstation2();
    std::vector<BasicBlock> blocks;

    explicit BlockCase(const std::string &kernel)
        : prog(kernelProgram(kernel))
    {
        blocks = partitionBlocks(prog);
    }

    BlockView view(std::size_t i = 0) { return BlockView(prog, blocks[i]); }
};

class AlgorithmTest : public ::testing::TestWithParam<AlgorithmKind>
{
};

TEST_P(AlgorithmTest, ProducesValidTopologicalOrder)
{
    for (const char *kernel :
         {"daxpy", "livermore1", "tomcatv", "grep-scan", "list-walk"}) {
        BlockCase c(kernel);
        for (std::size_t b = 0; b < c.blocks.size(); ++b) {
            PipelineOptions opts;
            opts.algorithm = GetParam();
            opts.builder = algorithmSpec(GetParam()).preferredBuilder;
            auto result = scheduleBlock(c.view(b), c.machine, opts);
            EXPECT_TRUE(isValidTopologicalOrder(result.dag,
                                                result.sched.order))
                << algorithmName(GetParam()) << " on " << kernel;
        }
    }
}

TEST_P(AlgorithmTest, NeverSlowerThanOriginalOrder)
{
    for (const char *kernel : {"daxpy", "livermore1", "tomcatv"}) {
        BlockCase c(kernel);
        PipelineOptions opts;
        opts.algorithm = GetParam();
        opts.builder = algorithmSpec(GetParam()).preferredBuilder;
        auto result = scheduleBlock(c.view(), c.machine, opts);

        // Ground truth for cycle measurement.
        Dag gt = TableForwardBuilder().build(c.view(), c.machine,
                                             BuildOptions{});
        int original =
            simulateSchedule(gt, originalOrderSchedule(gt).order,
                             c.machine)
                .cycles;
        int scheduled =
            simulateSchedule(gt, result.sched.order, c.machine).cycles;
        // List scheduling is heuristic; backward non-timing algorithms
        // may regress slightly, but never pathologically.
        EXPECT_LE(scheduled, original * 115 / 100 + 2)
            << algorithmName(GetParam()) << " on " << kernel;
    }
}

TEST_P(AlgorithmTest, BranchStaysLast)
{
    BlockCase c("daxpy");
    PipelineOptions opts;
    opts.algorithm = GetParam();
    opts.builder = algorithmSpec(GetParam()).preferredBuilder;
    auto result = scheduleBlock(c.view(), c.machine, opts);
    // daxpy's block 0 ends with its loop branch.
    EXPECT_EQ(result.sched.order.back(), c.view().size() - 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, AlgorithmTest,
    ::testing::ValuesIn(allAlgorithms()),
    [](const ::testing::TestParamInfo<AlgorithmKind> &info) {
        std::string name(algorithmName(info.param));
        for (char &ch : name)
            if (ch == '-')
                ch = '_';
        return name;
    });

TEST(ListScheduler, ForwardImprovesStallKernel)
{
    // daxpy's naive order stalls on every load-use pair; any
    // timing-aware forward scheduler must beat it.
    BlockCase c("daxpy");
    PipelineOptions opts;
    opts.algorithm = AlgorithmKind::Krishnamurthy;
    auto result = scheduleBlock(c.view(), c.machine, opts);

    Dag gt = TableForwardBuilder().build(c.view(), c.machine,
                                         BuildOptions{});
    int original = simulateSchedule(gt, originalOrderSchedule(gt).order,
                                    c.machine)
                       .cycles;
    int scheduled =
        simulateSchedule(gt, result.sched.order, c.machine).cycles;
    EXPECT_LT(scheduled, original);
}

TEST(ListScheduler, RespectsEarliestExecutionTime)
{
    BlockCase c("livermore1");
    PipelineOptions opts;
    opts.algorithm = AlgorithmKind::Krishnamurthy;
    auto result = scheduleBlock(c.view(), c.machine, opts);
    // Issue cycles must be weakly increasing and respect arc delays.
    for (std::size_t p = 1; p < result.sched.issueCycle.size(); ++p)
        EXPECT_GT(result.sched.issueCycle[p],
                  result.sched.issueCycle[p - 1]);
}

TEST(ListScheduler, BackwardCoversAllNodes)
{
    BlockCase c("tomcatv");
    PipelineOptions opts;
    opts.algorithm = AlgorithmKind::Tiemann;
    auto result = scheduleBlock(c.view(), c.machine, opts);
    EXPECT_EQ(result.sched.order.size(), c.view().size());
    EXPECT_TRUE(isValidTopologicalOrder(result.dag, result.sched.order));
}

TEST(ListScheduler, DeterministicAcrossRuns)
{
    for (AlgorithmKind kind : allAlgorithms()) {
        BlockCase c("livermore1");
        PipelineOptions opts;
        opts.algorithm = kind;
        auto a = scheduleBlock(c.view(), c.machine, opts);
        auto b = scheduleBlock(c.view(), c.machine, opts);
        EXPECT_EQ(a.sched.order, b.sched.order) << algorithmName(kind);
    }
}

TEST(Fixup, PreservesValidityAndNeverHurts)
{
    BlockCase c("tomcatv");
    Dag dag = TableForwardBuilder().build(c.view(), c.machine,
                                          BuildOptions{});
    runAllStaticPasses(dag);

    // A deliberately poor schedule: original order.
    Schedule sched = originalOrderSchedule(dag);
    int before = simulateSchedule(dag, sched.order, c.machine).cycles;
    applyPostpassFixup(dag, sched);
    EXPECT_TRUE(isValidTopologicalOrder(dag, sched.order));
    int after = simulateSchedule(dag, sched.order, c.machine).cycles;
    EXPECT_LE(after, before);
}

TEST(Fixup, FillsLoadDelaySlot)
{
    Program prog = parseAssembly(
        "ld [%o0], %g1\n"
        "add %g1, 1, %g2\n"   // stalls one cycle behind the load
        "add %g3, 1, %g4\n"); // independent filler
    auto blocks = partitionBlocks(prog);
    MachineModel machine = sparcstation2();
    Dag dag = TableForwardBuilder().build(BlockView(prog, blocks[0]),
                                          machine, BuildOptions{});
    Schedule sched = originalOrderSchedule(dag);
    int moved = applyPostpassFixup(dag, sched);
    EXPECT_EQ(moved, 1);
    EXPECT_EQ(sched.order, (std::vector<std::uint32_t>{0, 2, 1}));
}

/**
 * The timing of @p order as the scheduler once worked it out after
 * every pass: each node issued in sequence, no earlier than the cycle
 * after the previous issue, its inherited floor, or any parent's issue
 * plus the arc's delay.
 */
Schedule
referenceTiming(const Dag &dag, const std::vector<std::uint32_t> &order)
{
    Schedule sched;
    sched.order = order;
    std::vector<int> dep_ready(dag.size());
    for (std::uint32_t i = 0; i < dag.size(); ++i)
        dep_ready[i] = dag.ann().inheritedEet[i];
    sched.issueCycle.assign(order.size(), 0);
    int time = 0;
    for (std::size_t p = 0; p < order.size(); ++p) {
        const std::uint32_t n = order[p];
        const int issue = std::max(time, dep_ready[n]);
        sched.issueCycle[p] = issue;
        std::span<const std::uint32_t> to = dag.succTo(n);
        std::span<const std::int32_t> delay = dag.succDelay(n);
        for (std::size_t k = 0; k < to.size(); ++k)
            dep_ready[to[k]] = std::max(dep_ready[to[k]], issue + delay[k]);
        sched.makespan =
            std::max(sched.makespan, issue + dag.ann().execTime[n]);
        time = issue + 1;
    }
    return sched;
}

TEST(ListScheduler, IssueCyclesAreTheTimingOfTheOrder)
{
    // Every algorithm, forward and backward, as registered and with
    // the postpass fixup flipped; each block with no inherited floors
    // and with some.
    MachineModel machine = sparcstation2();
    std::vector<std::string> names;
    std::vector<ListScheduler> schedulers;
    for (AlgorithmKind kind : allAlgorithms())
        for (bool flip : {false, true}) {
            SchedulerConfig config = algorithmSpec(kind).config;
            config.postpassFixup ^= flip;
            names.push_back(config.name + (flip ? " (fixup flipped)" : ""));
            schedulers.emplace_back(config, machine);
        }
    BuildOptions bopts;
    bopts.memPolicy = AliasPolicy::SymbolicExpr;
    std::size_t blocks = 0;
    for (const WorkloadProfile &profile : allProfiles()) {
        Program prog = cachedProgram(profile.name);
        for (const BasicBlock &bb : partitionBlocks(prog)) {
            Dag dag = TableForwardBuilder().build(BlockView(prog, bb),
                                                  machine, bopts);
            runAllStaticPasses(dag, PassImpl::ReverseWalk, true);
            computeRegisterPressure(dag);
            ++blocks;
            for (bool floors : {false, true}) {
                for (std::uint32_t i = 0; floors && i < dag.size(); ++i)
                    dag.ann().inheritedEet[i] = static_cast<int>(i % 3) * 2;
                for (std::size_t k = 0; k < schedulers.size(); ++k) {
                    const Schedule got = schedulers[k].run(dag);
                    const Schedule want = referenceTiming(dag, got.order);
                    ASSERT_EQ(got.issueCycle, want.issueCycle)
                        << names[k] << " on " << profile.name
                        << " block @" << bb.begin
                        << (floors ? " with floors" : "");
                    ASSERT_EQ(got.makespan, want.makespan)
                        << names[k] << " on " << profile.name
                        << " block @" << bb.begin
                        << (floors ? " with floors" : "");
                }
            }
        }
    }
    EXPECT_EQ(blocks, 8889u);
}

TEST(PipelineSim, CountsLoadUseStall)
{
    Program prog = parseAssembly(
        "ld [%o0], %g1\n"
        "add %g1, 1, %g2\n");
    auto blocks = partitionBlocks(prog);
    MachineModel machine = sparcstation2();
    Dag dag = TableForwardBuilder().build(BlockView(prog, blocks[0]),
                                          machine, BuildOptions{});
    auto r = simulateSchedule(dag, {0, 1}, machine);
    // load at 0 (latency 2), add can issue at 2: one stall cycle.
    EXPECT_EQ(r.lastIssue, 2);
    EXPECT_EQ(r.stallCycles, 1);
    EXPECT_EQ(r.cycles, 3);
}

TEST(PipelineSim, StructuralHazardOnFpDivide)
{
    Program prog = parseAssembly(
        "fdivd %f0, %f2, %f4\n"
        "fdivd %f6, %f8, %f10\n"); // independent, same non-pipelined FU
    auto blocks = partitionBlocks(prog);
    MachineModel machine = sparcstation2();
    Dag dag = TableForwardBuilder().build(BlockView(prog, blocks[0]),
                                          machine, BuildOptions{});
    auto r = simulateSchedule(dag, {0, 1}, machine);
    EXPECT_GE(r.lastIssue, machine.latency(InstClass::FpDiv));
}

TEST(PipelineSim, SuperscalarPairsDifferentGroups)
{
    Program prog = parseAssembly(
        "add %g1, %g2, %g3\n"
        "fadds %f0, %f1, %f2\n"); // independent, different groups
    auto blocks = partitionBlocks(prog);
    MachineModel machine = superscalar2();
    Dag dag = TableForwardBuilder().build(BlockView(prog, blocks[0]),
                                          machine, BuildOptions{});
    auto r = simulateSchedule(dag, {0, 1}, machine);
    EXPECT_EQ(r.lastIssue, 0); // dual-issued in cycle 0
}

TEST(PipelineSim, SuperscalarSerializesSameGroup)
{
    Program prog = parseAssembly(
        "add %g1, %g2, %g3\n"
        "add %g4, %g5, %g6\n");
    auto blocks = partitionBlocks(prog);
    MachineModel machine = superscalar2();
    Dag dag = TableForwardBuilder().build(BlockView(prog, blocks[0]),
                                          machine, BuildOptions{});
    auto r = simulateSchedule(dag, {0, 1}, machine);
    EXPECT_EQ(r.lastIssue, 1); // same issue group: one per cycle
}

TEST(PipelineSim, RejectsInvalidOrder)
{
    Program prog = parseAssembly(
        "ld [%o0], %g1\n"
        "add %g1, 1, %g2\n");
    auto blocks = partitionBlocks(prog);
    MachineModel machine = sparcstation2();
    Dag dag = TableForwardBuilder().build(BlockView(prog, blocks[0]),
                                          machine, BuildOptions{});
    EXPECT_THROW(simulateSchedule(dag, {1, 0}, machine), PanicError);
}

TEST(Schedule, ValidityChecker)
{
    Program prog = parseAssembly(
        "ld [%o0], %g1\n"
        "add %g1, 1, %g2\n");
    auto blocks = partitionBlocks(prog);
    Dag dag = TableForwardBuilder().build(BlockView(prog, blocks[0]),
                                          sparcstation2(), BuildOptions{});
    EXPECT_TRUE(isValidTopologicalOrder(dag, {0, 1}));
    EXPECT_FALSE(isValidTopologicalOrder(dag, {1, 0}));
    EXPECT_FALSE(isValidTopologicalOrder(dag, {0, 0}));
    EXPECT_FALSE(isValidTopologicalOrder(dag, {0}));
}

TEST(Registry, SixPublishedAlgorithms)
{
    EXPECT_EQ(publishedAlgorithms().size(), 6u);
    for (AlgorithmKind kind : publishedAlgorithms()) {
        AlgorithmSpec spec = algorithmSpec(kind);
        EXPECT_FALSE(spec.config.ranking.empty()) << algorithmName(kind);
        EXPECT_NE(spec.citation, nullptr);
    }
}

TEST(Registry, Table2PassDirections)
{
    EXPECT_TRUE(algorithmSpec(AlgorithmKind::GibbonsMuchnick)
                    .config.forward);
    EXPECT_TRUE(algorithmSpec(AlgorithmKind::Krishnamurthy)
                    .config.forward);
    EXPECT_FALSE(algorithmSpec(AlgorithmKind::Schlansker).config.forward);
    EXPECT_FALSE(algorithmSpec(AlgorithmKind::Tiemann).config.forward);
    EXPECT_TRUE(algorithmSpec(AlgorithmKind::Warren).config.forward);
    EXPECT_TRUE(
        algorithmSpec(AlgorithmKind::Krishnamurthy).config.postpassFixup);
    EXPECT_TRUE(algorithmSpec(AlgorithmKind::Tiemann).config.birthing);
}

TEST(Registry, SchlanskerNeedsBothPasses)
{
    // Section 5: "the requirement is unavoidable in Schlansker".
    auto spec = algorithmSpec(AlgorithmKind::Schlansker);
    EXPECT_TRUE(spec.config.needsForwardPass);
    EXPECT_TRUE(spec.config.needsBackwardPass);
}

} // namespace
} // namespace sched91
