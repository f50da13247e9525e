/**
 * @file
 * End-to-end pipeline tests: whole-program runs aggregate structural
 * statistics and phase timings; evaluate mode measures cycles; the
 * Section 6 three-pass structure works with every builder.
 */

#include <gtest/gtest.h>

#include "core/pipeline.hh"
#include "fuzz/program_gen.hh"
#include "ir/parser.hh"
#include "machine/presets.hh"
#include "obs/counters.hh"
#include "workload/generator.hh"
#include "workload/kernels.hh"

namespace sched91
{
namespace
{

Program
smallProgram()
{
    WorkloadProfile p = profileByName("linpack");
    p.numBlocks = 30;
    p.totalInsts = 600;
    p.maxBlock = 80;
    return generateProgram(p);
}

TEST(Pipeline, AggregatesOverAllBlocks)
{
    Program prog = smallProgram();
    PipelineOptions opts;
    ProgramResult r = runPipeline(prog, sparcstation2(), opts);
    EXPECT_EQ(r.numBlocks, 30u);
    EXPECT_EQ(r.numInsts, 600u);
    EXPECT_EQ(r.dagStats.totalBlocks, 30u);
    EXPECT_EQ(r.dagStats.totalNodes, 600u);
    EXPECT_GT(r.dagStats.totalArcs, 0u);
    EXPECT_GE(r.totalSeconds(), 0.0);
}

TEST(Pipeline, EvaluateReportsCycles)
{
    Program prog = smallProgram();
    PipelineOptions opts;
    opts.algorithm = AlgorithmKind::Krishnamurthy;
    opts.evaluate = true;
    ProgramResult r = runPipeline(prog, sparcstation2(), opts);
    EXPECT_GT(r.cyclesOriginal, 0);
    EXPECT_GT(r.cyclesScheduled, 0);
    // Timing-driven forward scheduling should help overall.
    EXPECT_LE(r.cyclesScheduled, r.cyclesOriginal);
}

TEST(Pipeline, AllBuildersProduceSameScheduleQualityClass)
{
    // The three main construction algorithms feed the same scheduler;
    // schedule quality must be essentially the same (Section 6 pairs
    // each builder with the same simple forward pass).
    Program prog = smallProgram();
    long long cycles[3];
    int i = 0;
    for (BuilderKind kind :
         {BuilderKind::N2Forward, BuilderKind::TableForward,
          BuilderKind::TableBackward}) {
        Program copy = prog;
        PipelineOptions opts;
        opts.builder = kind;
        opts.evaluate = true;
        ProgramResult r = runPipeline(copy, sparcstation2(), opts);
        cycles[i++] = r.cyclesScheduled;
    }
    // Identical transitive closures and timing -> within 5% of each
    // other (tie-breaking on extra n**2 arcs can differ slightly).
    EXPECT_NEAR(static_cast<double>(cycles[0]),
                static_cast<double>(cycles[1]),
                0.05 * cycles[0] + 4);
    EXPECT_NEAR(static_cast<double>(cycles[1]),
                static_cast<double>(cycles[2]),
                0.05 * cycles[1] + 4);
}

TEST(Pipeline, WindowedRunsCoverAllInstructions)
{
    Program prog = smallProgram();
    PipelineOptions opts;
    opts.partition.window = 16;
    ProgramResult r = runPipeline(prog, sparcstation2(), opts);
    EXPECT_EQ(r.numInsts, 600u);
    EXPECT_GT(r.numBlocks, 30u);
    EXPECT_LE(r.dagStats.childrenPerInst.max(), 16.0);
}

TEST(Pipeline, N2HasMoreArcsThanTableBuilders)
{
    Program prog = smallProgram();
    std::size_t arcs_n2 = 0, arcs_table = 0;
    {
        Program copy = prog;
        PipelineOptions opts;
        opts.builder = BuilderKind::N2Forward;
        arcs_n2 = runPipeline(copy, sparcstation2(), opts)
                      .dagStats.totalArcs;
    }
    {
        Program copy = prog;
        PipelineOptions opts;
        opts.builder = BuilderKind::TableForward;
        arcs_table = runPipeline(copy, sparcstation2(), opts)
                         .dagStats.totalArcs;
    }
    EXPECT_GT(arcs_n2, arcs_table);
}

TEST(Pipeline, ScheduleBlockMatchesPipelinePhases)
{
    Program prog = kernelProgram("daxpy");
    auto blocks = partitionBlocks(prog);
    PipelineOptions opts;
    opts.algorithm = AlgorithmKind::Warren;
    opts.builder = BuilderKind::N2Forward;
    auto result = scheduleBlock(BlockView(prog, blocks[0]),
                                sparcstation2(), opts);
    EXPECT_EQ(result.sched.order.size(), blocks[0].size());
    EXPECT_GT(result.sched.makespan, 0);
}

TEST(Pipeline, LandskovEvaluationUsesFreshGroundTruth)
{
    // Landskov DAGs drop timing, so evaluate mode must rebuild a
    // timing-complete ground truth rather than trusting them.
    Program prog = smallProgram();
    PipelineOptions opts;
    opts.builder = BuilderKind::N2Landskov;
    opts.evaluate = true;
    ProgramResult r = runPipeline(prog, sparcstation2(), opts);
    EXPECT_GT(r.cyclesOriginal, 0);
    EXPECT_GT(r.cyclesScheduled, 0);
}

TEST(Pipeline, RunReportOffChangesNothingElse)
{
    struct Setting
    {
        BuilderKind builder;
        int maxBlockInsts;
    };
    const Setting settings[] = {{BuilderKind::TableForward, 0},
                                {BuilderKind::TableBackward, 0},
                                {BuilderKind::N2Forward, 40}};

    // What one run leaves behind: its result, its schedules, and the
    // counts it folded into the caller's shard (a daemon lane's).
    struct Run
    {
        ProgramResult result;
        std::vector<Schedule> schedules;
        obs::CounterShard counted;
    };
    const auto run = [](const std::string &source, const Setting &set,
                        unsigned lanes, bool report) {
        Program prog = parseAssembly(source);
        Run out;
        PipelineOptions opts;
        opts.builder = set.builder;
        opts.maxBlockInsts = set.maxBlockInsts;
        opts.threads = lanes;
        opts.evaluate = true;
        opts.report = report;
        opts.schedules = &out.schedules;
        obs::ScopedCounterShard lane(out.counted);
        out.result = runPipeline(prog, sparcstation2(), opts);
        return out;
    };

    obs::setEnabled(true);
    for (std::uint64_t i = 0; i < 20; ++i) {
        fuzz::GenParams params;
        params.seed = 2601 + i;
        params.numBlocks = 1 + static_cast<int>(i % 8);
        params.maxBlockSize = 64;
        const std::string source = fuzz::generateSource(params);
        for (const Setting &set : settings) {
            for (unsigned lanes : {1u, 4u}) {
                SCOPED_TRACE(testing::Message()
                             << "program " << i << ", "
                             << builderKindName(set.builder) << ", "
                             << lanes << " lanes");
                const Run on = run(source, set, lanes, true);
                const Run off = run(source, set, lanes, false);
                const ProgramResult &a = on.result;
                const ProgramResult &b = off.result;

                ASSERT_EQ(a.numBlocks, b.numBlocks);
                ASSERT_EQ(on.schedules.size(), off.schedules.size());
                for (std::size_t k = 0; k < on.schedules.size(); ++k) {
                    EXPECT_EQ(on.schedules[k].order, off.schedules[k].order);
                    EXPECT_EQ(on.schedules[k].issueCycle,
                              off.schedules[k].issueCycle);
                    EXPECT_EQ(on.schedules[k].makespan,
                              off.schedules[k].makespan);
                }
                EXPECT_GT(a.cyclesOriginal, 0);
                EXPECT_EQ(a.cyclesOriginal, b.cyclesOriginal);
                EXPECT_EQ(a.cyclesScheduled, b.cyclesScheduled);
                EXPECT_EQ(a.blocksDegraded, b.blocksDegraded);
                EXPECT_EQ(a.builderFallbacks, b.builderFallbacks);
                EXPECT_EQ(a.verifierRejections, b.verifierRejections);
                ASSERT_EQ(a.blockIssues.size(), b.blockIssues.size());
                for (std::size_t k = 0; k < a.blockIssues.size(); ++k) {
                    EXPECT_EQ(a.blockIssues[k].block, b.blockIssues[k].block);
                    EXPECT_EQ(a.blockIssues[k].stage, b.blockIssues[k].stage);
                    EXPECT_EQ(a.blockIssues[k].reason,
                              b.blockIssues[k].reason);
                    EXPECT_EQ(a.blockIssues[k].degraded,
                              b.blockIssues[k].degraded);
                }
                EXPECT_EQ(a.dagStats.totalArcs, b.dagStats.totalArcs);
                EXPECT_EQ(a.dagStats.totalNodes, b.dagStats.totalNodes);
                EXPECT_EQ(a.dagStats.totalBlocks, b.dagStats.totalBlocks);
                EXPECT_FALSE(on.counted.empty());
                EXPECT_EQ(on.counted.named(), off.counted.named());

                // The report itself: present when asked for, else empty.
                EXPECT_FALSE(a.phaseTree.children.empty());
                EXPECT_FALSE(a.histograms.items().empty());
                EXPECT_FALSE(a.counters.empty());
                EXPECT_GT(a.dagStats.treesPerBlock.count(), 0u);
                EXPECT_EQ(a.dagStats.treesPerBlock.count(),
                          a.dagStats.totalBlocks);
                EXPECT_GT(a.memory.peakRssBytes, 0u);
                EXPECT_TRUE(b.phaseTree.children.empty());
                EXPECT_TRUE(b.histograms.items().empty());
                EXPECT_TRUE(b.counters.empty());
                EXPECT_EQ(b.dagStats.treesPerBlock.count(), 0u);
                EXPECT_EQ(b.memory.peakRssBytes, 0u);
            }
        }
    }
    obs::setEnabled(false);
}

} // namespace
} // namespace sched91
