/**
 * @file
 * Per-block quality report tests.
 */

#include <gtest/gtest.h>

#include "ir/parser.hh"
#include "machine/presets.hh"
#include "obs/counters.hh"
#include "obs/events.hh"
#include "sched/report.hh"
#include "workload/generator.hh"
#include "workload/kernels.hh"

namespace sched91
{
namespace
{

TEST(Report, CoversEveryBlock)
{
    Program prog = kernelProgram("daxpy");
    PipelineOptions opts;
    opts.algorithm = AlgorithmKind::Krishnamurthy;
    ProgramReport report =
        reportProgram(prog, sparcstation2(), opts);
    Program copy = prog;
    EXPECT_EQ(report.blocks.size(), partitionBlocks(copy).size());

    long long orig = 0, sched = 0;
    for (const BlockReport &b : report.blocks) {
        orig += b.cyclesOriginal;
        sched += b.cyclesScheduled;
        EXPECT_GE(b.cyclesScheduled, b.criticalPath);
        EXPECT_GE(b.cyclesOriginal, b.criticalPath);
        EXPECT_GT(b.size, 0u);
    }
    EXPECT_EQ(orig, report.cyclesOriginal);
    EXPECT_EQ(sched, report.cyclesScheduled);
}

TEST(Report, CountsTheWindowFlushesOfItsOneRun)
{
    // The report reads the blocks its run cut, so under a window it
    // counts the flushes of one partition, as the run alone does.
    const Program prog = kernelProgram("livermore1");
    PipelineOptions opts;
    opts.partition.window = 4;
    opts.threads = 1;
    const auto flushes = [](const auto &run) {
        obs::CounterShard shard;
        {
            obs::ScopedCounterShard scope(shard);
            run();
        }
        return shard.value(obs::ev::dagWindowFlushes.id());
    };
    obs::setEnabled(true);
    const std::uint64_t run =
        flushes([&] { runPipeline(prog, sparcstation2(), opts); });
    const std::uint64_t report =
        flushes([&] { reportProgram(prog, sparcstation2(), opts); });
    obs::setEnabled(false);
    EXPECT_GT(run, 0u);
    EXPECT_EQ(report, run);
}

TEST(Report, WorstBlocksSortedByExcess)
{
    WorkloadProfile p = profileByName("lloops");
    p.numBlocks = 20;
    p.totalInsts = 400;
    p.maxBlock = 60;
    p.secondBlock = 0;
    Program prog = generateProgram(p);
    PipelineOptions opts;
    ProgramReport report =
        reportProgram(prog, sparcstation2(), opts);

    auto worst = report.worstBlocks(5);
    ASSERT_LE(worst.size(), 5u);
    for (std::size_t i = 1; i < worst.size(); ++i)
        EXPECT_GE(worst[i - 1].slackToBound(), worst[i].slackToBound());
}

TEST(Report, RenderContainsTotals)
{
    Program prog = kernelProgram("grep-scan");
    PipelineOptions opts;
    ProgramReport report =
        reportProgram(prog, sparcstation2(), opts);
    std::string text = report.render(3);
    EXPECT_NE(text.find("cycles"), std::string::npos);
    EXPECT_NE(text.find("excess"), std::string::npos);
}

TEST(Report, BudgetOverrunDegradesTheBlockToOriginalOrder)
{
    // A 600-instruction dependence chain ending in a branch, then the
    // delay slot's block.  No block builds within 1 ns: the pipeline
    // degrades each one instead of ending the report.
    std::string text = "big:\n";
    for (int i = 0; i < 600; ++i)
        text += "add %l" + std::to_string(i % 6) + ", 1, %l" +
                std::to_string((i + 1) % 6) + "\n";
    text += "cmp %l0, 400\nbl big\nnop\n";
    Program prog = parseAssembly(text);
    PipelineOptions opts;
    opts.maxBlockSeconds = 1e-9;
    ProgramReport report = reportProgram(prog, sparcstation2(), opts);

    Program copy = prog;
    ASSERT_EQ(report.blocks.size(), partitionBlocks(copy).size());
    const BlockReport &big = report.blocks[0];
    EXPECT_GE(big.size, 600u);
    EXPECT_EQ(big.cyclesScheduled, big.cyclesOriginal);
    EXPECT_EQ(big.stallsScheduled, big.stallsOriginal);

    // The report says so: block 0's budget issue, degraded.
    EXPECT_GE(report.run.blocksDegraded, 1u);
    ASSERT_FALSE(report.run.blockIssues.empty());
    const ProgramResult::BlockIssue &issue = report.run.blockIssues[0];
    EXPECT_EQ(issue.block, 0u);
    EXPECT_EQ(issue.stage, "budget");
    EXPECT_TRUE(issue.degraded);
}

} // namespace
} // namespace sched91
