/**
 * @file
 * Cooperative cancellation tests (support/cancellation.hh).
 *
 * The property that distinguishes this layer from PR 3's
 * phase-boundary budget checks: a block that exceeds its budget is
 * abandoned *mid-loop* — inside the n**2 builder's pairwise scan or
 * the list scheduler's extraction loop — and degrades per the
 * containment semantics in both runPipeline and compileProgram.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/backend.hh"
#include "core/pipeline.hh"
#include "obs/counters.hh"
#include "dag/n2_forward.hh"
#include "ir/basic_block.hh"
#include "ir/parser.hh"
#include "machine/machine_model.hh"
#include "sched/list_scheduler.hh"
#include "sched/registry.hh"
#include "support/cancellation.hh"

namespace sched91
{
namespace
{

/** A straight-line block big enough that the n**2 pairwise scan and
 * the scheduler loop each poll the token well past its stride. */
std::string
bigBlockSource(int n)
{
    std::string src = "top:\n";
    for (int i = 0; i < n; ++i)
        src += "    add %g1, %g2, %g3\n";
    return src;
}

// --- Token unit behaviour ------------------------------------------

TEST(CancellationToken, DefaultTokenNeverCancels)
{
    CancellationToken token;
    EXPECT_FALSE(token.cancelled());
    for (int i = 0; i < 10000; ++i)
        EXPECT_NO_THROW(token.poll());
}

TEST(CancellationToken, ManualCancelMakesPollThrow)
{
    CancellationToken token;
    token.setReason("test cancel");
    token.requestCancel();
    EXPECT_TRUE(token.cancelled());
    try {
        token.poll();
        FAIL() << "poll() did not throw";
    } catch (const CancelledError &e) {
        EXPECT_NE(std::string(e.what()).find("test cancel"),
                  std::string::npos);
    }
}

TEST(CancellationToken, ExpiredDeadlineFiresWithinOnePollStride)
{
    CancellationToken token(0.0); // deadline already in the past
    EXPECT_TRUE(token.cancelled());
    // poll() amortizes the clock read, so the throw may take up to
    // one stride of calls — but no more.
    EXPECT_THROW(
        {
            for (int i = 0; i < 1000; ++i)
                token.poll();
        },
        CancelledError);
}

TEST(CancellationToken, CancelledErrorIsNotAFatalOrPanicError)
{
    // The containment ladder routes budget outcomes separately from
    // faults; a CancelledError must not be caught by handlers for
    // either.
    CancellationToken token;
    token.requestCancel();
    bool caught = false;
    try {
        token.poll();
    } catch (const std::runtime_error &) {
        caught = true;
    }
    EXPECT_TRUE(caught);
}

// --- Mid-loop cancellation in the builder and scheduler ------------

TEST(Cancellation, N2BuildAbortsMidLoopOnCancelledToken)
{
    Program prog = parseAssembly(bigBlockSource(8));
    stampMemGenerations(prog);
    auto blocks = partitionBlocks(prog);
    ASSERT_EQ(blocks.size(), 1u);
    BlockView block(prog, blocks[0]);
    MachineModel machine;

    CancellationToken token;
    token.requestCancel();
    BuildOptions opts;
    opts.cancel = &token;
    EXPECT_THROW(N2ForwardBuilder().build(block, machine, opts),
                 CancelledError);
}

TEST(Cancellation, ListSchedulerAbortsOnCancelledToken)
{
    Program prog = parseAssembly(bigBlockSource(8));
    stampMemGenerations(prog);
    auto blocks = partitionBlocks(prog);
    BlockView block(prog, blocks[0]);
    MachineModel machine;
    Dag dag = N2ForwardBuilder().build(block, machine);
    runAllStaticPasses(dag, PassImpl::ReverseWalk, true);

    CancellationToken token;
    token.requestCancel();
    ListScheduler scheduler(
        algorithmSpec(AlgorithmKind::SimpleForward).config, machine);
    EXPECT_THROW(scheduler.run(dag, nullptr, &token), CancelledError);
}

// --- Pipeline-level budget degradation -----------------------------

TEST(Cancellation, PipelineBudgetCancelsBlockAndDegrades)
{
    Program prog = parseAssembly(bigBlockSource(400));
    MachineModel machine;
    PipelineOptions opts;
    opts.builder = BuilderKind::N2Forward;
    opts.maxBlockSeconds = 1e-9; // expires before the first poll
    opts.threads = 1;

    ProgramResult result = runPipeline(prog, machine, opts);
    EXPECT_EQ(result.blocksDegraded, 1u);
    ASSERT_FALSE(result.blockIssues.empty());
    EXPECT_EQ(result.blockIssues[0].stage, "budget");
    EXPECT_TRUE(result.blockIssues[0].degraded);
    EXPECT_NE(result.blockIssues[0].reason.find("cancelled mid-loop"),
              std::string::npos);
}

TEST(Cancellation, StrictModeStillDegradesOnBudget)
{
    // Budget overruns are environmental, not faults: --strict
    // (containFaults off) must not turn them into a crash.
    Program prog = parseAssembly(bigBlockSource(400));
    MachineModel machine;
    PipelineOptions opts;
    opts.builder = BuilderKind::N2Forward;
    opts.maxBlockSeconds = 1e-9;
    opts.containFaults = false;
    opts.threads = 1;

    ProgramResult result;
    EXPECT_NO_THROW(result = runPipeline(prog, machine, opts));
    EXPECT_EQ(result.blocksDegraded, 1u);
}

TEST(Cancellation, GenerousBudgetDoesNotDegrade)
{
    Program prog = parseAssembly(bigBlockSource(100));
    MachineModel machine;
    PipelineOptions opts;
    opts.builder = BuilderKind::N2Forward;
    opts.maxBlockSeconds = 3600.0;
    opts.threads = 1;

    ProgramResult result = runPipeline(prog, machine, opts);
    EXPECT_EQ(result.blocksDegraded, 0u);
    EXPECT_TRUE(result.blockIssues.empty());
}

// --- Whole-run budget (PipelineOptions::maxRunSeconds) -------------

/** Several branch-separated blocks, so the run budget has more than
 * one block to account for. */
std::string
multiBlockSource(int blocks, int insts_per_block)
{
    std::string src;
    for (int b = 0; b < blocks; ++b) {
        src += "blk" + std::to_string(b) + ":\n";
        for (int i = 0; i < insts_per_block; ++i)
            src += "    add %g1, %g2, %g3\n";
        if (b + 1 < blocks)
            src += "    ba blk" + std::to_string(b + 1) + "\n    nop\n";
    }
    return src;
}

TEST(Cancellation, RunBudgetDegradesEveryBlockAndCounts)
{
    obs::setEnabled(true);
    obs::CounterRegistry::global().resetAll();

    Program prog = parseAssembly(multiBlockSource(4, 50));
    MachineModel machine;
    PipelineOptions opts;
    opts.maxRunSeconds = 1e-9; // exhausted before any block starts
    opts.threads = 1;

    ProgramResult result = runPipeline(prog, machine, opts);
    obs::setEnabled(false);
    obs::CounterRegistry::global().resetAll();

    EXPECT_EQ(result.blocksDegraded, result.numBlocks);
    ASSERT_EQ(result.blockIssues.size(), result.numBlocks);
    for (const ProgramResult::BlockIssue &issue : result.blockIssues) {
        EXPECT_EQ(issue.stage, "budget");
        EXPECT_TRUE(issue.degraded);
        EXPECT_NE(issue.reason.find("run budget"), std::string::npos);
    }
    // The run-budget rung of the ladder is attributed distinctly
    // from the per-block budget.
    EXPECT_GE(result.counters.value("cancel.run_budget_exhausted"),
              static_cast<std::uint64_t>(result.numBlocks));
}

TEST(Cancellation, GenerousRunBudgetDoesNotDegrade)
{
    obs::setEnabled(true);
    obs::CounterRegistry::global().resetAll();

    Program prog = parseAssembly(multiBlockSource(4, 50));
    MachineModel machine;
    PipelineOptions opts;
    opts.maxRunSeconds = 3600.0;
    opts.threads = 1;

    ProgramResult result = runPipeline(prog, machine, opts);
    obs::setEnabled(false);
    obs::CounterRegistry::global().resetAll();

    EXPECT_EQ(result.blocksDegraded, 0u);
    EXPECT_TRUE(result.blockIssues.empty());
    EXPECT_EQ(result.counters.value("cancel.run_budget_exhausted"), 0u);
}

TEST(Cancellation, RunBudgetTightensPerBlockShare)
{
    // A whole-run budget smaller than the (huge) per-block cap must
    // win: the fair share, not maxBlockSeconds, is what expires.
    Program prog = parseAssembly(multiBlockSource(2, 50));
    MachineModel machine;
    PipelineOptions opts;
    opts.maxBlockSeconds = 3600.0;
    opts.maxRunSeconds = 1e-9;
    opts.threads = 1;

    ProgramResult result = runPipeline(prog, machine, opts);
    EXPECT_EQ(result.blocksDegraded, result.numBlocks);
}

// --- Backend (compileProgram) budget threading ---------------------

TEST(Cancellation, BackendBudgetDegradesAndPreservesProgram)
{
    Program prog = parseAssembly(bigBlockSource(400));
    stampMemGenerations(prog);
    MachineModel machine;
    BackendOptions opts;
    opts.pipeline.builder = BuilderKind::N2Forward;
    opts.allocate = false;
    opts.pipeline.maxBlockSeconds = 1e-9;

    BackendResult result = compileProgram(prog, machine, opts);
    EXPECT_GE(result.prepass.blocksDegraded, 1u);
    ASSERT_FALSE(result.prepass.blockIssues.empty());
    EXPECT_EQ(result.prepass.blockIssues[0].stage, "budget");
    // The block degrades to its incoming order: same instructions.
    EXPECT_EQ(result.program.insts().size(), prog.insts().size());
}

TEST(Cancellation, BackendBudgetDegradesEvenWithoutContainment)
{
    Program prog = parseAssembly(bigBlockSource(400));
    stampMemGenerations(prog);
    MachineModel machine;
    BackendOptions opts;
    opts.pipeline.builder = BuilderKind::N2Forward;
    opts.allocate = false;
    opts.pipeline.containFaults = false;
    opts.pipeline.maxBlockSeconds = 1e-9;

    BackendResult result;
    EXPECT_NO_THROW(result = compileProgram(prog, machine, opts));
    EXPECT_GE(result.prepass.blocksDegraded, 1u);
}

} // namespace
} // namespace sched91
