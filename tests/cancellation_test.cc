/**
 * @file
 * Cooperative cancellation tests (support/cancellation.hh).
 *
 * The property that distinguishes this layer from PR 3's
 * phase-boundary budget checks: a block that exceeds its budget is
 * abandoned *mid-loop* — inside the n**2 builder's pairwise scan or
 * the list scheduler's extraction loop — and degrades per the
 * containment semantics in both runPipeline and compileProgram.  Work
 * cut short still counts every event it got to before the throw.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/backend.hh"
#include "core/pipeline.hh"
#include "obs/counters.hh"
#include "dag/n2_forward.hh"
#include "dag/table_forward.hh"
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
    obs::CounterShard shard;
    obs::ScopedCounterShard scope(shard);

    Program prog = parseAssembly(multiBlockSource(4, 50));
    MachineModel machine;
    PipelineOptions opts;
    opts.maxRunSeconds = 1e-9; // exhausted before any block starts
    opts.threads = 1;

    ProgramResult result = runPipeline(prog, machine, opts);
    obs::setEnabled(false);

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
    EXPECT_EQ(shard.value("cancel.run_budget_exhausted"),
              result.counters.value("cancel.run_budget_exhausted"))
        << "the run adds its counts to the caller's shard";
}

TEST(Cancellation, GenerousRunBudgetDoesNotDegrade)
{
    obs::setEnabled(true);
    obs::CounterShard shard;
    obs::ScopedCounterShard scope(shard);

    Program prog = parseAssembly(multiBlockSource(4, 50));
    MachineModel machine;
    PipelineOptions opts;
    opts.maxRunSeconds = 3600.0;
    opts.threads = 1;

    ProgramResult result = runPipeline(prog, machine, opts);
    obs::setEnabled(false);

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

// --- Counts of work cut short --------------------------------------

/** A token whose deadline has passed throws at its 256th poll (the
 * poll stride), so a loop that polls once per step stops at step 255. */
constexpr std::uint64_t kStepsBeforeThrow = 255;

/**
 * Straight-line loads, stores and ALU ops through %fp and %i0, so a
 * table build fills its register and memory tables and asks the alias
 * oracle as it goes; every fifth line stores the register a load four
 * lines up read from the same slot, a RAW and a WAR arc on one pair
 * (a duplicate).  No control transfer: a prefix of the block is a
 * block of its own with the same arcs.
 */
std::string
memoryBlockSource(int n)
{
    const auto slot = [](int i) { return 8 + 4 * (i % 16); };
    std::ostringstream src;
    src << "top:\n";
    for (int i = 0; i < n; ++i) {
        switch (i % 5) {
          case 0:
            src << "    ld [%fp-" << slot(i) << "], %l" << i % 8 << '\n';
            break;
          case 1:
            src << "    add %l" << i % 8 << ", %l" << (i + 1) % 8 << ", %o"
                << i % 6 << '\n';
            break;
          case 2:
            src << "    st %o" << i % 6 << ", [%i0+" << 4 * (i % 10)
                << "]\n";
            break;
          case 3:
            src << "    ld [%i0+" << 4 * (i % 7) << "], %l" << (i + 3) % 8
                << '\n';
            break;
          default:
            src << "    st %l" << (i - 4) % 8 << ", [%fp-" << slot(i - 4)
                << "]\n";
            break;
        }
    }
    return src.str();
}

/** What @p work counts, with observability on, into a shard installed
 * for it alone. */
template <class Work>
obs::CounterShard
countedRun(Work &&work)
{
    obs::setEnabled(true);
    obs::CounterShard shard;
    {
        obs::ScopedCounterShard scope(shard);
        work();
    }
    obs::setEnabled(false);
    return shard;
}

TEST(CancelledWork, TableBuildCountsEveryArcAndQueryBeforeTheThrow)
{
    Program prog = parseAssembly(memoryBlockSource(320));
    const auto blocks = partitionBlocks(prog);
    ASSERT_EQ(blocks.size(), 1u);
    ASSERT_EQ(blocks[0].size(), 320u);
    Program prefix =
        parseAssembly(memoryBlockSource(static_cast<int>(kStepsBeforeThrow)));
    const auto prefix_blocks = partitionBlocks(prefix);
    ASSERT_EQ(prefix_blocks.size(), 1u);
    MachineModel machine;

    // A table build polls once per instruction.
    const obs::CounterShard cancelled = countedRun([&] {
        CancellationToken token(0.0);
        BuildOptions opts;
        opts.cancel = &token;
        EXPECT_THROW(TableForwardBuilder().build(BlockView(prog, blocks[0]),
                                                 machine, opts),
                     CancelledError);
    });
    const obs::CounterShard whole = countedRun([&] {
        TableForwardBuilder().build(BlockView(prefix, prefix_blocks[0]),
                                    machine);
    });

    EXPECT_GT(whole.value("dag.arcs_added"), 0u);
    EXPECT_GT(whole.value("dag.arcs_duplicate"), 0u);
    EXPECT_GT(whole.value("dag.alias_queries"), 0u);
    for (const char *name :
         {"dag.arcs_added", "dag.arcs_duplicate", "dag.alias_queries"})
        EXPECT_EQ(cancelled.value(name), whole.value(name)) << name;
    EXPECT_EQ(cancelled.value("dag.table_probes"), 0u)
        << "probes count only when a build completes";
}

TEST(CancelledWork, ScheduleCountsEveryPickBeforeTheThrow)
{
    Program prog = parseAssembly(memoryBlockSource(320));
    const auto blocks = partitionBlocks(prog);
    ASSERT_EQ(blocks.size(), 1u);
    BlockView block(prog, blocks[0]);
    MachineModel machine;

    // Heap and scan picks, forward and backward: each polls once per
    // pick before counting it.
    for (AlgorithmKind kind : allAlgorithms()) {
        Dag dag = TableForwardBuilder().build(block, machine);
        runAllStaticPasses(dag, PassImpl::ReverseWalk, true);
        const ListScheduler scheduler(algorithmSpec(kind).config, machine);
        const obs::CounterShard counted = countedRun([&] {
            CancellationToken token(0.0);
            EXPECT_THROW(scheduler.run(dag, nullptr, &token),
                         CancelledError);
        });
        EXPECT_EQ(counted.value("sched.node_visits"), kStepsBeforeThrow)
            << algorithmName(kind);
        EXPECT_GT(counted.value("sched.dep_updates"), 0u)
            << algorithmName(kind);
        EXPECT_GT(counted.value("sched.heuristic_evals"), 0u)
            << algorithmName(kind);
        EXPECT_GT(counted.value("sched.ready_list_peak"), 0u)
            << algorithmName(kind);
    }
}

} // namespace
} // namespace sched91
