/**
 * @file
 * Winnowing decision-statistics tests: attaching DecisionStats must
 * leave the schedules (and, for rankings that keep the scan, the
 * heuristic evaluations) unchanged, and the counters must account for
 * every pick.  Since DecisionStats moves every ranking onto the scan,
 * the same comparison makes the scan the heap paths' oracle.
 */

#include <gtest/gtest.h>

#include "core/pipeline.hh"
#include "dag/table_forward.hh"
#include "fuzz/program_gen.hh"
#include "heuristics/register_pressure.hh"
#include "heuristics/static_passes.hh"
#include "ir/parser.hh"
#include "machine/presets.hh"
#include "obs/counters.hh"
#include "obs/events.hh"
#include "sched/list_scheduler.hh"
#include "workload/generator.hh"
#include "workload/kernels.hh"
#include "workload/profiles.hh"

namespace sched91
{
namespace
{

TEST(DecisionStats, SameScheduleWithAndWithoutStats)
{
    MachineModel machine = sparcstation2();
    for (AlgorithmKind kind : publishedAlgorithms()) {
        AlgorithmSpec spec = algorithmSpec(kind);
        ListScheduler scheduler(spec.config, machine);
        for (const std::string &kernel : kernelNames()) {
            Program prog = kernelProgram(kernel);
            auto blocks = partitionBlocks(prog);
            for (const auto &bb : blocks) {
                BlockView block(prog, bb);
                auto build = [&]() {
                    Dag dag = TableForwardBuilder().build(
                        block, machine, BuildOptions{});
                    runAllStaticPasses(dag, PassImpl::ReverseWalk,
                                       spec.config.needsDescendants);
                    if (spec.config.needsRegisterPressure)
                        computeRegisterPressure(dag);
                    return dag;
                };
                Dag a = build();
                Dag b = build();
                Schedule plain = scheduler.run(a);
                DecisionStats stats;
                Schedule counted = scheduler.run(b, &stats);
                EXPECT_EQ(plain.order, counted.order)
                    << algorithmName(kind) << " on " << kernel;
            }
        }
    }
}

TEST(DecisionStats, SamePicksAndEvaluationsOverTable3)
{
    // A ranking with a heuristic that changes as nodes issue is picked
    // by one winnowing pass, which DecisionStats only observes: over
    // every Table 3 block, the stats run must make the same picks with
    // the same heuristic evaluations as the plain run.  Krishnamurthy's
    // ranking is keyed, so its plain run takes the same picks off heaps
    // with fewer evaluations.
    const AlgorithmKind kinds[] = {
        AlgorithmKind::GibbonsMuchnick, AlgorithmKind::Krishnamurthy,
        AlgorithmKind::Warren, AlgorithmKind::Tiemann};
    constexpr std::size_t kKinds = std::size(kinds);
    MachineModel machine = sparcstation2();
    std::vector<ListScheduler> schedulers;
    schedulers.reserve(kKinds);
    for (AlgorithmKind kind : kinds)
        schedulers.emplace_back(algorithmSpec(kind).config, machine);
    BuildOptions bopts;
    bopts.memPolicy = AliasPolicy::SymbolicExpr;

    obs::setEnabled(true);
    obs::CounterShard building; // keeps DAG construction out of the rest
    std::vector<obs::CounterShard> plain(kKinds), counted(kKinds);
    {
        obs::ScopedCounterShard building_scope(building);
        for (const WorkloadProfile &profile : allProfiles()) {
            Program prog = cachedProgram(profile.name);
            for (const BasicBlock &bb : partitionBlocks(prog)) {
                Dag dag = TableForwardBuilder().build(BlockView(prog, bb),
                                                      machine, bopts);
                runAllStaticPasses(dag, PassImpl::ReverseWalk, true);
                computeRegisterPressure(dag);
                for (std::size_t k = 0; k < kKinds; ++k) {
                    Schedule a, b;
                    {
                        obs::ScopedCounterShard scope(plain[k]);
                        a = schedulers[k].run(dag);
                    }
                    {
                        obs::ScopedCounterShard scope(counted[k]);
                        DecisionStats stats;
                        b = schedulers[k].run(dag, &stats);
                    }
                    ASSERT_EQ(a.order, b.order)
                        << algorithmName(kinds[k]) << " on "
                        << profile.name << " block @" << bb.begin;
                }
            }
        }
    }
    obs::setEnabled(false);

    const std::size_t evals = obs::ev::schedHeuristicEvals.id();
    for (std::size_t k = 0; k < kKinds; ++k) {
        EXPECT_GT(plain[k].value(evals), 0u) << algorithmName(kinds[k]);
        if (kinds[k] == AlgorithmKind::Krishnamurthy)
            EXPECT_LT(plain[k].value(evals), counted[k].value(evals));
        else
            EXPECT_EQ(plain[k].value(evals), counted[k].value(evals))
                << algorithmName(kinds[k]);
    }
}

/**
 * A plain run of @p dag and a DecisionStats run, which moves every
 * ranking onto the scan, must agree on the schedule (order, issue
 * cycles, makespan) and on the pick counters: node visits, dependence
 * updates and the ready-list peak.  For a keyed ranking the scan is
 * the heaps' oracle.
 */
::testing::AssertionResult
plainRunMatchesScan(const ListScheduler &scheduler, Dag &dag)
{
    Schedule plain, scanned;
    obs::CounterShard plain_counts, scan_counts;
    {
        obs::ScopedCounterShard scope(plain_counts);
        plain = scheduler.run(dag);
    }
    {
        obs::ScopedCounterShard scope(scan_counts);
        DecisionStats stats;
        scanned = scheduler.run(dag, &stats);
    }
    if (plain.order != scanned.order)
        return ::testing::AssertionFailure() << "order differs";
    if (plain.issueCycle != scanned.issueCycle)
        return ::testing::AssertionFailure() << "issue cycles differ";
    if (plain.makespan != scanned.makespan)
        return ::testing::AssertionFailure()
               << "makespan " << plain.makespan << " vs "
               << scanned.makespan;
    for (const obs::Counter *c :
         {&obs::ev::schedNodeVisits, &obs::ev::schedDepUpdates,
          &obs::ev::schedReadyListPeak}) {
        if (plain_counts.value(c->id()) != scan_counts.value(c->id()))
            return ::testing::AssertionFailure()
                   << c->name() << " " << plain_counts.value(c->id())
                   << " vs " << scan_counts.value(c->id());
    }
    return ::testing::AssertionSuccess();
}

TEST(DecisionStats, PlainRunMatchesScanWhileAUnitIsBusy)
{
    // The multiplier and the divider are not pipelined: once the
    // first smul issues, the second waits on FPU busy time, so a node
    // of another kind with a worse static tuple wins the next pick —
    // a load (pipelined), or an fdivs while the add waits on its EET.
    const std::pair<const char *, std::vector<std::uint32_t>> cases[] = {
        {"smul %g1, %g2, %g3\nsmul %g4, %g5, %g6\n"
         "ld [%o0], %g7\nld [%o0+4], %o1\n",
         {0, 2, 3, 1}},
        {"smul %g1, %g2, %g3\nsmul %g4, %g5, %g6\n"
         "fdivs %f0, %f1, %f2\nadd %g3, 1, %g7\n",
         {0, 2, 1, 3}},
    };
    MachineModel machine = sparcstation2();
    ListScheduler scheduler(
        algorithmSpec(AlgorithmKind::Krishnamurthy).config, machine);
    for (const auto &[source, order] : cases) {
        Program prog = parseAssembly(source);
        Dag dag = TableForwardBuilder().build(
            BlockView(prog, partitionBlocks(prog)[0]), machine,
            BuildOptions{});
        runAllStaticPasses(dag, PassImpl::ReverseWalk, true);
        EXPECT_TRUE(plainRunMatchesScan(scheduler, dag)) << source;
        EXPECT_EQ(scheduler.run(dag).order, order) << source;
    }
}

/** Check every algorithm on every block of @p prog under every
 * builder; @p what names the program in a failure. */
void
expectPlainRunsMatchScan(Program &prog, const PartitionOptions &partition,
                         const std::string &what)
{
    const MachineModel machine = sparcstation2();
    std::vector<ListScheduler> schedulers;
    for (AlgorithmKind kind : allAlgorithms())
        schedulers.emplace_back(algorithmSpec(kind).config, machine);
    BuildOptions bopts;
    bopts.memPolicy = AliasPolicy::SymbolicExpr;
    for (const BasicBlock &bb : partitionBlocks(prog, partition)) {
        for (BuilderKind builder :
             {BuilderKind::N2Forward, BuilderKind::N2Backward,
              BuilderKind::N2Landskov, BuilderKind::TableForward,
              BuilderKind::TableBackward}) {
            Dag dag = makeBuilder(builder)->build(BlockView(prog, bb),
                                                  machine, bopts);
            runAllStaticPasses(dag, PassImpl::ReverseWalk, true);
            computeRegisterPressure(dag);
            for (std::size_t k = 0; k < schedulers.size(); ++k)
                ASSERT_TRUE(plainRunMatchesScan(schedulers[k], dag))
                    << algorithmName(allAlgorithms()[k]) << " under "
                    << makeBuilder(builder)->name() << " on " << what
                    << " block @" << bb.begin;
        }
    }
}

/** fpppp cut at instruction window @p window (the n**2 builders run
 * on its window blocks too, so one test per window). */
void
expectPlainRunsMatchScanOnFpppp(int window)
{
    obs::setEnabled(true);
    Program prog = cachedProgram("fpppp");
    PartitionOptions partition;
    partition.window = window;
    expectPlainRunsMatchScan(prog, partition,
                             "fpppp-" + std::to_string(window));
    obs::setEnabled(false);
}

TEST(DecisionStats, PlainRunsMatchTheScanOnFpppp1000)
{
    expectPlainRunsMatchScanOnFpppp(1000);
}

TEST(DecisionStats, PlainRunsMatchTheScanOnFpppp2000)
{
    expectPlainRunsMatchScanOnFpppp(2000);
}

TEST(DecisionStats, PlainRunsMatchTheScanOnFpppp4000)
{
    expectPlainRunsMatchScanOnFpppp(4000);
}

TEST(DecisionStats, PlainRunsMatchTheScanOverTheDifferentialSweep)
{
    obs::setEnabled(true);
    DiagnosticEngine::Options dopts;
    dopts.maxErrors = 0; // every fourth program is corrupted
    for (std::uint64_t i = 0; i < 1000; ++i) {
        DiagnosticEngine diags(dopts);
        Program prog = parseAssembly(
            fuzz::generateSource(fuzz::sweepParams(i)), diags);
        expectPlainRunsMatchScan(prog, {},
                                 "sweep program " + std::to_string(i));
    }
    obs::setEnabled(false);
}

TEST(DecisionStats, CountersAccountForEveryPick)
{
    MachineModel machine = sparcstation2();
    AlgorithmSpec spec = algorithmSpec(AlgorithmKind::Krishnamurthy);
    ListScheduler scheduler(spec.config, machine);

    Program prog = kernelProgram("tomcatv");
    auto blocks = partitionBlocks(prog);
    DecisionStats stats;
    std::size_t nodes = 0;
    for (const auto &bb : blocks) {
        Dag dag = TableForwardBuilder().build(BlockView(prog, bb),
                                              machine, BuildOptions{});
        runAllStaticPasses(dag);
        scheduler.run(dag, &stats);
        nodes += bb.size();
    }
    EXPECT_EQ(stats.totalPicks, static_cast<long long>(nodes));
    long long accounted = stats.trivialPicks + stats.originalOrderTies;
    for (long long d : stats.decidedAtRank)
        accounted += d;
    EXPECT_EQ(accounted, stats.totalPicks);
    EXPECT_EQ(stats.decidedAtRank.size(), spec.config.ranking.size());
}

TEST(DecisionStats, EmptyRankingAllTies)
{
    Program prog = parseAssembly(
        "add %g1, 1, %g2\nadd %g3, 1, %g4\nadd %g5, 1, %g6\n");
    auto blocks = partitionBlocks(prog);
    MachineModel machine = sparcstation2();
    Dag dag = TableForwardBuilder().build(BlockView(prog, blocks[0]),
                                          machine, BuildOptions{});
    SchedulerConfig bare;
    DecisionStats stats;
    ListScheduler(bare, machine).run(dag, &stats);
    EXPECT_EQ(stats.totalPicks, 3);
    // The last pick has a single candidate left.
    EXPECT_EQ(stats.originalOrderTies, 2);
    EXPECT_EQ(stats.trivialPicks, 1);
}

TEST(SpillEstimator, ZeroWhenRegistersSuffice)
{
    Program prog = parseAssembly(
        "ld [%o0], %g1\n"
        "add %g1, 1, %g2\n"
        "st %g2, [%o1]\n");
    auto blocks = partitionBlocks(prog);
    Dag dag = TableForwardBuilder().build(BlockView(prog, blocks[0]),
                                          sparcstation2(),
                                          BuildOptions{});
    std::vector<std::uint32_t> order{0, 1, 2};
    EXPECT_EQ(estimateSpilledValues(dag, order, 8), 0);
}

TEST(SpillEstimator, CountsOverflow)
{
    // Four values live simultaneously; with 2 registers, two of them
    // spill.
    Program prog = parseAssembly(
        "ld [%o0+0], %l0\n"
        "ld [%o0+4], %l1\n"
        "ld [%o0+8], %l2\n"
        "ld [%o0+12], %l3\n"
        "add %l0, %l1, %l4\n"
        "add %l2, %l3, %l5\n"
        "add %l4, %l5, %l6\n");
    auto blocks = partitionBlocks(prog);
    Dag dag = TableForwardBuilder().build(BlockView(prog, blocks[0]),
                                          sparcstation2(),
                                          BuildOptions{});
    std::vector<std::uint32_t> order{0, 1, 2, 3, 4, 5, 6};
    // Live at the first add: l0..l3 plus %o0 (live-in) = 5 values.
    EXPECT_GT(estimateSpilledValues(dag, order, 2), 0);
    EXPECT_EQ(estimateSpilledValues(dag, order, 8), 0);
}

TEST(SpillEstimator, ScheduleSensitivity)
{
    // Interleaved load/use order needs fewer registers than
    // hoisted-loads order.
    Program prog = parseAssembly(
        "ld [%o0+0], %l0\n"
        "st %l0, [%o1+0]\n"
        "ld [%o0+4], %l1\n"
        "st %l1, [%o1+4]\n"
        "ld [%o0+8], %l2\n"
        "st %l2, [%o1+8]\n");
    auto blocks = partitionBlocks(prog);
    BuildOptions bopts;
    bopts.memPolicy = AliasPolicy::SymbolicExpr;
    Dag dag = TableForwardBuilder().build(BlockView(prog, blocks[0]),
                                          sparcstation2(), bopts);
    std::vector<std::uint32_t> seq{0, 1, 2, 3, 4, 5};
    std::vector<std::uint32_t> hoisted{0, 2, 4, 1, 3, 5};
    EXPECT_LE(estimateSpilledValues(dag, seq, 3),
              estimateSpilledValues(dag, hoisted, 3));
}

} // namespace
} // namespace sched91
