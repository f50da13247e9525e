/**
 * @file
 * Differential oracle tests (fuzz/differential.hh): the pinned
 * random-program sweep the acceptance harness runs in CI, plus the
 * reducer.
 *
 * The sweep is the executable form of the paper's equivalence claim:
 * for every generated program, the n**2 and table builders agree on
 * the transitively-closed dependence relation, the static heuristics
 * agree node-for-node, and all seven algorithms produce schedules the
 * independent verifier accepts over all three DAGs.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "fuzz/differential.hh"
#include "fuzz/program_gen.hh"
#include "machine/machine_model.hh"

namespace sched91
{
namespace
{

constexpr std::array<AliasPolicy, 4> kPolicies = {
    AliasPolicy::SerializeAll,
    AliasPolicy::BaseOffset,
    AliasPolicy::StorageClassed,
    AliasPolicy::SymbolicExpr,
};

TEST(Differential, PinnedThousandProgramSweep)
{
    MachineModel machine;
    std::size_t blocks = 0, schedules = 0;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        fuzz::GenParams p = fuzz::sweepParams(i);
        std::string src = fuzz::generateSource(p);
        fuzz::OracleOptions opts;
        opts.memPolicy = kPolicies[i % kPolicies.size()];
        fuzz::OracleReport report =
            fuzz::checkSource(src, machine, opts);
        ASSERT_TRUE(report.ok)
            << "sweep program " << i << ": " << report.failure << "\n"
            << src;
        blocks += report.blocksChecked;
        schedules += report.schedulesChecked;
    }
    // The sweep must actually exercise the pipeline, not vacuously
    // pass over empty programs.
    EXPECT_GT(blocks, 1000u);
    EXPECT_GT(schedules, 21000u);
}

TEST(Differential, ReportsCountsOnCleanProgram)
{
    fuzz::GenParams p;
    p.seed = 42;
    p.numBlocks = 2;
    MachineModel machine;
    fuzz::OracleReport report =
        fuzz::checkSource(fuzz::generateSource(p), machine);
    EXPECT_TRUE(report.ok) << report.failure;
    EXPECT_EQ(report.blocksChecked, 2u);
    // 7 algorithms x 3 builders per block.
    EXPECT_EQ(report.schedulesChecked, report.blocksChecked * 21u);
    EXPECT_TRUE(report.failure.empty());
}

TEST(Differential, EmptySourceIsVacuouslyOk)
{
    MachineModel machine;
    fuzz::OracleReport report = fuzz::checkSource("", machine);
    EXPECT_TRUE(report.ok);
    EXPECT_EQ(report.blocksChecked, 0u);
}

// --- Reducer -------------------------------------------------------

TEST(Differential, MinimizeLinesShrinksToCulpritLines)
{
    std::string source;
    for (int i = 0; i < 32; ++i)
        source += "line" + std::to_string(i) + "\n";
    source += "BUG\n";
    for (int i = 32; i < 64; ++i)
        source += "line" + std::to_string(i) + "\n";

    auto predicate = [](const std::string &candidate) {
        return candidate.find("BUG") != std::string::npos;
    };
    std::string reduced = fuzz::minimizeLines(source, predicate);
    EXPECT_EQ(reduced, "BUG\n");
}

TEST(Differential, MinimizeLinesKeepsInteractingPair)
{
    // Two lines that only fail together: ddmin must keep both.
    std::string source = "aaa\nFIRST\nbbb\nccc\nSECOND\nddd\n";
    auto predicate = [](const std::string &candidate) {
        return candidate.find("FIRST") != std::string::npos &&
               candidate.find("SECOND") != std::string::npos;
    };
    std::string reduced = fuzz::minimizeLines(source, predicate);
    EXPECT_EQ(reduced, "FIRST\nSECOND\n");
}

TEST(Differential, MinimizeLinesRespectsCheckBudget)
{
    std::string source;
    for (int i = 0; i < 64; ++i)
        source += "x\n";
    int calls = 0;
    auto predicate = [&](const std::string &) {
        ++calls;
        return true; // everything "fails": reducer drives to minimum
    };
    std::string reduced = fuzz::minimizeLines(source, predicate, 16);
    EXPECT_LE(calls, 16);
    EXPECT_FALSE(reduced.empty());
}

TEST(Differential, MinimizeOperandsDropsTrailingOperands)
{
    // Line-level ddmin cannot shrink a single culprit line; the
    // operand pass peels trailing operands as long as the failure
    // reproduces, leaving a strictly smaller repro.
    std::string source = "add %r1, %r2, %r3\nBUG %x, %y\n";
    auto predicate = [](const std::string &candidate) {
        return candidate.find("BUG") != std::string::npos;
    };
    std::string reduced = fuzz::minimizeOperands(source, predicate);
    EXPECT_EQ(reduced, "add %r1\nBUG %x\n");
    EXPECT_LT(reduced.size(), source.size());
}

TEST(Differential, MinimizeOperandsKeepsLoadBearingOperand)
{
    std::string source = "add %r1, %r2, %r3\n";
    auto predicate = [](const std::string &candidate) {
        return candidate.find("%r3") != std::string::npos;
    };
    std::string reduced = fuzz::minimizeOperands(source, predicate);
    EXPECT_EQ(reduced, source) << "dropping %r3 no longer fails";
}

TEST(Differential, MinimizeOperandsRespectsCheckBudget)
{
    std::string source;
    for (int i = 0; i < 32; ++i)
        source += "op a, b, c, d, e, f, g, h\n";
    int calls = 0;
    auto predicate = [&](const std::string &) {
        ++calls;
        return true;
    };
    fuzz::minimizeOperands(source, predicate, 12);
    EXPECT_LE(calls, 12);
}

TEST(Differential, LineThenOperandPassesCompose)
{
    // The minimizeSource pipeline order: whole-line ddmin first, then
    // trailing-operand trimming on the survivors.
    std::string source =
        "aaa 1, 2\nBUG %x, %y, %z\nbbb 3, 4\nccc 5, 6\n";
    auto predicate = [](const std::string &candidate) {
        return candidate.find("BUG") != std::string::npos;
    };
    std::string reduced = fuzz::minimizeOperands(
        fuzz::minimizeLines(source, predicate), predicate);
    EXPECT_EQ(reduced, "BUG %x\n")
        << "lines dropped first, then trailing operands";
}

} // namespace
} // namespace sched91
