/**
 * @file
 * Fault-isolation tests: source-located diagnostics and lenient parse
 * recovery over the malformed corpus (tests/corpus/malformed/), the
 * independent schedule verifier (accept on real schedules, reject on
 * corrupted ones), and the pipeline's per-block containment ladder —
 * n**2 -> table builder fallback for oversized blocks, original-order
 * degradation on budget overrun.  See docs/ROBUSTNESS.md.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "dag/table_forward.hh"
#include "heuristics/static_passes.hh"
#include "ir/parser.hh"
#include "machine/presets.hh"
#include "obs/counters.hh"
#include "obs/emitter.hh"
#include "sched/delay_slot.hh"
#include "sched/registry.hh"
#include "sched/reservation.hh"
#include "sched/verifier.hh"
#include "support/diagnostics.hh"
#include "support/logging.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace sched91
{
namespace
{

std::string
corpusPath(const std::string &name)
{
    return std::string(SCHED91_SOURCE_DIR "/tests/corpus/malformed/") +
           name;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** name, expected lenient error count, expected surviving insts. */
struct CorpusCase
{
    const char *name;
    std::size_t errors;
    std::size_t insts;
};

const CorpusCase kCorpus[] = {
    {"bad_mnemonic.s", 4, 5},      {"truncated_operands.s", 5, 5},
    {"garbage.s", 10, 1},          {"register_typos.s", 5, 5},
    {"bad_address.s", 7, 4},       {"oversized_block.s", 0, 601},
    {"suspicious.s", 0, 8},        {"out_of_range.s", 2, 2},
};

// --- Diagnostics engine --------------------------------------------

TEST(Diagnostics, RendersGccStyleLocations)
{
    Diag d;
    d.severity = Severity::Error;
    d.file = "foo.s";
    d.line = 12;
    d.col = 7;
    d.message = "unknown mnemonic 'bogus'";
    EXPECT_EQ(d.render(), "foo.s:12:7: error: unknown mnemonic 'bogus'");

    d.col = 0; // whole-line diagnostic
    EXPECT_EQ(d.render(), "foo.s:12: error: unknown mnemonic 'bogus'");

    d.line = 0; // whole-file diagnostic
    EXPECT_EQ(d.render(), "foo.s: error: unknown mnemonic 'bogus'");

    d.severity = Severity::Warning;
    d.file.clear();
    EXPECT_EQ(d.render(), "<input>: warning: unknown mnemonic 'bogus'");
}

TEST(Diagnostics, LenientEngineCollects)
{
    DiagnosticEngine diags;
    diags.error("a.s", 1, 2, "first");
    diags.warning("a.s", 3, 0, "second");
    diags.error("a.s", 5, 1, "third");
    EXPECT_EQ(diags.errorCount(), 2u);
    EXPECT_EQ(diags.warningCount(), 1u);
    EXPECT_TRUE(diags.hasErrors());
    ASSERT_EQ(diags.diags().size(), 3u);
    EXPECT_EQ(diags.render(),
              "a.s:1:2: error: first\n"
              "a.s:3: warning: second\n"
              "a.s:5:1: error: third\n");
}

TEST(Diagnostics, StrictEngineThrowsOnFirstError)
{
    DiagnosticEngine::Options opts;
    opts.strict = true;
    DiagnosticEngine diags(opts);
    diags.warning("a.s", 1, 1, "warnings never throw");
    EXPECT_EQ(diags.warningCount(), 1u);
    try {
        diags.error("a.s", 2, 3, "boom");
        FAIL() << "strict error should have thrown";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "a.s:2:3: error: boom");
    }
}

TEST(Diagnostics, ErrorCapStopsTheFlood)
{
    DiagnosticEngine::Options opts;
    opts.maxErrors = 3;
    DiagnosticEngine diags(opts);
    diags.error("junk.bin", 1, 0, "e1");
    diags.error("junk.bin", 2, 0, "e2");
    diags.error("junk.bin", 3, 0, "e3");
    try {
        diags.error("junk.bin", 4, 0, "e4");
        FAIL() << "exceeding the cap should have thrown";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("too many errors"),
                  std::string::npos);
    }
}

// --- Lenient parsing over the malformed corpus ---------------------

TEST(MalformedCorpus, LenientParseRecoversEveryFile)
{
    for (const CorpusCase &c : kCorpus) {
        std::string text = readFile(corpusPath(c.name));
        DiagnosticEngine diags;
        Program prog = parseAssembly(text, diags, c.name);
        EXPECT_EQ(diags.errorCount(), c.errors) << c.name << ":\n"
                                                << diags.render();
        EXPECT_EQ(prog.size(), c.insts) << c.name;
        for (const Diag &d : diags.diags()) {
            EXPECT_EQ(d.file, c.name);
            EXPECT_GT(d.line, 0) << c.name;
        }
    }
}

TEST(MalformedCorpus, StrictOverloadThrowsOnEveryErrorFile)
{
    for (const CorpusCase &c : kCorpus) {
        std::string text = readFile(corpusPath(c.name));
        if (c.errors == 0) {
            EXPECT_NO_THROW(parseAssembly(text)) << c.name;
            continue;
        }
        EXPECT_THROW(parseAssembly(text), FatalError) << c.name;
    }
}

TEST(MalformedCorpus, SurvivorsStillSchedule)
{
    MachineModel machine = sparcstation2();
    for (const CorpusCase &c : kCorpus) {
        if (c.insts == 0)
            continue;
        std::string text = readFile(corpusPath(c.name));
        DiagnosticEngine diags;
        Program prog = parseAssembly(text, diags, c.name);
        stampMemGenerations(prog);
        PipelineOptions opts;
        ProgramResult r = runPipeline(prog, machine, opts);
        EXPECT_EQ(r.numInsts, c.insts) << c.name;
        EXPECT_EQ(r.blocksDegraded, 0u) << c.name;
        EXPECT_EQ(r.verifierRejections, 0u) << c.name;
    }
}

TEST(Parser, DiagCarriesLineAndColumn)
{
    DiagnosticEngine diags;
    Program prog = parseAssembly("add %g1, %g2, %g3\nadd %g1, %g2\n",
                                 diags, "two.s");
    EXPECT_EQ(prog.size(), 1u);
    ASSERT_EQ(diags.diags().size(), 1u);
    const Diag &d = diags.diags()[0];
    EXPECT_EQ(d.file, "two.s");
    EXPECT_EQ(d.line, 2);
    EXPECT_GT(d.col, 0);
    EXPECT_NE(d.message.find("expects 3"), std::string::npos);
}

TEST(Parser, ColumnPointsAtOperandAtFault)
{
    // Each faulty operand's text also appears earlier in its line.
    DiagnosticEngine diags;
    parseAssembly("\tor\t%g1, 5, 5\n"
                  "\tld\t[%g1 + 8], [%g1 + 8]\n"
                  "\tfadds\t%f1, %f2, %f\n",
                  diags, "col.s");
    ASSERT_EQ(diags.diags().size(), 3u) << diags.render();
    EXPECT_EQ(diags.diags()[0].render(),
              "col.s:1:13: error: expected register, got '5'");
    EXPECT_EQ(diags.diags()[1].render(),
              "col.s:2:16: error: expected register, got '[%g1 + 8]'");
    EXPECT_EQ(diags.diags()[2].render(),
              "col.s:3:18: error: expected register, got '%f'");
}

TEST(Parser, LiteralsBeyond64BitsAreErrorsAtTheirColumn)
{
    DiagnosticEngine diags;
    Program prog = parseAssembly(
        "\tld\t[%o0+9223372036854775807+9223372036854775807], %o1\n"
        "\tadd\t%g1, 99999999999999999999, %g2\n",
        diags, "big.s");
    EXPECT_EQ(prog.size(), 0u);
    ASSERT_EQ(diags.diags().size(), 2u) << diags.render();
    EXPECT_EQ(diags.diags()[0].render(),
              "big.s:1:30: error: memory offset does not fit in 64 bits");
    EXPECT_EQ(diags.diags()[1].render(),
              "big.s:2:11: error: integer literal "
              "'99999999999999999999' does not fit in 64 bits");
}

TEST(Parser, LenientParseCountsParseErrors)
{
    obs::setEnabled(true);
    obs::CounterShard shard;
    {
        obs::ScopedCounterShard scope(shard);
        std::string text = readFile(corpusPath("garbage.s"));
        DiagnosticEngine diags;
        parseAssembly(text, diags, "garbage.s");
    }
    obs::setEnabled(false);
    EXPECT_EQ(shard.value("robust.parse_errors"), 10u);
}

// --- Schedule verifier ---------------------------------------------

/** A block with real dependences and a block-ending branch. */
Dag
verifierDag(Program &prog, const MachineModel &machine)
{
    DiagnosticEngine diags;
    prog = parseAssembly("	add	%g1, %g2, %g3\n"
                         "	add	%g3, %g1, %g4\n"
                         "	ld	[%g4 + 4], %g5\n"
                         "	sub	%g5, 1, %g6\n"
                         "	st	%g6, [%g4 + 8]\n"
                         "	bne	out\n",
                         diags, "verifier.s");
    EXPECT_EQ(diags.errorCount(), 0u);
    stampMemGenerations(prog);
    auto blocks = partitionBlocks(prog);
    EXPECT_EQ(blocks.size(), 1u);
    BlockView block(prog, blocks[0]);
    return TableForwardBuilder().build(block, machine, BuildOptions{});
}

TEST(Verifier, AcceptsOriginalOrder)
{
    Program prog;
    MachineModel machine = sparcstation2();
    Dag dag = verifierDag(prog, machine);
    Schedule sched = originalOrderSchedule(dag);
    VerifyResult vr = verifySchedule(dag, sched, machine);
    EXPECT_TRUE(vr.ok()) << vr.summary();
    EXPECT_EQ(vr.summary(), "ok");
}

TEST(Verifier, AcceptsEveryAlgorithmOnRealSchedules)
{
    Program prog;
    MachineModel machine = sparcstation2();
    Dag dag = verifierDag(prog, machine);
    auto blocks = partitionBlocks(prog);
    BlockView block(prog, blocks[0]);
    for (AlgorithmKind kind : allAlgorithms()) {
        PipelineOptions opts;
        opts.algorithm = kind;
        // scheduleBlock verifies internally (verify defaults on) and
        // panics on rejection, so reaching here is the assertion.
        EXPECT_NO_THROW(scheduleBlock(block, machine, opts))
            << algorithmName(kind);
    }
}

TEST(Verifier, RejectsBackwardArc)
{
    Program prog;
    MachineModel machine = sparcstation2();
    Dag dag = verifierDag(prog, machine);
    Schedule sched = originalOrderSchedule(dag);
    // Nodes 0 -> 1 share %g3: swapping them runs that arc backward.
    std::swap(sched.order[0], sched.order[1]);
    VerifyResult vr = verifySchedule(dag, sched, machine);
    EXPECT_FALSE(vr.ok());
    EXPECT_NE(vr.summary().find("runs backward"), std::string::npos)
        << vr.summary();
}

TEST(Verifier, RejectsDuplicateNode)
{
    Program prog;
    MachineModel machine = sparcstation2();
    Dag dag = verifierDag(prog, machine);
    Schedule sched = originalOrderSchedule(dag);
    sched.order[1] = sched.order[0];
    VerifyResult vr = verifySchedule(dag, sched, machine);
    EXPECT_FALSE(vr.ok());
    EXPECT_NE(vr.summary().find("scheduled twice"), std::string::npos)
        << vr.summary();
}

TEST(Verifier, RejectsTruncatedOrder)
{
    Program prog;
    MachineModel machine = sparcstation2();
    Dag dag = verifierDag(prog, machine);
    Schedule sched = originalOrderSchedule(dag);
    sched.order.pop_back();
    sched.issueCycle.clear();
    VerifyResult vr = verifySchedule(dag, sched, machine);
    EXPECT_FALSE(vr.ok());
    EXPECT_NE(vr.summary().find("covers"), std::string::npos)
        << vr.summary();
}

TEST(Verifier, RejectsBranchNotLast)
{
    Program prog;
    MachineModel machine = sparcstation2();
    Dag dag = verifierDag(prog, machine);
    Schedule sched = originalOrderSchedule(dag);
    // Rotate the branch to the front; everything else slides down.
    std::rotate(sched.order.begin(), sched.order.end() - 1,
                sched.order.end());
    VerifyResult vr = verifySchedule(dag, sched, machine);
    EXPECT_FALSE(vr.ok());
}

TEST(Verifier, RejectsLatencyViolatingTimingClaim)
{
    Program prog;
    MachineModel machine = sparcstation2();
    Dag dag = verifierDag(prog, machine);
    Schedule sched = originalOrderSchedule(dag);
    // Claim every instruction issues at cycle 1: any arc with a
    // positive delay is violated (the load feeding the sub has one).
    sched.issueCycle.assign(sched.order.size(), 1);
    VerifyResult vr = verifySchedule(dag, sched, machine);
    EXPECT_FALSE(vr.ok());
    EXPECT_NE(vr.summary().find("latency violated"), std::string::npos)
        << vr.summary();
}

TEST(Verifier, RejectsNonMonotoneTimingClaim)
{
    Program prog;
    MachineModel machine = sparcstation2();
    Dag dag = verifierDag(prog, machine);
    Schedule sched = originalOrderSchedule(dag);
    sched.issueCycle.assign(sched.order.size(), 0);
    sched.issueCycle.front() = 9; // later positions then go backward
    VerifyResult vr = verifySchedule(dag, sched, machine);
    EXPECT_FALSE(vr.ok());
    EXPECT_NE(vr.summary().find("monotone"), std::string::npos)
        << vr.summary();
}

TEST(Verifier, ReservationAcceptsRealAndRejectsCorrupted)
{
    Program prog;
    MachineModel machine = sparcstation2();
    Dag dag = verifierDag(prog, machine);
    runAllStaticPasses(dag);
    ReservationResult res =
        scheduleWithReservationTable(dag, machine);
    VerifyResult vr = verifyReservation(dag, res, machine);
    EXPECT_TRUE(vr.ok()) << vr.summary();

    // Collapse every placement onto cycle 0: dependent instructions
    // now violate latency and patterns pile onto the same slots.
    ReservationResult bad = res;
    std::fill(bad.cycle.begin(), bad.cycle.end(), 0);
    vr = verifyReservation(dag, bad, machine);
    EXPECT_FALSE(vr.ok());
}

// --- Pipeline containment ------------------------------------------

TEST(Pipeline, VerifierCleanOnTable3Workloads)
{
    MachineModel machine = sparcstation2();
    for (const WorkloadProfile &profile : allProfiles()) {
        for (AlgorithmKind kind : allAlgorithms()) {
            for (BuilderKind builder :
                 {BuilderKind::N2Forward, BuilderKind::TableForward,
                  BuilderKind::TableBackward}) {
                Program prog = cachedProgram(profile.name);
                PipelineOptions opts;
                opts.algorithm = kind;
                opts.builder = builder;
                // F1 window: keeps the n**2 builders off the
                // 2500/11750-inst fpppp blocks (they fall back).
                opts.maxBlockInsts = 400;
                ProgramResult r = runPipeline(prog, machine, opts);
                EXPECT_EQ(r.verifierRejections, 0u)
                    << profile.name << " " << algorithmName(kind);
                EXPECT_EQ(r.blocksDegraded, 0u)
                    << profile.name << " " << algorithmName(kind);
            }
        }
    }
}

TEST(Pipeline, OversizedBlockFallsBackInsteadOfDegrading)
{
    std::string text = readFile(corpusPath("oversized_block.s"));
    DiagnosticEngine diags;
    Program prog = parseAssembly(text, diags, "oversized_block.s");
    EXPECT_EQ(diags.errorCount(), 0u);
    stampMemGenerations(prog);
    MachineModel machine = sparcstation2();

    PipelineOptions opts;
    opts.builder = BuilderKind::N2Forward;
    opts.maxBlockInsts = 400;
    ProgramResult r = runPipeline(prog, machine, opts);
    EXPECT_EQ(r.builderFallbacks, 1u);
    EXPECT_EQ(r.blocksDegraded, 0u);
    EXPECT_EQ(r.verifierRejections, 0u);
    ASSERT_EQ(r.blockIssues.size(), 1u);
    EXPECT_EQ(r.blockIssues[0].stage, "fallback");
    EXPECT_FALSE(r.blockIssues[0].degraded);

    // Same run without the window: the n**2 builder handles it (just
    // slower), so no fallback is recorded.
    Program prog2 = parseAssembly(text);
    stampMemGenerations(prog2);
    opts.maxBlockInsts = 0;
    r = runPipeline(prog2, machine, opts);
    EXPECT_EQ(r.builderFallbacks, 0u);
    EXPECT_EQ(r.blocksDegraded, 0u);
}

TEST(Pipeline, ScheduleBlockFallsBackOnOversizedBlock)
{
    // scheduleBlock (the timeline command) climbs the same rung one
    // as runPipeline: no n**2 compares.
    std::string text = readFile(corpusPath("oversized_block.s"));
    Program prog = parseAssembly(text);
    auto blocks = partitionBlocks(prog);
    ASSERT_EQ(blocks.size(), 1u);
    MachineModel machine = sparcstation2();

    PipelineOptions opts;
    opts.builder = BuilderKind::N2Forward;
    opts.maxBlockInsts = 400;
    obs::setEnabled(true);
    obs::CounterShard shard;
    {
        obs::ScopedCounterShard scope(shard);
        BlockScheduleResult r =
            scheduleBlock(BlockView(prog, blocks[0]), machine, opts);
        EXPECT_TRUE(r.builderFallback);
        EXPECT_EQ(r.sched.order.size(), blocks[0].size());
    }
    obs::setEnabled(false);
    EXPECT_EQ(shard.value("dag.pairwise_compares"), 0u);
    EXPECT_EQ(shard.value("robust.builder_fallbacks"), 1u);
    EXPECT_GT(shard.value("dag.table_probes"), 0u);
}

TEST(Pipeline, BudgetOverrunDegradesToOriginalOrder)
{
    MachineModel machine = sparcstation2();
    Program prog = cachedProgram("dfa");
    std::vector<Schedule> schedules;
    PipelineOptions opts;
    opts.evaluate = true;
    opts.maxBlockSeconds = 1e-12; // every block overruns
    opts.schedules = &schedules;
    ProgramResult r = runPipeline(prog, machine, opts);
    EXPECT_EQ(r.blocksDegraded, r.numBlocks);
    EXPECT_EQ(r.blockIssues.size(), r.numBlocks);
    // Degraded blocks claim no speedup...
    EXPECT_EQ(r.cyclesOriginal, r.cyclesScheduled);
    // ...and emit the identity order with no timing claim.
    ASSERT_EQ(schedules.size(), r.numBlocks);
    for (const Schedule &sched : schedules) {
        std::vector<std::uint32_t> identity(sched.order.size());
        std::iota(identity.begin(), identity.end(), 0u);
        EXPECT_EQ(sched.order, identity);
        EXPECT_TRUE(sched.issueCycle.empty());
    }
    for (const ProgramResult::BlockIssue &issue : r.blockIssues) {
        EXPECT_EQ(issue.stage, "budget");
        EXPECT_TRUE(issue.degraded);
    }
}

TEST(Pipeline, StrictModePropagatesBudgetDegradationsOnly)
{
    // containFaults=false still honours the budget ladder (an explicit
    // liveness knob), but a verifier rejection would propagate.  With
    // healthy inputs nothing throws either way.
    MachineModel machine = sparcstation2();
    Program prog = cachedProgram("dfa");
    PipelineOptions opts;
    opts.containFaults = false;
    EXPECT_NO_THROW(runPipeline(prog, machine, opts));
}

TEST(Pipeline, DegradationIsDeterministicAcrossThreadCounts)
{
    MachineModel machine = sparcstation2();
    PipelineOptions base;
    base.maxBlockSeconds = 1e-12;
    std::vector<Schedule> one, four;
    Program p1 = cachedProgram("regex");
    base.threads = 1;
    base.schedules = &one;
    ProgramResult r1 = runPipeline(p1, machine, base);
    Program p4 = cachedProgram("regex");
    base.threads = 4;
    base.schedules = &four;
    ProgramResult r4 = runPipeline(p4, machine, base);
    EXPECT_EQ(r1.blocksDegraded, r4.blocksDegraded);
    ASSERT_EQ(one.size(), four.size());
    for (std::size_t b = 0; b < one.size(); ++b)
        EXPECT_EQ(one[b].order, four[b].order) << "block " << b;
}

// --- Parser warning channel ----------------------------------------

TEST(ParserWarnings, OutOfRangeImmediateWarnsButParses)
{
    DiagnosticEngine diags;
    Program prog =
        parseAssembly("add %g1, 5000, %g2\n", diags, "imm.s");
    EXPECT_EQ(diags.errorCount(), 0u);
    ASSERT_EQ(diags.warningCount(), 1u);
    EXPECT_NE(diags.render().find("13-bit"), std::string::npos);
    EXPECT_EQ(prog.size(), 1u); // the instruction survives
}

TEST(ParserWarnings, OutOfRangeMemoryOffsetWarns)
{
    DiagnosticEngine diags;
    parseAssembly("ld [%g1 + 8192], %g2\n", diags, "mem.s");
    EXPECT_EQ(diags.errorCount(), 0u);
    EXPECT_EQ(diags.warningCount(), 1u);
    EXPECT_NE(diags.render().find("memory offset"), std::string::npos);
}

TEST(ParserWarnings, BoundaryImmediatesAndSethiAreClean)
{
    DiagnosticEngine diags;
    parseAssembly("add %g1, 4095, %g2\n"
                  "add %g1, -4096, %g3\n"
                  "sethi %hi(buf), %g4\n", // 22-bit field, not simm13
                  diags, "edge.s");
    EXPECT_EQ(diags.errorCount(), 0u);
    EXPECT_EQ(diags.warningCount(), 0u) << diags.render();
}

TEST(ParserWarnings, DoublyDefinedLabelWarns)
{
    DiagnosticEngine diags;
    Program prog = parseAssembly("top:\n"
                                 "    nop\n"
                                 "top:\n"
                                 "    nop\n",
                                 diags, "dup.s");
    EXPECT_EQ(diags.errorCount(), 0u);
    ASSERT_EQ(diags.warningCount(), 1u);
    EXPECT_NE(diags.render().find("defined more than once"),
              std::string::npos);
    EXPECT_EQ(prog.size(), 2u);
}

TEST(ParserWarnings, StrictModeDoesNotThrowOnWarnings)
{
    DiagnosticEngine::Options dopts;
    dopts.strict = true;
    DiagnosticEngine diags(dopts);
    Program prog;
    EXPECT_NO_THROW(prog = parseAssembly("add %g1, 99999, %g2\n",
                                         diags, "warn.s"));
    EXPECT_EQ(diags.warningCount(), 1u);
    EXPECT_EQ(prog.size(), 1u);
}

TEST(ParserWarnings, SurfaceInStatsJson)
{
    ProgramResult r;
    r.parseErrors = 1;
    r.parseWarnings = 5;
    obs::RunMeta meta;
    std::string json =
        obs::programResultJson(r, meta, obs::CounterSet{});
    EXPECT_NE(json.find("\"parse_errors\":1"), std::string::npos);
    EXPECT_NE(json.find("\"parse_warnings\":5"), std::string::npos);
}

// --- Delay-slot schedules through the verifier ---------------------

struct BlockScheduleFixture
{
    Program prog;
    std::vector<BasicBlock> blocks;
};

/** A block whose delay slot fills: independent add, cmp feeding the
 * block-ending branch. */
BlockScheduleFixture
delaySlotFixture()
{
    BlockScheduleFixture fx;
    fx.prog = parseAssembly("ld [%o0], %g1\n"
                            "add %g2, %g3, %g4\n"
                            "cmp %g1, 0\n"
                            "bne out\n");
    fx.blocks = partitionBlocks(fx.prog);
    return fx;
}

TEST(VerifierDelaySlot, AcceptsFilledScheduleInDelaySlotMode)
{
    BlockScheduleFixture fx = delaySlotFixture();
    MachineModel machine = sparcstation2();
    Dag dag = TableForwardBuilder().build(
        BlockView(fx.prog, fx.blocks[0]), machine, BuildOptions{});
    Schedule sched = originalOrderSchedule(dag);
    ASSERT_TRUE(fillBranchDelaySlot(dag, sched).filled);

    // Default mode: the filler behind the branch is a violation.
    VerifyResult strict = verifySchedule(dag, sched, machine);
    EXPECT_FALSE(strict.ok());

    // Delay-slot mode: the same order is legal.
    VerifyOptions vopts;
    vopts.allowDelaySlot = true;
    VerifyResult relaxed = verifySchedule(dag, sched, machine, vopts);
    EXPECT_TRUE(relaxed.ok()) << relaxed.summary();
}

TEST(VerifierDelaySlot, RejectsDataViolationEvenInDelaySlotMode)
{
    BlockScheduleFixture fx = delaySlotFixture();
    MachineModel machine = sparcstation2();
    Dag dag = TableForwardBuilder().build(
        BlockView(fx.prog, fx.blocks[0]), machine, BuildOptions{});
    Schedule sched = originalOrderSchedule(dag);
    ASSERT_TRUE(fillBranchDelaySlot(dag, sched).filled);

    // Corrupt the filled order: put the cmp (which feeds the branch
    // through a data arc) into the slot instead.  allowDelaySlot only
    // relaxes the advisory control anchor, never data dependence.
    std::swap(sched.order[sched.order.size() - 1],
              sched.order[sched.order.size() - 3]);
    sched.issueCycle.clear(); // orders only, no timing claim
    VerifyOptions vopts;
    vopts.allowDelaySlot = true;
    EXPECT_FALSE(verifySchedule(dag, sched, machine, vopts).ok());
}

TEST(VerifierDelaySlot, UnfilledScheduleStillVerifiesInBothModes)
{
    BlockScheduleFixture fx = delaySlotFixture();
    MachineModel machine = sparcstation2();
    Dag dag = TableForwardBuilder().build(
        BlockView(fx.prog, fx.blocks[0]), machine, BuildOptions{});
    Schedule sched = originalOrderSchedule(dag);
    EXPECT_TRUE(verifySchedule(dag, sched, machine).ok());
    VerifyOptions vopts;
    vopts.allowDelaySlot = true;
    EXPECT_TRUE(verifySchedule(dag, sched, machine, vopts).ok());
}

} // namespace
} // namespace sched91
