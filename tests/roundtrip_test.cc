/**
 * @file
 * Assembly rendering round-trip property tests: rendering a program
 * (including synthesized workloads) and re-parsing it must reproduce
 * the same dependence semantics — opcode, defs, uses, immediates,
 * memory expressions, and block structure.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "ir/basic_block.hh"
#include "ir/parser.hh"
#include "workload/generator.hh"
#include "workload/kernels.hh"

namespace sched91
{
namespace
{

void
expectSameSemantics(const Program &a, const Program &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const Instruction &x = a[i];
        const Instruction &y = b[i];
        EXPECT_EQ(x.op(), y.op()) << i << ": " << x.toString();
        EXPECT_TRUE(std::ranges::equal(x.defs(), y.defs()))
            << i << ": " << x.toString();
        EXPECT_TRUE(std::ranges::equal(x.uses(), y.uses()))
            << i << ": " << x.toString();
        EXPECT_EQ(x.usesImm(), y.usesImm()) << i;
        if (x.usesImm()) {
            EXPECT_EQ(x.imm(), y.imm()) << i;
        }
        EXPECT_EQ(x.mem().has_value(), y.mem().has_value()) << i;
        if (x.mem().has_value()) {
            EXPECT_EQ(x.mem()->exprKey(), y.mem()->exprKey()) << i;
            EXPECT_EQ(x.mem()->width, y.mem()->width)
                << i << ": " << x.toString();
        }
        EXPECT_EQ(x.target(), y.target()) << i;
        EXPECT_EQ(x.annul(), y.annul()) << i;
    }
}

TEST(RoundTrip, Kernels)
{
    for (const std::string &name : kernelNames()) {
        Program orig = kernelProgram(name);
        Program back = parseAssembly(orig.toString());
        expectSameSemantics(orig, back);
    }
}

TEST(RoundTrip, SyntheticPrograms)
{
    for (const char *profile : {"grep", "lloops"}) {
        WorkloadProfile p = profileByName(profile);
        p.numBlocks = 30;
        p.totalInsts = 400;
        p.maxBlock = 64;
        p.secondBlock = 0;
        Program orig = generateProgram(p);
        Program back = parseAssembly(orig.toString());
        expectSameSemantics(orig, back);
    }
}

TEST(RoundTrip, BlockStructureSurvives)
{
    WorkloadProfile p = profileByName("dfa");
    p.numBlocks = 25;
    p.totalInsts = 200;
    p.maxBlock = 30;
    Program orig = generateProgram(p);
    Program back = parseAssembly(orig.toString());

    auto blocks_a = partitionBlocks(orig);
    auto blocks_b = partitionBlocks(back);
    ASSERT_EQ(blocks_a.size(), blocks_b.size());
    for (std::size_t i = 0; i < blocks_a.size(); ++i) {
        EXPECT_EQ(blocks_a[i].begin, blocks_b[i].begin);
        EXPECT_EQ(blocks_a[i].end, blocks_b[i].end);
    }
}

TEST(RoundTrip, GenerationStampsMatch)
{
    WorkloadProfile p = profileByName("linpack");
    p.numBlocks = 10;
    p.totalInsts = 300;
    p.maxBlock = 80;
    Program orig = generateProgram(p);
    Program back = parseAssembly(orig.toString());
    stampMemGenerations(back);
    for (std::size_t i = 0; i < orig.size(); ++i) {
        if (!orig[i].mem().has_value())
            continue;
        EXPECT_EQ(orig[i].mem()->baseGen, back[i].mem()->baseGen) << i;
    }
}

TEST(RoundTrip, RenderedFormsAreStable)
{
    // render(parse(render(p))) == render(p): idempotent printing.
    Program orig = kernelProgram("tomcatv");
    std::string once = orig.toString();
    Program back = parseAssembly(once);
    EXPECT_EQ(back.toString(), once);
}

} // namespace
} // namespace sched91
