/**
 * @file
 * Basic-block partitioning tests: block-ending rules (branch, call,
 * save/restore), delay-slot accounting, labels, instruction windows,
 * and memory-generation stamping.
 */

#include <gtest/gtest.h>

#include "ir/basic_block.hh"
#include "ir/parser.hh"

namespace sched91
{
namespace
{

Program
parse(const char *text)
{
    return parseAssembly(text);
}

TEST(Partition, BranchEndsBlockDelaySlotFollows)
{
    // Per the Table 3 note, the delay-slot instruction counts with the
    // *following* block.
    Program p = parse(
        "add %g1, %g2, %g3\n"
        "bne x\n"
        "nop\n" // delay slot -> next block
        "sub %g1, %g2, %g4\n");
    auto blocks = partitionBlocks(p);
    ASSERT_EQ(blocks.size(), 2u);
    EXPECT_EQ(blocks[0].begin, 0u);
    EXPECT_EQ(blocks[0].end, 2u);
    EXPECT_EQ(blocks[1].begin, 2u);
    EXPECT_EQ(blocks[1].end, 4u);
}

TEST(Partition, CallEndsBlockByDefault)
{
    Program p = parse("call f\nadd %g1, %g2, %g3\n");
    EXPECT_EQ(partitionBlocks(p).size(), 2u);

    PartitionOptions opts;
    opts.callsEndBlocks = false;
    EXPECT_EQ(partitionBlocks(p, opts).size(), 1u);
}

TEST(Partition, WindowOpsEndBlocks)
{
    Program p = parse(
        "save %sp, -96, %sp\n"
        "add %g1, %g2, %g3\n"
        "restore\n"
        "retl\n"
        "nop\n");
    auto blocks = partitionBlocks(p);
    // save | add restore | retl | nop
    ASSERT_EQ(blocks.size(), 4u);
    EXPECT_EQ(blocks[0].size(), 1u);
    EXPECT_EQ(blocks[1].size(), 2u);
}

TEST(Partition, LabelsStartBlocks)
{
    Program p = parse(
        "add %g1, %g2, %g3\n"
        "loop:\n"
        "sub %g3, 1, %g3\n"
        "ba loop\n");
    auto blocks = partitionBlocks(p);
    ASSERT_EQ(blocks.size(), 2u);
    EXPECT_EQ(blocks[1].begin, 1u);
}

TEST(Partition, WindowSplitsLargeBlocks)
{
    std::string text;
    for (int i = 0; i < 100; ++i)
        text += "add %g1, %g2, %g3\n";
    Program p = parse(text.c_str());

    PartitionOptions opts;
    opts.window = 30;
    auto blocks = partitionBlocks(p, opts);
    ASSERT_EQ(blocks.size(), 4u); // 30+30+30+10
    EXPECT_EQ(blocks[0].size(), 30u);
    EXPECT_EQ(blocks[3].size(), 10u);
}

TEST(Partition, BlocksCoverProgramExactly)
{
    Program p = parse(
        "add %g1, %g2, %g3\ncmp %g3, 4\nbne a\nnop\n"
        "a:\nld [%o0], %g1\ncall f\nsub %g1, 1, %g2\nretl\nnop\n");
    auto blocks = partitionBlocks(p);
    std::uint32_t covered = 0;
    std::uint32_t prev_end = 0;
    for (const auto &bb : blocks) {
        EXPECT_EQ(bb.begin, prev_end);
        EXPECT_GT(bb.end, bb.begin);
        covered += bb.size();
        prev_end = bb.end;
    }
    EXPECT_EQ(covered, p.size());
}

// Generations are stamped as each instruction joins the Program
// (Program::commit), which parseAssembly, its lane merge and the
// reference parser all go through, so only literal values show a fault
// in the stamping itself.

TEST(Generations, BaseRedefinitionBumpsStamp)
{
    const Program p = parse(
        "ld [%o0+4], %g1\n"
        "add %o0, 8, %o0\n"
        "ld [%o0+4], %g2\n");
    EXPECT_EQ(p[0].mem()->baseGen, 0u);
    EXPECT_EQ(p[2].mem()->baseGen, 1u);
}

TEST(Generations, UnrelatedDefsDoNotBump)
{
    const Program p = parse(
        "ld [%o0+4], %g1\n"
        "add %g1, 8, %g2\n"
        "ld [%o0+8], %g3\n");
    EXPECT_EQ(p[0].mem()->baseGen, p[2].mem()->baseGen);
}

TEST(Generations, IndexRegistersCountTheirOwnDefinitions)
{
    const Program p = parse(
        "ld [%o0+%o1], %g1\n"
        "add %o1, 1, %o1\n"
        "st %g1, [%o0+%o1]\n"
        "ldd [%o2], %o0\n" // defines the pair %o0, %o1
        "ld [%o1+%o0], %g2\n"
        "ld [%o2], %g3\n");
    ASSERT_EQ(p.size(), 6u);
    EXPECT_EQ(p[0].mem()->baseGen, 0u);
    EXPECT_EQ(p[0].mem()->indexGen, 0u);
    EXPECT_EQ(p[2].mem()->baseGen, 0u);
    EXPECT_EQ(p[2].mem()->indexGen, 1u);
    EXPECT_EQ(p[4].mem()->baseGen, 2u); // %o1: add, ldd
    EXPECT_EQ(p[4].mem()->indexGen, 1u); // %o0: ldd
    EXPECT_EQ(p[5].mem()->baseGen, 0u);
    EXPECT_EQ(p[5].mem()->indexGen, 0u); // no index register
}

TEST(Generations, CallsDefineTheOutgoingRegistersAndO7)
{
    const Program p = parse(
        "ld [%o0+4], %g1\n"
        "call f\n"
        "nop\n"
        "ld [%o0+4], %g2\n"
        "ld [%sp+64], %g3\n"
        "ld [%o5+%o7], %g4\n"
        "call g\n"
        "nop\n"
        "ld [%o7+%i0], %g5\n");
    ASSERT_EQ(p.size(), 9u);
    EXPECT_EQ(p[0].mem()->baseGen, 0u);
    EXPECT_EQ(p[3].mem()->baseGen, 1u); // %o0
    EXPECT_EQ(p[4].mem()->baseGen, 0u); // %sp is not clobbered
    EXPECT_EQ(p[5].mem()->baseGen, 1u); // %o5
    EXPECT_EQ(p[5].mem()->indexGen, 1u); // %o7
    EXPECT_EQ(p[8].mem()->baseGen, 2u); // %o7
    EXPECT_EQ(p[8].mem()->indexGen, 0u); // %i0
}

TEST(Generations, RestoreDefinesItsDestinationOnly)
{
    const Program p = parse(
        "ld [%i0+4], %g1\n"
        "restore %g1, %g2, %i0\n"
        "ld [%i0+4], %g2\n"
        "ld [%g1+%g2], %g3\n"
        "restore\n"
        "ld [%i0+4], %g4\n"
        "save %sp, -96, %sp\n"
        "ld [%sp+%i0], %g5\n");
    ASSERT_EQ(p.size(), 8u);
    EXPECT_EQ(p[0].mem()->baseGen, 0u);
    EXPECT_EQ(p[2].mem()->baseGen, 1u); // restore's %i0
    EXPECT_EQ(p[3].mem()->baseGen, 1u); // %g1: the first load only
    EXPECT_EQ(p[3].mem()->indexGen, 1u); // %g2: the second load only
    EXPECT_EQ(p[5].mem()->baseGen, 1u); // a bare restore defines none
    EXPECT_EQ(p[7].mem()->baseGen, 1u); // save's %sp
    EXPECT_EQ(p[7].mem()->indexGen, 1u);
}

TEST(Structure, MeasuresTable3Quantities)
{
    Program p = parse(
        "ld [%o0+4], %g1\n"
        "ld [%o0+4], %g2\n"
        "ld [%o0+8], %g3\n"
        "bne x\n"
        "nop\n"
        "add %g1, %g2, %g3\n");
    auto blocks = partitionBlocks(p);
    auto s = measureStructure(p, blocks);
    EXPECT_EQ(s.numBlocks, 2u);
    EXPECT_EQ(s.numInsts, 6u);
    EXPECT_DOUBLE_EQ(s.instsPerBlock.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.memExprsPerBlock.max(), 2.0); // [%o0+4], [%o0+8]
}

} // namespace
} // namespace sched91
