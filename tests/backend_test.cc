/**
 * @file
 * Whole-program backend tests: the prepass -> allocate -> postpass
 * flow must preserve memory semantics block by block, account spills
 * correctly, and degrade gracefully on unallocatable blocks.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/backend.hh"
#include "fuzz/program_gen.hh"
#include "ir/parser.hh"
#include "machine/presets.hh"
#include "sim/executor.hh"
#include "workload/generator.hh"
#include "workload/kernels.hh"

namespace sched91
{
namespace
{

/** Per-block memory-effect equivalence between two programs. */
void
expectSameMemoryEffects(Program &original, Program &rewritten,
                        std::uint64_t seed)
{
    auto blocks_a = partitionBlocks(original);
    auto blocks_b = partitionBlocks(rewritten);
    ASSERT_EQ(blocks_a.size(), blocks_b.size());

    for (std::size_t i = 0; i < blocks_a.size(); ++i) {
        BlockView a(original, blocks_a[i]);
        BlockView b(rewritten, blocks_b[i]);

        std::vector<std::uint32_t> ida(a.size());
        for (std::uint32_t k = 0; k < a.size(); ++k)
            ida[k] = k;
        std::vector<std::uint32_t> idb(b.size());
        for (std::uint32_t k = 0; k < b.size(); ++k)
            idb[k] = k;

        ExecState sa = runBlock(a, ida, seed);
        ExecState sb = runBlock(b, idb, seed);
        for (const auto &[addr, byte] : sa.memory) {
            auto it = sb.memory.find(addr);
            ASSERT_NE(it, sb.memory.end())
                << "block " << i << " missing byte @" << addr;
            EXPECT_EQ(it->second, byte) << "block " << i;
        }
    }
}

TEST(Backend, CompilesKernelsPreservingMemoryEffects)
{
    MachineModel machine = sparcstation2();
    for (const std::string &kernel :
         {std::string("livermore1"), std::string("divide-chain")}) {
        Program prog = kernelProgram(kernel);
        BackendOptions opts;
        opts.allocator.fpPool = {0, 2, 4, 6, 8};
        opts.allocator.intPool = {8, 9, 10, 11};
        BackendResult result = compileProgram(prog, machine, opts);
        EXPECT_GT(result.postpass.cyclesScheduled, 0);
        expectSameMemoryEffects(prog, result.program, 61);
    }
}

TEST(Backend, SyntheticProgramEndToEnd)
{
    WorkloadProfile p = profileByName("lloops");
    p.numBlocks = 10;
    p.totalInsts = 220;
    p.maxBlock = 40;
    p.secondBlock = 0;
    p.callProb = 0.0;
    Program prog = generateProgram(p);

    MachineModel machine = sparcstation2();
    BackendOptions opts;
    opts.pipeline.build.memPolicy = AliasPolicy::SymbolicExpr;
    opts.allocator.fpPool = {0, 2, 4, 6, 8, 10};
    opts.allocator.intPool = {8, 9, 10, 11, 12, 13};
    BackendResult result = compileProgram(prog, machine, opts);

    EXPECT_EQ(result.prepass.numBlocks, 10u);
    EXPECT_GT(result.allocatedBlocks, 0u);
    expectSameMemoryEffects(prog, result.program, 67);
}

TEST(Backend, TightPoolSpillsMore)
{
    Program prog1 = kernelProgram("livermore1");
    Program prog2 = kernelProgram("livermore1");
    MachineModel machine = sparcstation2();

    BackendOptions tight;
    tight.allocator.fpPool = {0, 2, 4};
    BackendResult r_tight = compileProgram(prog1, machine, tight);

    BackendOptions roomy;
    roomy.allocator.fpPool = {0, 2, 4, 6, 8, 10, 12, 14};
    BackendResult r_roomy = compileProgram(prog2, machine, roomy);

    EXPECT_GE(r_tight.spillStores + r_tight.spillLoads,
              r_roomy.spillStores + r_roomy.spillLoads);
}

TEST(Backend, NoAllocationPassThrough)
{
    Program prog = kernelProgram("daxpy");
    MachineModel machine = sparcstation2();
    BackendOptions opts;
    opts.allocate = false;
    BackendResult result = compileProgram(prog, machine, opts);
    EXPECT_EQ(result.spillStores + result.spillLoads, 0);
    EXPECT_EQ(result.allocatedBlocks, 0u);
    expectSameMemoryEffects(prog, result.program, 71);
}

TEST(Backend, UnallocatableBlocksStillScheduled)
{
    // A block with a call cannot be allocated but must still flow
    // through (scheduled, unallocated).
    Program prog = parseAssembly(
        "ld [%i0], %l0\n"
        "add %l0, 1, %o0\n"
        "call helper\n"
        "next:\n"
        "ld [%i0+8], %l1\n"
        "st %l1, [%i1]\n");
    MachineModel machine = sparcstation2();
    BackendOptions opts;
    BackendResult result = compileProgram(prog, machine, opts);
    EXPECT_EQ(result.prepass.numBlocks, 2u);
    EXPECT_EQ(result.allocatedBlocks, 1u);
    EXPECT_EQ(result.program.size(), prog.size());
}

/** Every issue of @p r's two passes and its allocator, one a line. */
std::string
issueLines(const BackendResult &r)
{
    std::ostringstream os;
    auto add = [&](const char *pass,
                   const std::vector<ProgramResult::BlockIssue> &issues) {
        for (const ProgramResult::BlockIssue &issue : issues)
            os << pass << " block " << issue.block << " [" << issue.stage
               << "] " << issue.degraded << ": " << issue.reason << '\n';
    };
    add("prepass", r.prepass.blockIssues);
    add("alloc", r.alloc);
    add("postpass", r.postpass.blockIssues);
    return os.str();
}

TEST(Backend, CompilesTheSameAtOneAndFourLanes)
{
    // Many blocks, some past maxBlockInsts under an n**2 builder: what
    // compileProgram emits and reports does not depend on how either
    // pass spread the blocks over lanes.
    MachineModel machine = sparcstation2();
    std::size_t fallbacks = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        fuzz::GenParams params;
        params.seed = seed;
        params.numBlocks = 8;
        params.maxBlockSize = 64;
        const std::string source = fuzz::generateSource(params);
        BackendResult runs[2];
        for (int side = 0; side < 2; ++side) {
            Program prog = parseAssembly(source);
            BackendOptions opts;
            opts.pipeline.builder = BuilderKind::N2Forward;
            opts.pipeline.maxBlockInsts = 40;
            opts.pipeline.threads = side == 0 ? 1 : 4;
            runs[side] = compileProgram(prog, machine, opts);
        }
        const BackendResult &one = runs[0];
        const BackendResult &four = runs[1];
        EXPECT_EQ(one.program.toString(), four.program.toString())
            << "seed " << seed;
        EXPECT_EQ(one.allocatedBlocks, four.allocatedBlocks);
        EXPECT_EQ(one.spillStores, four.spillStores) << "seed " << seed;
        EXPECT_EQ(one.spillLoads, four.spillLoads) << "seed " << seed;
        EXPECT_GT(one.postpass.cyclesScheduled, 0);
        EXPECT_EQ(one.postpass.cyclesScheduled,
                  four.postpass.cyclesScheduled)
            << "seed " << seed;
        EXPECT_EQ(issueLines(one), issueLines(four)) << "seed " << seed;
        fallbacks +=
            one.prepass.builderFallbacks + one.postpass.builderFallbacks;
    }
    EXPECT_GT(fallbacks, 0u); // rung one fired somewhere
}

} // namespace
} // namespace sched91
