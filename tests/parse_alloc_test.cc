/**
 * @file
 * Allocation budget of parseAssembly(), amortized per instruction:
 * 0.172 over the Table 3 corpus parsed on four lanes and 0.083 over
 * program_gen programs shaped like the serve corpus, each the reading
 * when the label tables came to be reserved once per parse, plus 10%.
 * Instructions keep their operands and text inline and expressions
 * are interned with no node each, so what remains is the program's
 * own tables (instructions, a node per label, the growth of the label
 * map and of the expression table) and, on lanes, each chunk's.
 *
 * Its own executable: it replaces the global operator new.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "fuzz/program_gen.hh"
#include "ir/parser.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace
{

std::atomic<bool> counting{false};
std::atomic<std::size_t> allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

// Out of line, so the compiler never pairs an inlined free() with a
// call to operator new (GCC's -Wmismatched-new-delete).
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace sched91
{
namespace
{

/**
 * Allocations per instruction while parsing @p sources leniently on
 * four lanes: a fixed count, since each lane's chunk allocates.  (A
 * text below kLaneParseBytes parses on one.)
 */
double
allocationsPerInstruction(const std::vector<std::string> &sources)
{
    constexpr unsigned kLanes = 4;
    DiagnosticEngine::Options opts;
    opts.maxErrors = 0;
    {
        // Warm up: first-use statics (the mnemonic map, counters) and
        // the lanes.
        DiagnosticEngine diags(opts);
        parseAssembly(sources.front(), diags, "<input>", kLanes);
    }
    std::size_t insts = 0;
    std::size_t allocs = 0;
    for (const std::string &src : sources) {
        DiagnosticEngine diags(opts);
        allocations = 0;
        counting = true;
        Program prog = parseAssembly(src, diags, "<input>", kLanes);
        counting = false;
        allocs += allocations;
        insts += prog.size();
        EXPECT_EQ(diags.errorCount(), 0u) << diags.render();
    }
    EXPECT_GT(insts, 0u);
    return static_cast<double>(allocs) / static_cast<double>(insts);
}

TEST(ParseAllocations, AtMost172PerThousandInstructionsOnTable3Corpus)
{
    std::vector<std::string> sources;
    for (const WorkloadProfile &profile : allProfiles())
        sources.push_back(generateProgram(profile).toString());
    double per_inst = allocationsPerInstruction(sources);
    std::printf("table3: %.3f allocations per instruction, "
                "sizeof(Instruction) = %zu\n",
                per_inst, sizeof(Instruction));
    EXPECT_LE(per_inst, 0.172);
}

TEST(ParseAllocations, AtMost83PerThousandInstructionsOnServeShapedPrograms)
{
    // The serve corpus's shape: 1-8 blocks of at most 64 instructions.
    std::vector<std::string> sources;
    for (int i = 0; i < 2048; ++i) {
        fuzz::GenParams p;
        p.seed = 801 + static_cast<std::uint64_t>(i);
        p.numBlocks = 1 + i % 8;
        p.maxBlockSize = 64;
        sources.push_back(fuzz::generateSource(p));
    }
    double per_inst = allocationsPerInstruction(sources);
    std::printf("serve-shaped: %.3f allocations per instruction\n",
                per_inst);
    EXPECT_LE(per_inst, 0.083);
}

} // namespace
} // namespace sched91
