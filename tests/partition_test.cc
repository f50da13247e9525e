/**
 * @file
 * partitionBlocks() on lanes against one lane: the same blocks, the
 * same generations on every memory operand and the same
 * `dag.window_flushes`, on the nine Table 3 programs and on texts with
 * a label or a block-ending instruction at, just before or just after
 * every range boundary, at windows 0, 7 and 1000.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ir/basic_block.hh"
#include "ir/parser.hh"
#include "obs/counters.hh"
#include "obs/events.hh"
#include "support/string_util.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace sched91
{
namespace
{

/** What a partition made: blocks, every generation, the flushes. */
struct Outcome
{
    std::vector<std::uint32_t> bounds; ///< begin, end of each block
    std::vector<std::uint32_t> gens;   ///< baseGen, indexGen per operand
    std::uint64_t flushes = 0;
};

/** Partition a copy of @p prog on @p lanes lanes.  Every generation
 * is set to @p poison first, so one that is not stamped shows. */
Outcome
partitionCopy(const Program &prog, int window, unsigned lanes,
              std::uint32_t poison)
{
    Program copy = prog;
    for (Instruction &inst : copy.insts())
        if (auto &mem = inst.mem())
            mem->baseGen = mem->indexGen = poison;
    PartitionOptions opts;
    opts.window = window;
    Outcome out;
    obs::CounterShard shard;
    {
        obs::ScopedCounterShard scope(shard);
        for (const BasicBlock &bb : partitionBlocks(copy, opts, lanes)) {
            out.bounds.push_back(bb.begin);
            out.bounds.push_back(bb.end);
        }
    }
    for (const Instruction &inst : copy.insts())
        if (const auto &mem = inst.mem()) {
            out.gens.push_back(mem->baseGen);
            out.gens.push_back(mem->indexGen);
        }
    out.flushes = shard.value(obs::ev::dagWindowFlushes.id());
    return out;
}

/** Require every lane count to partition @p prog as one lane does. */
void
expectSameAtEveryLaneCount(const Program &prog, const std::string &what)
{
    for (int window : {0, 7, 1000}) {
        const Outcome one = partitionCopy(prog, window, 1, 0xdead);
        ASSERT_FALSE(one.bounds.empty() && prog.size() != 0) << what;
        for (unsigned lanes : {2u, 3u, 4u, 8u}) {
            SCOPED_TRACE(what + ", window " + std::to_string(window) +
                         ", " + std::to_string(lanes) + " lanes");
            const Outcome got = partitionCopy(prog, window, lanes, 0xbeef);
            ASSERT_EQ(got.bounds, one.bounds);
            ASSERT_EQ(got.gens, one.gens);
            EXPECT_EQ(got.flushes, one.flushes);
        }
    }
}

class LanePartition : public ::testing::Test
{
  protected:
    void SetUp() override { obs::setEnabled(true); }
    void TearDown() override { obs::setEnabled(false); }
};

TEST_F(LanePartition, Table3ProgramsMatchOneLane)
{
    for (const WorkloadProfile &profile : allProfiles()) {
        const Program prog = generateProgram(profile);
        expectSameAtEveryLaneCount(prog, profile.name);
    }
}

/** The first instruction of each range at each lane count tried. */
std::vector<std::uint32_t>
rangeStarts(std::uint32_t n)
{
    std::vector<std::uint32_t> starts;
    for (std::uint32_t lanes : {2u, 3u, 4u, 8u})
        for (std::uint32_t k = 1; k < lanes; ++k)
            starts.push_back(static_cast<std::uint32_t>(
                std::uint64_t{n} * k / lanes));
    return starts;
}

/**
 * @p n instructions that load, store and redefine the registers their
 * addresses use, with @p mark's line (a label, a branch, a call or a
 * save) put at every range start plus @p offset.
 */
Program
markedProgram(std::uint32_t n, const std::string &mark, int offset)
{
    std::vector<bool> marked(n, false);
    for (std::uint32_t start : rangeStarts(n)) {
        const long at = static_cast<long>(start) + offset;
        if (at >= 0 && at < static_cast<long>(n))
            marked[static_cast<std::size_t>(at)] = true;
    }
    const bool label = mark == "label";
    std::string text;
    for (std::uint32_t i = 0; i < n; ++i) {
        if (label && marked[i])
            text += numbered("L", i) + ":\n";
        if (!label && marked[i]) {
            text += "    " + mark + "\n";
            continue;
        }
        switch (i % 5) {
          case 0: text += "    ld [%o0 + 8], %o1\n"; break;
          case 1: text += "    add %o0, 4, %o0\n"; break;
          case 2: text += "    st %o1, [%o0 + %o2]\n"; break;
          case 3: text += "    add %o2, %o1, %o2\n"; break;
          default: text += "    ldd [%o2 + 16], %f2\n"; break;
        }
    }
    Program prog = parseAssembly(text);
    EXPECT_EQ(prog.size(), n);
    return prog;
}

TEST_F(LanePartition, MarksAtEveryRangeBoundaryMatchOneLane)
{
    for (const std::string mark :
         {"label", "ba L0", "call foo", "save %sp, -96, %sp"})
        for (int offset : {-1, 0, 1}) {
            const std::string what =
                mark + " at boundary " + std::to_string(offset);
            expectSameAtEveryLaneCount(markedProgram(5000, mark, offset),
                                       what);
        }
}

TEST_F(LanePartition, ProgramsShorterThanTheLanesMatchOneLane)
{
    for (std::uint32_t n = 0; n < 24; ++n) {
        expectSameAtEveryLaneCount(markedProgram(n, "label", 0),
                                   std::to_string(n) + " labelled");
        expectSameAtEveryLaneCount(markedProgram(n, "ba L0", 0),
                                   std::to_string(n) + " branching");
    }
}

} // namespace
} // namespace sched91
