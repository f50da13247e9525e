/**
 * @file
 * Basic block partitioning.
 *
 * Per Section 2 of the paper: branches and procedure calls end basic
 * blocks, and "register window alteration instructions (SAVE and
 * RESTORE) mark the end of a basic block, since register identifiers
 * name different physical resources on different sides".  Per the
 * Table 3 note, "a delay slot instruction, including that for an
 * annulling branch, is included in the counts for the basic block
 * following the branch" — so a block ends *at* its control transfer
 * and the delay-slot instruction opens the next block.
 *
 * The paper's fpppp-1000/2000/4000 variants cap the maximum block size
 * with an instruction window; the same mechanism is exposed here via
 * PartitionOptions::window.  The window cuts each natural block (one
 * that labels and block-ending instructions delimit) every `window`
 * instructions from its start.
 *
 * Lanes: partitionBlocks() on N > 1 lanes cuts the program into N
 * ranges of about equal size.  Each lane counts its range's
 * integer-register definitions and finds its first and last natural
 * block starts; the caller takes the prefix of the counts and the
 * block starts around each range; then each lane stamps its range's
 * generations and cuts the blocks that start in it.  The blocks, every
 * generation and `dag.window_flushes` (counted in the caller's shard)
 * are those of a one-lane partition.  runPipeline partitions on its
 * lanes from kLanePartitionInsts instructions on.
 */

#ifndef SCHED91_IR_BASIC_BLOCK_HH
#define SCHED91_IR_BASIC_BLOCK_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ir/program.hh"
#include "support/stats.hh"

namespace sched91
{

/** A half-open range [begin, end) of program instructions. */
struct BasicBlock
{
    std::uint32_t begin = 0;
    std::uint32_t end = 0;

    std::uint32_t size() const { return end - begin; }
};

/** Options controlling basic block formation. */
struct PartitionOptions
{
    /** Maximum block size; 0 means unlimited (no instruction window). */
    int window = 0;

    /** Whether calls terminate blocks (paper default: yes). */
    bool callsEndBlocks = true;
};

/**
 * Stamp every memory operand with the generation (definition count) of
 * its base and index registers at the point of the reference.  The
 * memory disambiguator only proves independence of two same-base
 * references when their base generations match, i.e. when the base
 * register provably held the same value.  Idempotent.
 */
void stampMemGenerations(Program &prog);

/**
 * Programs with fewer instructions than this partition on the calling
 * thread in runPipeline; larger ones on its lanes.  About where four
 * lanes break even right after a lane parse: below it the lanes' two
 * round trips cost more than they save (docs/PERFORMANCE.md, "The
 * caller's steps").
 */
inline constexpr std::size_t kLanePartitionInsts = 10000;

/**
 * Partition @p prog into basic blocks, stamping memory generations
 * (stampMemGenerations()) in the same pass.  Blocks are returned in
 * program order and cover every instruction exactly once.  With
 * @p threads > 1 the work runs on that many of the calling thread's
 * lanes (ThreadPool::local), with the same result.
 */
std::vector<BasicBlock> partitionBlocks(Program &prog,
                                        const PartitionOptions &opts = {},
                                        unsigned threads = 1);

/** Structural data reported in Table 3. */
struct ProgramStructure
{
    std::size_t numBlocks = 0;
    std::size_t numInsts = 0;
    MinMaxAvg instsPerBlock;
    MinMaxAvg memExprsPerBlock;
};

/** Measure Table-3 style structural statistics. */
ProgramStructure measureStructure(const Program &prog,
                                  const std::vector<BasicBlock> &blocks);

} // namespace sched91

#endif // SCHED91_IR_BASIC_BLOCK_HH
