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
 * Partitioning only reads the program: each memory operand's base and
 * index generations were stamped as its instruction joined the
 * Program (Program::commit), so one Program can be partitioned, and
 * scheduled, by several threads at once.
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
 * Partition @p prog into basic blocks, in program order, covering
 * every instruction exactly once.  Each block the window cuts counts
 * one `dag.window_flushes`.
 */
std::vector<BasicBlock> partitionBlocks(const Program &prog,
                                        const PartitionOptions &opts = {});

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
