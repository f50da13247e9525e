#include "ir/basic_block.hh"

#include <algorithm>
#include <array>
#include <span>
#include <unordered_set>
#include <utility>

#include "obs/events.hh"
#include "support/thread_pool.hh"

namespace sched91
{

namespace
{

/** Definitions of each integer register so far. */
using Generations = std::array<std::uint32_t, Resource::kNumIntRegs>;

/** Count @p inst's integer-register definitions into @p gen. */
void
countDefs(const Instruction &inst, Generations &gen)
{
    for (Resource r : inst.defs())
        if (r.kind() == Resource::Kind::IntReg)
            ++gen[r.index()];
}

/** Stamp @p inst's memory operand with @p gen, then count its
 * integer-register definitions in. */
void
stamp(Instruction &inst, Generations &gen)
{
    if (inst.mem().has_value()) {
        MemOperand &m = *inst.mem();
        m.baseGen = m.base >= 0 ? gen[m.base] : 0;
        m.indexGen = m.index >= 0 ? gen[m.index] : 0;
    }
    countDefs(inst, gen);
}

/** True when @p inst ends its block. */
bool
endsBlock(const Instruction &inst, const PartitionOptions &opts)
{
    const InstClass cls = inst.cls();
    return cls == InstClass::Branch || cls == InstClass::WindowOp ||
           (cls == InstClass::Call && opts.callsEndBlocks);
}

/**
 * True when a natural block (one the window does not cut) starts at
 * instruction @p i: the first, a labelled one, or one after a
 * block-ending instruction.
 */
bool
startsNaturalBlock(const Program &prog, std::uint32_t i,
                   const PartitionOptions &opts)
{
    return i == 0 || prog.hasLabelAt(i) || endsBlock(prog[i - 1], opts);
}

/**
 * Partition instructions [@p from, @p to) of @p prog, stamping them
 * from @p gen: append the blocks that start there to @p blocks, the
 * last one ending past @p to if it must, and return how many of them
 * the window closed.  The natural block open at @p from starts at
 * @p open (<= @p from), and the first natural block at or past @p to
 * at @p next.  A window cuts a natural block every opts.window
 * instructions from its start.
 */
std::uint64_t
partitionRange(Program &prog, std::uint32_t from, std::uint32_t to,
               std::uint32_t open, std::uint32_t next, Generations gen,
               const PartitionOptions &opts, std::vector<BasicBlock> &blocks)
{
    const auto window = static_cast<std::uint32_t>(std::max(opts.window, 0));
    std::uint32_t begin =
        window > 0 ? open + (from - open) / window * window : open;
    std::uint64_t flushes = 0;
    // A block that started before @p from is an earlier range's.
    auto close = [&](std::uint32_t end, bool flush) {
        if (end > begin && begin >= from) {
            blocks.push_back(BasicBlock{begin, end});
            flushes += flush;
        }
        begin = end;
    };

    const std::span<Instruction> insts = prog.insts();
    for (std::uint32_t i = from; i < to; ++i) {
        // A label opens a new block at this instruction.
        if (i > begin && prog.hasLabelAt(i))
            close(i, false);

        Instruction &inst = insts[i];
        stamp(inst, gen);
        if (endsBlock(inst, opts)) {
            close(i + 1, false);
            continue;
        }
        // Instruction window: force a split at the size cap.
        if (window > 0 && i + 1 - begin >= window)
            close(i + 1, true);
    }
    // The block still open ends at the next natural block or where the
    // window cuts it; the window closed it unless its last instruction
    // ended it.
    if (begin < to) {
        const std::uint32_t end =
            window > 0 ? static_cast<std::uint32_t>(std::min<std::uint64_t>(
                             std::uint64_t{begin} + window, next))
                       : next;
        close(end, end - begin == window && !endsBlock(insts[end - 1], opts));
    }
    return flushes;
}

/** What a lane finds in one range of instructions. */
struct PartitionRange
{
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    std::uint32_t from = 0;
    std::uint32_t to = 0;
    /** Its definitions, then (after the caller's prefix) those before
     * it. */
    Generations gen{};
    std::uint32_t firstStart = kNone; ///< of a natural block, in range
    std::uint32_t lastStart = kNone;
    std::vector<BasicBlock> blocks;
    std::uint64_t flushes = 0;
};

} // namespace

void
stampMemGenerations(Program &prog)
{
    Generations gen{};
    for (Instruction &inst : prog.insts())
        stamp(inst, gen);
}

std::vector<BasicBlock>
partitionBlocks(Program &prog, const PartitionOptions &opts,
                unsigned threads)
{
    const auto n = static_cast<std::uint32_t>(prog.size());
    std::vector<BasicBlock> blocks;
    ThreadPool *pool = nullptr;
    unsigned lanes = 1;
    if (threads > 1 && n > 1) {
        pool = &ThreadPool::local(threads);
        lanes = std::min({threads, pool->threads(), n});
    }
    if (lanes <= 1) {
        if (const std::uint64_t flushes =
                partitionRange(prog, 0, n, 0, n, {}, opts, blocks))
            obs::ev::dagWindowFlushes.inc(flushes);
        return blocks;
    }

    // On the lanes: each range counts its definitions and finds its
    // first and last natural block starts.  Each block starts at its
    // own instruction, so a range's list has room for every block that
    // can start in it, and the lanes allocate nothing.
    std::vector<PartitionRange> ranges(lanes);
    for (unsigned k = 0; k < lanes; ++k) {
        PartitionRange &r = ranges[k];
        r.from = static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(n) * k / lanes);
        r.to = static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(n) * (k + 1) / lanes);
        r.blocks.reserve(r.to - r.from);
    }
    pool->parallelFor(
        lanes, 1,
        [&](unsigned, std::size_t k, std::size_t) {
            PartitionRange &r = ranges[k];
            for (std::uint32_t i = r.from; i < r.to; ++i)
                countDefs(prog[i], r.gen);
            for (std::uint32_t i = r.from; i < r.to; ++i)
                if (startsNaturalBlock(prog, i, opts)) {
                    r.firstStart = i;
                    break;
                }
            for (std::uint32_t i = r.to; i-- > r.from;)
                if (startsNaturalBlock(prog, i, opts)) {
                    r.lastStart = i;
                    break;
                }
        },
        lanes);

    // Here, per range: the definitions before it, the start of the
    // natural block open where it starts and of the first one past it.
    Generations before{};
    std::vector<std::uint32_t> open(lanes), next(lanes);
    std::uint32_t last_start = 0;
    for (unsigned k = 0; k < lanes; ++k) {
        PartitionRange &r = ranges[k];
        for (int g = 0; g < Resource::kNumIntRegs; ++g)
            before[g] += std::exchange(r.gen[g], before[g]);
        open[k] = r.firstStart == r.from ? r.from : last_start;
        if (r.lastStart != PartitionRange::kNone)
            last_start = r.lastStart;
    }
    std::uint32_t next_start = n;
    for (unsigned k = lanes; k-- > 0;) {
        next[k] = next_start;
        if (ranges[k].firstStart != PartitionRange::kNone)
            next_start = ranges[k].firstStart;
    }

    // On the lanes: each range stamps its generations and cuts the
    // blocks that start in it.
    pool->parallelFor(
        lanes, 1,
        [&](unsigned, std::size_t k, std::size_t) {
            PartitionRange &r = ranges[k];
            r.flushes = partitionRange(prog, r.from, r.to, open[k], next[k],
                                       r.gen, opts, r.blocks);
        },
        lanes);

    std::size_t total = 0;
    std::uint64_t flushes = 0;
    for (const PartitionRange &r : ranges) {
        total += r.blocks.size();
        flushes += r.flushes;
    }
    blocks.reserve(total);
    for (const PartitionRange &r : ranges)
        blocks.insert(blocks.end(), r.blocks.begin(), r.blocks.end());
    if (flushes != 0)
        obs::ev::dagWindowFlushes.inc(flushes);
    return blocks;
}

ProgramStructure
measureStructure(const Program &prog, const std::vector<BasicBlock> &blocks)
{
    ProgramStructure s;
    s.numBlocks = blocks.size();
    s.numInsts = prog.size();

    std::unordered_set<std::uint32_t> exprs;
    for (const auto &bb : blocks) {
        s.instsPerBlock.add(bb.size());
        exprs.clear();
        for (std::uint32_t i = bb.begin; i < bb.end; ++i) {
            const auto &mem = prog[i].mem();
            if (mem.has_value())
                exprs.insert(mem->exprId);
        }
        s.memExprsPerBlock.add(static_cast<double>(exprs.size()));
    }
    return s;
}

} // namespace sched91
