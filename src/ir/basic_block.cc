#include "ir/basic_block.hh"

#include <algorithm>
#include <unordered_set>

#include "obs/events.hh"

namespace sched91
{

std::vector<BasicBlock>
partitionBlocks(const Program &prog, const PartitionOptions &opts)
{
    const auto n = static_cast<std::uint32_t>(prog.size());
    const auto window = static_cast<std::uint32_t>(std::max(opts.window, 0));
    std::vector<BasicBlock> blocks;
    std::uint64_t flushes = 0;
    std::uint32_t begin = 0;
    auto close = [&](std::uint32_t end) {
        blocks.push_back(BasicBlock{begin, end});
        begin = end;
    };

    for (std::uint32_t i = 0; i < n; ++i) {
        // A label opens a new block at this instruction.
        if (i > begin && prog.hasLabelAt(i))
            close(i);

        const InstClass cls = prog[i].cls();
        if (cls == InstClass::Branch || cls == InstClass::WindowOp ||
            (cls == InstClass::Call && opts.callsEndBlocks)) {
            close(i + 1);
        } else if (window > 0 && i + 1 - begin >= window) {
            // Instruction window: force a split at the size cap.
            close(i + 1);
            ++flushes;
        }
    }
    if (begin < n)
        close(n);
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
