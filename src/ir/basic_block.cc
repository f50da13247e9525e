#include "ir/basic_block.hh"

#include <array>
#include <unordered_set>

#include "obs/events.hh"

namespace sched91
{

namespace
{

/** Definitions of each integer register so far. */
using Generations = std::array<std::uint32_t, Resource::kNumIntRegs>;

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
    for (Resource r : inst.defs())
        if (r.kind() == Resource::Kind::IntReg)
            ++gen[r.index()];
}

} // namespace

void
stampMemGenerations(Program &prog)
{
    Generations gen{};
    for (auto &inst : prog.insts())
        stamp(inst, gen);
}

std::vector<BasicBlock>
partitionBlocks(Program &prog, const PartitionOptions &opts)
{
    // Generations are stamped on the way, in program order, as
    // stampMemGenerations() would.
    Generations gen{};
    std::vector<BasicBlock> blocks;
    auto &insts = prog.insts();
    std::uint32_t n = static_cast<std::uint32_t>(insts.size());
    std::uint32_t begin = 0;

    auto close = [&](std::uint32_t end) {
        if (end > begin)
            blocks.push_back(BasicBlock{begin, end});
        begin = end;
    };

    for (std::uint32_t i = 0; i < n; ++i) {
        // A label opens a new block at this instruction.
        if (i > begin && prog.hasLabelAt(i))
            close(i);

        Instruction &inst = insts[i];
        stamp(inst, gen);
        bool ends = false;
        InstClass cls = inst.cls();
        if (cls == InstClass::Branch || cls == InstClass::WindowOp)
            ends = true;
        else if (cls == InstClass::Call)
            ends = opts.callsEndBlocks;

        if (ends) {
            close(i + 1);
            continue;
        }

        // Instruction window: force a split at the size cap.
        if (opts.window > 0 &&
            i + 1 - begin >= static_cast<std::uint32_t>(opts.window)) {
            obs::ev::dagWindowFlushes.inc();
            close(i + 1);
        }
    }
    close(n);
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
