#include "core/backend.hh"

#include "support/string_util.hh"

namespace sched91
{

BackendResult
compileProgram(Program &prog, const MachineModel &machine,
               const BackendOptions &opts)
{
    BackendResult result;
    std::vector<Schedule> schedules;
    PipelineOptions pass = opts.pipeline;
    pass.schedules = &schedules;
    result.prepass = runPipeline(prog, machine, pass);

    // Allocate each scheduled block, emitting the allocated program.
    Program allocated;
    const auto blocks = partitionBlocks(prog, pass.partition);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        const BasicBlock &bb = blocks[b];
        BlockView block(prog, bb);
        const std::vector<std::uint32_t> &order = schedules[b].order;

        std::optional<AllocationResult> alloc;
        if (opts.allocate) {
            try {
                alloc = allocateBlock(block, order, opts.allocator);
            } catch (const std::exception &e) {
                if (!opts.pipeline.containFaults)
                    throw;
                // Allocation fault: pass the block through scheduled
                // but unallocated (the pre-existing infeasible path).
                result.alloc.push_back(ProgramResult::BlockIssue{
                    b, "alloc", e.what(), false});
            }
        }

        allocated.addLabel(numbered("B", bb.begin));
        if (alloc) {
            ++result.allocatedBlocks;
            result.spillStores += alloc->spillStores;
            result.spillLoads += alloc->spillLoads;
            for (Instruction &inst : alloc->insts)
                allocated.append(std::move(inst));
        } else {
            // Allocation skipped or infeasible: emit the scheduled
            // order unallocated.
            for (std::uint32_t n : order)
                allocated.append(block.inst(n));
        }
    }

    // Reschedule and measure the allocated program.
    pass.algorithm = opts.postpass;
    pass.evaluate = true;
    result.postpass = runPipeline(allocated, machine, pass);
    const auto out_blocks = partitionBlocks(allocated, pass.partition);
    for (std::size_t b = 0; b < out_blocks.size(); ++b) {
        const BasicBlock &bb = out_blocks[b];
        BlockView block(allocated, bb);
        result.program.addLabel(numbered("B", bb.begin));
        for (std::uint32_t n : schedules[b].order)
            result.program.append(block.inst(n));
    }
    stampMemGenerations(result.program);
    return result;
}

} // namespace sched91
