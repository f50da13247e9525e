#include "core/backend.hh"

#include <numeric>
#include <sstream>

#include "dag/table_forward.hh"
#include "heuristics/register_pressure.hh"
#include "obs/events.hh"
#include "sched/list_scheduler.hh"
#include "support/cancellation.hh"

namespace sched91
{

namespace
{

/** The original-order fallback for a block of @p n instructions. */
std::vector<std::uint32_t>
identityOrder(std::size_t n)
{
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), std::uint32_t{0});
    return order;
}

/** Schedule a block view, returning the order. */
std::vector<std::uint32_t>
scheduleOrder(const BlockView &block, const MachineModel &machine,
              AlgorithmKind algorithm, const BackendOptions &bopts,
              BuilderKind builder)
{
    PipelineOptions opts;
    opts.algorithm = algorithm;
    opts.builder = builder;
    opts.build.memPolicy = bopts.memPolicy;
    opts.verify = bopts.verify;
    opts.maxBlockSeconds = bopts.maxBlockSeconds;
    return scheduleBlock(block, machine, opts).sched.order;
}

} // namespace

BackendResult
compileProgram(Program &prog, const MachineModel &machine,
               const BackendOptions &opts)
{
    auto blocks = partitionBlocks(prog);
    BackendResult result;
    result.blocks = blocks.size();

    // Per-block containment (PR 3 semantics, threaded through the
    // backend): a fault in one block's scheduling degrades that block
    // to the order it arrived in; the rest of the program compiles
    // normally.  A CancelledError out of the per-block budget counts
    // as a budget outcome and degrades even with containment off.
    auto containedOrder =
        [&](const BlockView &block, std::size_t b, AlgorithmKind algo,
            const char *stage) -> std::vector<std::uint32_t> {
        BuilderKind builder = opts.builder;
        if (fallsBackToTable(builder, block.size(), opts.maxBlockInsts)) {
            builder = BuilderKind::TableForward;
            ++result.builderFallbacks;
            obs::ev::robustBuilderFallbacks.inc();
            std::ostringstream os;
            os << block.size() << " insts over maxBlockInsts "
               << opts.maxBlockInsts
               << ": n**2 builder fell back to table building";
            result.blockIssues.push_back(ProgramResult::BlockIssue{
                b, "fallback", os.str(), false});
        }
        try {
            return scheduleOrder(block, machine, algo, opts, builder);
        } catch (const CancelledError &e) {
            obs::ev::robustBudgetExceeded.inc();
            obs::ev::cancelBlocksCancelled.inc();
            obs::ev::robustBlocksDegraded.inc();
            ++result.blocksDegraded;
            result.blockIssues.push_back(ProgramResult::BlockIssue{
                b, "budget", e.what(), true});
            return identityOrder(block.size());
        } catch (const std::exception &e) {
            if (!opts.containFaults)
                throw;
            obs::ev::robustBlocksDegraded.inc();
            ++result.blocksDegraded;
            result.blockIssues.push_back(ProgramResult::BlockIssue{
                b, stage, e.what(), true});
            return identityOrder(block.size());
        }
    };

    // Phase 1: emit the rewritten program block by block.
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        const BasicBlock &bb = blocks[b];
        BlockView block(prog, bb);
        std::vector<std::uint32_t> order =
            containedOrder(block, b, opts.prepass, "sched");

        std::optional<AllocationResult> allocated;
        if (opts.allocate) {
            try {
                allocated = allocateBlock(block, order, opts.allocator);
            } catch (const std::exception &e) {
                if (!opts.containFaults)
                    throw;
                // Allocation fault: pass the block through scheduled
                // but unallocated (the pre-existing infeasible path).
                result.blockIssues.push_back(ProgramResult::BlockIssue{
                    b, "alloc", e.what(), false});
            }
        }

        result.program.addLabel("B" + std::to_string(bb.begin));
        if (allocated) {
            ++result.allocatedBlocks;
            result.spillStores += allocated->spillStores;
            result.spillLoads += allocated->spillLoads;
            for (Instruction &inst : allocated->insts)
                result.program.append(std::move(inst));
        } else {
            // Allocation skipped or infeasible: emit the scheduled
            // order unallocated.
            for (std::uint32_t n : order)
                result.program.append(block.inst(n));
        }
    }

    // Phase 2: optional postpass reschedule over the allocated code,
    // emitting the final program and measuring it.
    auto out_blocks = partitionBlocks(result.program);
    Program final_prog;
    for (std::size_t b = 0; b < out_blocks.size(); ++b) {
        const BasicBlock &bb = out_blocks[b];
        BlockView block(result.program, bb);
        BuildOptions bopts;
        bopts.memPolicy = opts.memPolicy;
        Dag dag = TableForwardBuilder().build(block, machine, bopts);

        std::vector<std::uint32_t> order;
        if (opts.postpass)
            order = containedOrder(block, b, *opts.postpass, "postpass");
        else
            order = originalOrderSchedule(dag).order;
        result.cycles += simulateSchedule(dag, order, machine).cycles;

        final_prog.addLabel("B" + std::to_string(bb.begin));
        for (std::uint32_t n : order)
            final_prog.append(block.inst(n));
    }
    stampMemGenerations(final_prog);
    result.program = std::move(final_prog);
    return result;
}

} // namespace sched91
