/**
 * @file
 * Whole-program backend flows: prepass scheduling, local register
 * allocation, postpass scheduling — the compilation pipelines the
 * paper's register-usage discussion assumes ("an algorithm like
 * Warren's is designed to be performed both prepass as well as
 * postpass", Section 3).
 *
 * compileProgram() rewrites every basic block: a runPipeline pass
 * schedules the input with the prepass algorithm, a serial loop
 * allocates each scheduled block's values onto a bounded register
 * pool (inserting spill code), and a second runPipeline pass
 * reschedules the allocated program and measures it.  Both passes
 * share runPipeline's lanes and its degrade ladder (n**2 -> table ->
 * original order).  Blocks the allocator cannot handle (calls,
 * integer pairs, pools smaller than one instruction's operands) pass
 * through scheduled but unallocated.
 */

#ifndef SCHED91_CORE_BACKEND_HH
#define SCHED91_CORE_BACKEND_HH

#include "core/pipeline.hh"
#include "regalloc/local_allocator.hh"

namespace sched91
{

/** Backend flow configuration. */
struct BackendOptions
{
    BackendOptions() { pipeline.algorithm = AlgorithmKind::Krishnamurthy; }

    /**
     * Both scheduling passes: builder, memory model, partition, lanes
     * and the robustness knobs.  The algorithm (default Krishnamurthy)
     * is the prepass's; the postpass runs the same options under
     * `postpass`, with evaluate on.  compileProgram sets `schedules`.
     */
    PipelineOptions pipeline;

    /** Run register allocation at all. */
    bool allocate = true;

    /** Allocator pools / spill area. */
    AllocatorOptions allocator;

    /** Algorithm that reschedules each allocated block. */
    AlgorithmKind postpass = AlgorithmKind::Krishnamurthy;
};

/** Backend outcome. */
struct BackendResult
{
    Program program;          ///< rewritten program
    std::size_t allocatedBlocks = 0; ///< blocks the allocator handled
    int spillStores = 0;
    int spillLoads = 0;

    /** The prepass run over the input program. */
    ProgramResult prepass;

    /** The postpass run over the allocated program; its
     * cyclesScheduled is the rewritten program's simulated cycles. */
    ProgramResult postpass;

    /** Blocks (numbered as in the prepass) whose allocation threw
     * under PipelineOptions::containFaults and so pass through
     * scheduled but unallocated; stage "alloc". */
    std::vector<ProgramResult::BlockIssue> alloc;
};

/** Run the full backend flow over @p prog. */
BackendResult compileProgram(const Program &prog,
                             const MachineModel &machine,
                             const BackendOptions &opts = {});

} // namespace sched91

#endif // SCHED91_CORE_BACKEND_HH
