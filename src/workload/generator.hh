/**
 * @file
 * Synthetic benchmark program generator.
 *
 * Produces SPARC-like assembly Programs whose structure matches a
 * WorkloadProfile's Table 3 targets: exact block and instruction
 * counts, the pinned maximum (and for fpppp, second-largest) block
 * sizes, per-block unique-memory-expression pools scaled with block
 * size and capped at the profile maximum, and integer vs
 * floating-point instruction mixes.
 *
 * Memory address expressions use dedicated base registers that the
 * generated code never redefines, mirroring compiler output where
 * frame/array pointers are stable within a block — this is what makes
 * the "same base register, different offset" disambiguation of
 * Section 2 effective, exactly as it was for the paper's compiled
 * benchmarks.  The fpppp profile's endBias concentrates first uses of
 * new memory expressions toward the end of its 11750-instruction
 * block, reproducing the effect the paper observed on backward-pass
 * construction cost.
 */

#ifndef SCHED91_WORKLOAD_GENERATOR_HH
#define SCHED91_WORKLOAD_GENERATOR_HH

#include "ir/program.hh"
#include "workload/profiles.hh"

namespace sched91
{

/** Generate the synthetic program for a profile (deterministic). */
Program generateProgram(const WorkloadProfile &profile);

/**
 * Generated program for a named profile, built once per process and
 * cached (the fpppp program is ~25k instructions; benches and tests
 * share it).
 */
const Program &cachedProgram(const std::string &profile_name);

} // namespace sched91

#endif // SCHED91_WORKLOAD_GENERATOR_HH
