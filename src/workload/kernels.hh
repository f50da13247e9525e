/**
 * @file
 * Handwritten kernels in the SPARC-like dialect: realistic unrolled
 * loop bodies of the kinds the paper's benchmarks contain (Linpack's
 * daxpy, Livermore loop 1, the tomcatv stencil, grep's scan loop) plus
 * the Figure 1 example.  Used by the examples and tests.
 */

#ifndef SCHED91_WORKLOAD_KERNELS_HH
#define SCHED91_WORKLOAD_KERNELS_HH

#include <string>
#include <vector>

#include "ir/program.hh"

namespace sched91
{

/** Names of all available kernels. */
std::vector<std::string> kernelNames();

/** Assembly text of a kernel by name; throws FatalError if unknown. */
std::string kernelSource(const std::string &name);

/** Parsed kernel Program. */
Program kernelProgram(const std::string &name);

/**
 * The three-instruction example of Figure 1:
 *
 *     1: DIVF R1,R2,R3 (20 cycles)   fdivd %f0,%f2,%f4
 *     2: ADDF R4,R5,R1 ( 4 cycles)   faddd %f6,%f8,%f0
 *     3: ADDF R1,R3,R6 ( 4 cycles)   faddd %f0,%f4,%f10
 *
 * Arc 1->2 is WAR (delay 1), 2->3 RAW (delay 4), and the transitive
 * arc 1->3 RAW (delay 20) carries the timing information that
 * transitive-arc removal destroys.
 */
Program figure1Program();

} // namespace sched91

#endif // SCHED91_WORKLOAD_KERNELS_HH
