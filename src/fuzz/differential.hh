/**
 * @file
 * Differential correctness oracle (docs/FUZZING.md).
 *
 * The paper's central claim is that its table-driven DAG construction
 * computes the *same dependence information* as the classical n**2
 * comparison while doing asymptotically less work.  The oracle turns
 * that claim into an executable property over arbitrary programs:
 *
 *  1. the three builders (n**2 forward, table forward, table
 *     backward) must agree on the transitive *closure* of the
 *     dependence relation with longest accumulated delays — the raw
 *     arc sets legitimately differ (the n**2 builder keeps transitive
 *     arcs the table builders never insert), but the closure, and
 *     therefore the transitive reduction derived from it, must match;
 *  2. the path-class static heuristics (EST/LST, path and delay
 *     heights, slack, descendant counts) must agree node-for-node
 *     across builders and across both pass implementations;
 *  3. every registered scheduling algorithm, run over every builder's
 *     DAG, must emit a schedule the independent verifier accepts.
 *
 * checkSource() parses leniently first, so corrupted inputs exercise
 * diagnostics and the surviving instructions still get checked.
 * minimizeLines() is a delta-debugging reducer for shrinking a
 * failing source to a near-minimal reproducer.
 */

#ifndef SCHED91_FUZZ_DIFFERENTIAL_HH
#define SCHED91_FUZZ_DIFFERENTIAL_HH

#include <functional>
#include <string>

#include "dag/builder.hh"
#include "ir/program.hh"
#include "machine/machine_model.hh"

namespace sched91::fuzz
{

/** What the oracle checks. */
struct OracleOptions
{
    AliasPolicy memPolicy = AliasPolicy::BaseOffset;

    /** Run every algorithm x builder schedule through the verifier. */
    bool checkSchedulers = true;

    /** Compare path-class heuristics across builders and PassImpls. */
    bool checkHeuristics = true;

    /**
     * Check alias-policy refinement: along the chain
     * SerializeAll -> BaseOffset -> StorageClassed each policy only
     * *removes* memory dependences, so the coarser policy's transitive
     * closure must contain the finer one's — every connected pair
     * stays connected, with at least as large an accumulated delay.
     * A violation means a policy invented a dependence (or dropped a
     * delay) instead of merely refining.
     */
    bool checkAliasRefinement = true;
};

/** Oracle outcome: ok == all properties held on all blocks. */
struct OracleReport
{
    bool ok = true;

    /** First property violation, human-readable; empty when ok. */
    std::string failure;

    std::size_t blocksChecked = 0;
    std::size_t schedulesChecked = 0;
};

/**
 * Check the differential properties over every basic block of
 * @p prog.  Never throws: an exception escaping any stage is itself an
 * oracle failure and is reported in OracleReport::failure.
 */
OracleReport checkProgram(const Program &prog,
                          const MachineModel &machine,
                          const OracleOptions &opts = {});

/**
 * Parse @p source leniently (unlimited diagnostics, malformed lines
 * skipped) and run checkProgram on whatever survived.
 */
OracleReport checkSource(const std::string &source,
                         const MachineModel &machine,
                         const OracleOptions &opts = {});

/**
 * Delta-debugging line reducer: repeatedly drop line windows of
 * shrinking size while @p stillFails keeps returning true, bounded by
 * @p maxChecks predicate evaluations.  Returns the reduced source.
 * Counts each predicate call in `fuzz.reducer_steps`.
 *
 * @p maxSeconds > 0 adds a wall-clock cap measured from entry: once
 * it expires the reducer stops trying candidates and returns the best
 * reduction found so far (the current survivor is always a valid
 * reproducer — candidates are only adopted when they still fail).
 */
std::string
minimizeLines(const std::string &source,
              const std::function<bool(const std::string &)> &stillFails,
              int maxChecks = 512, double maxSeconds = 0.0);

/**
 * Within-line operand reducer: for each surviving line, repeatedly
 * drop the last comma-separated operand while @p stillFails keeps
 * returning true, to a fixpoint or @p maxChecks predicate calls.
 * Run after minimizeLines() — whole-line removal shrinks much faster;
 * this pass then trims the lines that must stay.  Counts predicate
 * calls in `fuzz.reducer_steps`.  @p maxSeconds as in minimizeLines.
 */
std::string minimizeOperands(
    const std::string &source,
    const std::function<bool(const std::string &)> &stillFails,
    int maxChecks = 256, double maxSeconds = 0.0);

/**
 * Reducer preconfigured with the oracle as predicate: shrink
 * @p source while it still fails checkSource() — whole lines first,
 * then trailing operands within the surviving lines.  @p maxSeconds
 * > 0 caps total wall-clock across both passes, returning the best
 * reduction found when it expires.
 */
std::string minimizeSource(const std::string &source,
                           const MachineModel &machine,
                           const OracleOptions &opts = {},
                           double maxSeconds = 0.0);

} // namespace sched91::fuzz

#endif // SCHED91_FUZZ_DIFFERENTIAL_HH
