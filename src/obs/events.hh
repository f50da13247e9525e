/**
 * @file
 * The counter roster: every event counter the library keeps, listed
 * once in one table fixed at build time (kCounters), plus one handle
 * per counter so instrumentation sites pay no lookup.  A counter's id
 * is its index in the table; each handle finds its name there as it
 * compiles, so a misspelt name does not build.  Names are
 * hierarchical (`subsystem.event`) and map onto the paper's Table 1
 * cost legend:
 *
 *  - `dag.*`   — 'a' work, done while nodes/arcs are added
 *                (Section 2, Tables 4/5 construction asymmetry);
 *  - `heur.*`  — 'f'/'b' work, the intermediate heuristic passes
 *                (Section 4);
 *  - `sched.*` — 'v' work, done as the scheduler visits nodes
 *                (Section 5).
 *
 * See docs/OBSERVABILITY.md for the full schema and the worked
 * mapping to Table 1.
 */

#ifndef SCHED91_OBS_EVENTS_HH
#define SCHED91_OBS_EVENTS_HH

#include <iterator>
#include <string_view>

#include "obs/counters.hh"

namespace sched91::obs
{

/** Every counter with its kind (Sum unless marked Max), by id. */
inline constexpr CounterDef kCounters[] = {
    // --- DAG construction ('a') -------------------------------------

    /** Unique arcs inserted by Dag::addArc. */
    {"dag.arcs_added"},
    /** (from,to) attempts merged into an existing arc. */
    {"dag.arcs_duplicate"},
    /** Arcs dropped by Landskov-style transitive prevention. */
    {"dag.arcs_suppressed"},
    /** Pairwise instruction comparisons made by the n**2 builders. */
    {"dag.pairwise_compares"},
    /** Definition-table slot and memory-entry probes, table builders. */
    {"dag.table_probes"},
    /** Memory alias-oracle queries (any builder, any policy). */
    {"dag.alias_queries"},
    /** Blocks force-split by the instruction window during partitioning. */
    {"dag.window_flushes"},

    // --- Heuristic passes ('f' / 'b') -------------------------------

    /** Node visitations by the forward pass (EST and friends). */
    {"heur.forward_visits"},
    /** Node visitations by the backward pass (LST, delays-to-leaf). */
    {"heur.backward_visits"},
    /** Nodes whose slack was derived (LST - EST). */
    {"heur.slack_computes"},
    /** Descendant bitmaps materialized by a separate sweep (the
     * backward pass had no builder-maintained maps to reuse). */
    {"heur.descendant_sweeps"},

    // --- List scheduling ('v') --------------------------------------

    /** Nodes scheduled (candidate-list extractions). */
    {"sched.node_visits"},
    /** Individual heuristic evaluations during candidate selection. */
    {"sched.heuristic_evals"},
    /** High-water mark of the ready/candidate list (a Max gauge:
     * shards and per-block deltas report peaks, not sums). */
    {"sched.ready_list_peak", CounterKind::Max},
    /** Dependence-arc relaxations when a scheduled node releases
     * successors (forward) or predecessors (backward). */
    {"sched.dep_updates"},

    // --- Robustness (docs/ROBUSTNESS.md) ----------------------------

    /** Malformed assembly lines recovered from by the lenient parser. */
    {"robust.parse_errors"},
    /** Parseable-but-suspicious lines flagged with a Severity::Warning
     * diagnostic (immediate outside the 13-bit signed range, doubly
     * defined labels). */
    {"robust.parse_warnings"},
    /** Blocks degraded to their original instruction order after a
     * fault, budget overrun, or verifier rejection. */
    {"robust.blocks_degraded"},
    /** Schedules rejected by the independent verifier
     * (sched/verifier.hh). */
    {"robust.verifier_rejections"},
    /** Oversized blocks auto-switched from an n**2 builder to table
     * building (the paper's F1/F2 window ladder), not a degradation. */
    {"robust.builder_fallbacks"},
    /** Blocks that overran --max-block-seconds (subset of
     * robust.blocks_degraded). */
    {"robust.block_budget_exceeded"},
    /** Worker exceptions dropped by ThreadPool::parallelFor after the
     * first (only the first rethrows; the rest are counted here and in
     * the rethrown message). */
    {"robust.pool_suppressed_errors"},

    // --- Cooperative cancellation (support/cancellation.hh) ---------

    /** Blocks whose build/sched phase was interrupted mid-loop by a
     * cancellation token (subset of robust.block_budget_exceeded when
     * the token came from --max-block-seconds). */
    {"cancel.blocks_cancelled"},
    /** Blocks degraded because the whole-run --max-run-seconds budget
     * ran out: cancelled while running on a fair-share allowance, or
     * skipped outright once nothing remained. */
    {"cancel.run_budget_exhausted"},
    /** Blocks degraded because the run was interrupted
     * (SIGINT/SIGTERM drain): in-flight blocks finish, the rest
     * degrade to original order. */
    {"cancel.run_interrupted"},

    // --- Fault injection (support/fault_inject.hh) ------------------

    /** Faults fired by the deterministic injection layer (any point). */
    {"fault.injected"},

    // --- Memory telemetry (obs/memory.hh) ---------------------------
    // Deterministic gauges only: each is a function of the input
    // program, so runs stay byte-identical across thread counts.
    // Environmental quantities (peak RSS, arena chunk reservations)
    // live in the stats-JSON "memory" section instead, never in
    // counters.

    /** Cumulative bytes handed out by all worker arenas over the run. */
    {"mem.arena_bytes_allocated"},
    /** Largest arena working set any single block reached (Max gauge). */
    {"mem.arena_high_water_bytes", CounterKind::Max},
    /** Bytes of DAG arc records built over the run (arcs * sizeof(Arc)). */
    {"mem.dag_arc_bytes"},

    // --- Adversarial harness (src/fuzz/) ----------------------------

    /** Programs synthesized by the fuzz generator. */
    {"fuzz.programs_generated"},
    /** Source lines mutated by injected syntax corruption. */
    {"fuzz.corrupted_lines"},
    /** Differential-oracle runs (fuzz/differential.cc). */
    {"fuzz.oracle_runs"},
    /** Oracle runs that found a divergence or verifier rejection. */
    {"fuzz.oracle_failures"},
    /** Candidate reductions attempted by the minimizing reducer. */
    {"fuzz.reducer_steps"},
};

static_assert(
    [] {
        for (std::size_t a = 0; a < std::size(kCounters); ++a)
            for (std::size_t b = a + 1; b < std::size(kCounters); ++b)
                if (kCounters[a].name == kCounters[b].name)
                    return false;
        return true;
    }(),
    "each counter is listed once");

consteval Counter::Counter(std::string_view name) : id_(0)
{
    while (id_ < std::size(kCounters) && kCounters[id_].name != name)
        ++id_;
    if (id_ == std::size(kCounters))
        throw "no counter of that name in obs::kCounters";
}

namespace ev
{

inline constexpr Counter dagArcsAdded{"dag.arcs_added"};
inline constexpr Counter dagArcsDuplicate{"dag.arcs_duplicate"};
inline constexpr Counter dagArcsSuppressed{"dag.arcs_suppressed"};
inline constexpr Counter dagPairwiseCompares{"dag.pairwise_compares"};
inline constexpr Counter dagTableProbes{"dag.table_probes"};
inline constexpr Counter dagAliasQueries{"dag.alias_queries"};
inline constexpr Counter dagWindowFlushes{"dag.window_flushes"};

inline constexpr Counter heurForwardVisits{"heur.forward_visits"};
inline constexpr Counter heurBackwardVisits{"heur.backward_visits"};
inline constexpr Counter heurSlackComputes{"heur.slack_computes"};
inline constexpr Counter heurDescendantSweeps{"heur.descendant_sweeps"};

inline constexpr Counter schedNodeVisits{"sched.node_visits"};
inline constexpr Counter schedHeuristicEvals{"sched.heuristic_evals"};
inline constexpr Counter schedReadyListPeak{"sched.ready_list_peak"};
inline constexpr Counter schedDepUpdates{"sched.dep_updates"};

inline constexpr Counter robustParseErrors{"robust.parse_errors"};
inline constexpr Counter robustParseWarnings{"robust.parse_warnings"};
inline constexpr Counter robustBlocksDegraded{"robust.blocks_degraded"};
inline constexpr Counter robustVerifierRejections{
    "robust.verifier_rejections"};
inline constexpr Counter robustBuilderFallbacks{"robust.builder_fallbacks"};
inline constexpr Counter robustBudgetExceeded{"robust.block_budget_exceeded"};
inline constexpr Counter robustPoolSuppressed{"robust.pool_suppressed_errors"};

inline constexpr Counter cancelBlocksCancelled{"cancel.blocks_cancelled"};
inline constexpr Counter cancelRunBudgetExhausted{
    "cancel.run_budget_exhausted"};
inline constexpr Counter cancelRunInterrupted{"cancel.run_interrupted"};

inline constexpr Counter faultInjected{"fault.injected"};

inline constexpr Counter memArenaBytesAllocated{"mem.arena_bytes_allocated"};
inline constexpr Counter memArenaHighWater{"mem.arena_high_water_bytes"};
inline constexpr Counter memDagArcBytes{"mem.dag_arc_bytes"};

inline constexpr Counter fuzzProgramsGenerated{"fuzz.programs_generated"};
inline constexpr Counter fuzzCorruptedLines{"fuzz.corrupted_lines"};
inline constexpr Counter fuzzOracleRuns{"fuzz.oracle_runs"};
inline constexpr Counter fuzzOracleFailures{"fuzz.oracle_failures"};
inline constexpr Counter fuzzReducerSteps{"fuzz.reducer_steps"};

} // namespace ev

} // namespace sched91::obs

#endif // SCHED91_OBS_EVENTS_HH
