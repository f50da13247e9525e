/**
 * @file
 * The library's well-known event counters, one inline handle per
 * event so instrumentation sites pay no lookup.  Names are
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

#include "obs/counters.hh"

namespace sched91::obs::ev
{

// --- DAG construction ('a') -----------------------------------------

/** Unique arcs inserted by Dag::addArc. */
inline Counter dagArcsAdded{"dag.arcs_added"};

/** (from,to) attempts merged into an existing arc. */
inline Counter dagArcsDuplicate{"dag.arcs_duplicate"};

/** Arcs dropped by Landskov-style transitive prevention. */
inline Counter dagArcsSuppressed{"dag.arcs_suppressed"};

/** Pairwise instruction comparisons made by the n**2 builders. */
inline Counter dagPairwiseCompares{"dag.pairwise_compares"};

/** Definition-table slot and memory-entry probes, table builders. */
inline Counter dagTableProbes{"dag.table_probes"};

/** Memory alias-oracle queries (any builder, any policy). */
inline Counter dagAliasQueries{"dag.alias_queries"};

/** Blocks force-split by the instruction window during partitioning. */
inline Counter dagWindowFlushes{"dag.window_flushes"};

// --- Heuristic passes ('f' / 'b') -----------------------------------

/** Node visitations by the forward pass (EST and friends). */
inline Counter heurForwardVisits{"heur.forward_visits"};

/** Node visitations by the backward pass (LST, delays-to-leaf). */
inline Counter heurBackwardVisits{"heur.backward_visits"};

/** Nodes whose slack was derived (LST - EST). */
inline Counter heurSlackComputes{"heur.slack_computes"};

/** Descendant bitmaps materialized by a separate sweep (the backward
 * pass had no builder-maintained maps to reuse). */
inline Counter heurDescendantSweeps{"heur.descendant_sweeps"};

// --- List scheduling ('v') ------------------------------------------

/** Nodes scheduled (candidate-list extractions). */
inline Counter schedNodeVisits{"sched.node_visits"};

/** Individual heuristic evaluations during candidate selection. */
inline Counter schedHeuristicEvals{"sched.heuristic_evals"};

/** High-water mark of the ready/candidate list (a Max gauge: shards
 * and per-block deltas report peaks, not sums). */
inline Counter schedReadyListPeak{"sched.ready_list_peak",
                                  CounterKind::Max};

/** Dependence-arc relaxations when a scheduled node releases
 * successors (forward) or predecessors (backward). */
inline Counter schedDepUpdates{"sched.dep_updates"};

// --- Robustness (docs/ROBUSTNESS.md) --------------------------------

/** Malformed assembly lines recovered from by the lenient parser. */
inline Counter robustParseErrors{"robust.parse_errors"};

/** Parseable-but-suspicious lines flagged with a Severity::Warning
 * diagnostic (immediate outside the 13-bit signed range, doubly
 * defined labels). */
inline Counter robustParseWarnings{"robust.parse_warnings"};

/** Blocks degraded to their original instruction order after a fault,
 * budget overrun, or verifier rejection. */
inline Counter robustBlocksDegraded{"robust.blocks_degraded"};

/** Schedules rejected by the independent verifier
 * (sched/verifier.hh). */
inline Counter robustVerifierRejections{"robust.verifier_rejections"};

/** Oversized blocks auto-switched from an n**2 builder to table
 * building (the paper's F1/F2 window ladder) — not a degradation. */
inline Counter robustBuilderFallbacks{"robust.builder_fallbacks"};

/** Blocks that overran --max-block-seconds (subset of
 * robust.blocks_degraded). */
inline Counter robustBudgetExceeded{"robust.block_budget_exceeded"};

/** Worker exceptions dropped by ThreadPool::parallelFor after the
 * first (only the first rethrows; the rest are counted here and in
 * the rethrown message). */
inline Counter robustPoolSuppressed{"robust.pool_suppressed_errors"};

// --- Cooperative cancellation (support/cancellation.hh) -------------

/** Blocks whose build/sched phase was interrupted mid-loop by a
 * cancellation token (subset of robust.block_budget_exceeded when the
 * token came from --max-block-seconds). */
inline Counter cancelBlocksCancelled{"cancel.blocks_cancelled"};

/** Blocks degraded because the whole-run --max-run-seconds budget ran
 * out: cancelled while running on a fair-share allowance, or skipped
 * outright once nothing remained. */
inline Counter cancelRunBudgetExhausted{"cancel.run_budget_exhausted"};

/** Blocks degraded because the run was interrupted (SIGINT/SIGTERM
 * drain): in-flight blocks finish, the rest degrade to original
 * order. */
inline Counter cancelRunInterrupted{"cancel.run_interrupted"};

// --- Fault injection (support/fault_inject.hh) ----------------------

/** Faults fired by the deterministic injection layer (any point). */
inline Counter faultInjected{"fault.injected"};

// --- Memory telemetry (obs/memory.hh) -------------------------------
// Deterministic gauges only: each is a function of the input program,
// so runs stay byte-identical across thread counts.  Environmental
// quantities (peak RSS, arena chunk reservations) live in the
// stats-JSON "memory" section instead, never in counters.

/** Cumulative bytes handed out by all worker arenas over the run. */
inline Counter memArenaBytesAllocated{"mem.arena_bytes_allocated"};

/** Largest arena working set any single block reached (Max gauge). */
inline Counter memArenaHighWater{"mem.arena_high_water_bytes",
                                 CounterKind::Max};

/** Bytes of DAG arc records built over the run (arcs * sizeof(Arc)). */
inline Counter memDagArcBytes{"mem.dag_arc_bytes"};

// --- Adversarial harness (src/fuzz/) --------------------------------

/** Programs synthesized by the fuzz generator. */
inline Counter fuzzProgramsGenerated{"fuzz.programs_generated"};

/** Source lines mutated by injected syntax corruption. */
inline Counter fuzzCorruptedLines{"fuzz.corrupted_lines"};

/** Differential-oracle runs (fuzz/differential.cc). */
inline Counter fuzzOracleRuns{"fuzz.oracle_runs"};

/** Oracle runs that found a divergence or verifier rejection. */
inline Counter fuzzOracleFailures{"fuzz.oracle_failures"};

/** Candidate reductions attempted by the minimizing reducer. */
inline Counter fuzzReducerSteps{"fuzz.reducer_steps"};

} // namespace sched91::obs::ev

#endif // SCHED91_OBS_EVENTS_HH
