/**
 * @file
 * Deterministic top-K outlier capture (docs/FORENSICS.md).
 *
 * `--capture-outliers K` keeps the K most expensive blocks of a run
 * and writes a forensic bundle for each (source text, DAG shape,
 * per-phase latencies, counter deltas, degradation attribution) that
 * `sched91 explain` can replay.
 *
 * Wall-clock time is nondeterministic, so ranking by it would make
 * capture depend on scheduling noise.  Instead a block's outlier
 * *score* is the sum of its Sum-kind counter slots — the total
 * instrumented work the block caused (arcs added, visits, heuristic
 * evaluations, ...), which is a pure function of the input and the
 * configuration.  Ordering is (score desc, block id asc).
 *
 * The ranking is a post-join reduction like every other per-block
 * output: a capturing lane copies each block's counter shard into the
 * block's output slot, and after the join runPipeline scores every
 * block, keeps the top K and builds their records from the slots —
 * the same set at every thread count.
 */

#ifndef SCHED91_OBS_OUTLIERS_HH
#define SCHED91_OBS_OUTLIERS_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/counters.hh"
#include "obs/phase.hh"

namespace sched91::obs
{

/** Everything a forensic bundle needs about one captured block. */
struct OutlierRecord
{
    std::size_t block = 0;
    std::uint64_t score = 0; ///< Sum of Sum-kind counter slots.

    std::uint32_t begin = 0; ///< First instruction index in program.
    std::uint32_t size = 0;  ///< Instruction count.
    std::uint64_t dagNodes = 0;
    std::uint64_t dagArcs = 0;

    PhaseRecord phases;    ///< The block's phases and their seconds.
    CounterShard counters; ///< The block's counts, by id.

    std::string stage;  ///< Issue stage, empty when the block was clean.
    std::string reason; ///< Issue reason, empty when clean.
    bool degraded = false;
    bool fallback = false;

    std::string source; ///< The block's instructions, one per line.
};

/** The score: total Sum-kind work recorded in @p shard. */
std::uint64_t shardWorkScore(const CounterShard &shard);

} // namespace sched91::obs

#endif // SCHED91_OBS_OUTLIERS_HH
