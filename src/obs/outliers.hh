/**
 * @file
 * Deterministic top-K outlier tracking (docs/FORENSICS.md).
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
 * Sharding follows the histogram pattern: each worker lane keeps its
 * own top-K over the blocks it processed, and the post-join merge of
 * lane trackers equals a global top-K because any block in the global
 * top-K is necessarily in its own lane's top-K.
 */

#ifndef SCHED91_OBS_OUTLIERS_HH
#define SCHED91_OBS_OUTLIERS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

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

/**
 * Keeps the K highest-scoring records seen, ordered (score desc,
 * block asc).  Plain data; merge() makes lane-local trackers
 * equivalent to one global tracker.
 */
class OutlierTracker
{
  public:
    explicit OutlierTracker(std::size_t k) : k_(k) {}

    std::size_t k() const { return k_; }

    /**
     * Whether a record with @p score for @p block would be kept.
     * Callers use this to skip the (expensive) source/counter capture
     * for blocks that cannot place.
     */
    bool admits(std::uint64_t score, std::size_t block) const;

    void insert(OutlierRecord record);

    void merge(const OutlierTracker &other);

    /** Kept records, (score desc, block asc). */
    const std::vector<OutlierRecord> &ranked() const { return items_; }

    /** Kept records re-sorted by block id (stable report order). */
    std::vector<OutlierRecord> byBlock() const;

    bool empty() const { return items_.empty(); }
    std::size_t size() const { return items_.size(); }

  private:
    std::size_t k_;
    std::vector<OutlierRecord> items_; ///< sorted (score desc, block asc)
};

} // namespace sched91::obs

#endif // SCHED91_OBS_OUTLIERS_HH
