/**
 * @file
 * The deterministic outlier work score.
 */

#include "obs/outliers.hh"

#include "obs/events.hh"

namespace sched91::obs
{

std::uint64_t
shardWorkScore(const CounterShard &shard)
{
    std::uint64_t score = 0;
    for (std::size_t id = 0; id < std::size(kCounters); ++id) {
        if (kCounters[id].kind == CounterKind::Sum)
            score += shard.value(id);
    }
    return score;
}

} // namespace sched91::obs
