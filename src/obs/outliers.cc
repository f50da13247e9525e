/**
 * @file
 * The deterministic outlier work score.
 */

#include "obs/outliers.hh"

namespace sched91::obs
{

std::uint64_t
shardWorkScore(const CounterShard &shard)
{
    const CounterRegistry &reg = shard.registry();
    const std::size_t size = reg.size();
    const CounterKind *kinds = reg.kinds();
    std::uint64_t score = 0;
    for (std::size_t id = 0; id < size; ++id) {
        if (kinds[id] == CounterKind::Sum)
            score += shard.value(id);
    }
    return score;
}

} // namespace sched91::obs
