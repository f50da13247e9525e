/**
 * @file
 * Outlier tracker implementation: the deterministic work score and
 * the top-K ordering/merge algebra.
 */

#include "obs/outliers.hh"

#include <algorithm>
#include <utility>

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

namespace
{

bool
outranks(std::uint64_t scoreA, std::size_t blockA, std::uint64_t scoreB,
         std::size_t blockB)
{
    if (scoreA != scoreB)
        return scoreA > scoreB;
    return blockA < blockB;
}

} // namespace

bool
OutlierTracker::admits(std::uint64_t score, std::size_t block) const
{
    if (k_ == 0)
        return false;
    if (items_.size() < k_)
        return true;
    const OutlierRecord &last = items_.back();
    return outranks(score, block, last.score, last.block);
}

void
OutlierTracker::insert(OutlierRecord record)
{
    if (!admits(record.score, record.block))
        return;
    auto pos = std::lower_bound(
        items_.begin(), items_.end(), record,
        [](const OutlierRecord &a, const OutlierRecord &b) {
            return outranks(a.score, a.block, b.score, b.block);
        });
    items_.insert(pos, std::move(record));
    if (items_.size() > k_)
        items_.pop_back();
}

void
OutlierTracker::merge(const OutlierTracker &other)
{
    for (const OutlierRecord &r : other.items_)
        insert(r);
}

std::vector<OutlierRecord>
OutlierTracker::byBlock() const
{
    std::vector<OutlierRecord> out = items_;
    std::sort(out.begin(), out.end(),
              [](const OutlierRecord &a, const OutlierRecord &b) {
                  return a.block < b.block;
              });
    return out;
}

} // namespace sched91::obs
