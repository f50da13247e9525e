#include "obs/phase.hh"

#include <bit>

#include "support/logging.hh"

namespace sched91::obs
{

namespace
{

/** @p parent's child named @p name, appended if absent. */
PhaseStats &
childNode(PhaseStats &parent, std::string_view name)
{
    for (PhaseStats &c : parent.children)
        if (c.name == name)
            return c;
    parent.children.push_back(PhaseStats{});
    parent.children.back().name = name;
    return parent.children.back();
}

/** @p phase's node in the run tree under @p root. */
PhaseStats &
phaseNode(PhaseStats &root, Phase phase)
{
    PhaseStats &parent =
        isSubPhase(phase) ? childNode(root, phaseNames(Phase::Heur).name)
                          : root;
    return childNode(parent, phaseNames(phase).name);
}

} // namespace

const PhaseStats *
PhaseStats::child(std::string_view child_name) const
{
    for (const PhaseStats &c : children)
        if (c.name == child_name)
            return &c;
    return nullptr;
}

void
PhaseStats::add(const PhaseRecord &record)
{
    // Main phases first, then heur's sub-phases: Phase order.
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        const auto phase = static_cast<Phase>(p);
        if (!record.started(phase))
            continue;
        PhaseStats &node = phaseNode(*this, phase);
        ++node.entries;
        node.seconds += record.secs[p];
    }
}

void
PhaseStats::add(const PhaseShards &lane)
{
    // A phase with counts has started, so its node is already there.
    for (std::size_t p = 0; p < lane.totals.size(); ++p)
        if (!lane.totals[p].empty())
            lane.totals[p].flushInto(
                phaseNode(*this, static_cast<Phase>(p)).counters);
}

ScopedPhase::ScopedPhase(Phase phase, PhaseRecord *record)
    : start_(record ? record->mark : Clock::time_point{}),
      stopped_(record == nullptr), record_(record), phase_(phase)
{
    if (PhaseShards *lane = record ? record->shards : nullptr) {
        SCHED91_ASSERT(detail::t_shard,
                       "a recorded phase opens in its block's shard");
        lane->opened[isSubPhase(phase)] = *detail::t_shard;
    }
}

double
ScopedPhase::stop()
{
    if (stopped_)
        return elapsed_;
    const Clock::time_point now = Clock::now();
    elapsed_ = std::chrono::duration<double>(now - start_).count();
    stopped_ = true;
    const auto p = static_cast<std::size_t>(phase_);
    SCHED91_ASSERT(!record_->started(phase_),
                   "a phase starts once per block");
    record_->mark = now;
    record_->startedMask |= static_cast<std::uint8_t>(1u << p);
    record_->secs[p] = elapsed_;
    const bool sub = isSubPhase(phase_);
    if (PhaseShards *lane = record_->shards)
        lane->totals[p].foldSince(*detail::t_shard, lane->opened[sub]);
    if (record_->counters && !sub)
        (*record_->counters)[p] = *detail::t_shard;
    return elapsed_;
}

double
PhaseRecord::mainSeconds() const
{
    double total = 0.0;
    for (std::size_t p = 0; p < kNumMainPhases; ++p)
        if (started(static_cast<Phase>(p)))
            total += secs[p];
    return total;
}

Phase
PhaseRecord::last() const
{
    const unsigned main = startedMask & ((1u << kNumMainPhases) - 1);
    return main == 0 ? Phase::Build
                     : static_cast<Phase>(std::bit_width(main) - 1);
}

} // namespace sched91::obs
