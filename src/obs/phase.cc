#include "obs/phase.hh"

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
    auto addEntry = [this](const PhaseRecord::Entry &e) {
        PhaseStats &node = phaseNode(*this, e.phase);
        ++node.entries;
        node.seconds += e.seconds;
    };
    for (const PhaseRecord::Entry &e : record)
        addEntry(e);
    for (std::size_t i = 0; i < record.numSubs; ++i)
        addEntry(record.subs[i]);
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
    : start_(Clock::now()), record_(record), phase_(phase)
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
    elapsed_ =
        std::chrono::duration<double>(Clock::now() - start_).count();
    stopped_ = true;
    if (record_) {
        const bool sub = isSubPhase(phase_);
        SCHED91_ASSERT(sub ? record_->numSubs < record_->subs.size()
                           : record_->size < record_->entries.size(),
                       "phase record is full");
        PhaseRecord::Entry &e = sub ? record_->subs[record_->numSubs++]
                                    : record_->entries[record_->size++];
        e.phase = phase_;
        e.seconds = elapsed_;
        if (PhaseShards *lane = record_->shards)
            lane->totals[static_cast<std::size_t>(phase_)].foldSince(
                *detail::t_shard, lane->opened[sub]);
        if (record_->keepCounters && !sub)
            e.counters = *detail::t_shard;
    }
    return elapsed_;
}

double
PhaseRecord::seconds(Phase phase) const
{
    for (const Entry &e : *this)
        if (e.phase == phase)
            return e.seconds;
    return 0.0;
}

} // namespace sched91::obs
