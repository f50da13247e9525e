#include "obs/phase.hh"

#include <utility>

#include "support/logging.hh"

namespace sched91::obs
{

const PhaseStats *
PhaseStats::child(std::string_view child_name) const
{
    for (const PhaseStats &c : children)
        if (c.name == child_name)
            return &c;
    return nullptr;
}

PhaseProfiler &
PhaseProfiler::global()
{
    static PhaseProfiler instance;
    return instance;
}

PhaseProfiler &
PhaseProfiler::active()
{
    return detail::t_profiler ? *detail::t_profiler : global();
}

void
PhaseProfiler::clear()
{
    SCHED91_ASSERT(stack_.empty(),
                   "cannot clear the phase tree with phases open");
    root_.children.clear();
    root_.counters = CounterShard{};
    root_.entries = 0;
    root_.seconds = 0.0;
}

namespace
{

void
mergeNode(PhaseStats &into, const PhaseStats &from)
{
    into.entries += from.entries;
    into.seconds += from.seconds;
    from.counters.flushInto(into.counters);
    for (const PhaseStats &fc : from.children) {
        PhaseStats *ic = nullptr;
        for (PhaseStats &c : into.children)
            if (c.name == fc.name) {
                ic = &c;
                break;
            }
        if (!ic) {
            into.children.push_back(PhaseStats{});
            ic = &into.children.back();
            ic->name = fc.name;
        }
        mergeNode(*ic, fc);
    }
}

} // namespace

void
PhaseProfiler::mergeFrom(const PhaseProfiler &other)
{
    SCHED91_ASSERT(stack_.empty() && other.stack_.empty(),
                   "cannot merge phase trees with phases open");
    mergeNode(root_, other.root_);
}

PhaseStats *
PhaseProfiler::enter(const char *name)
{
    PhaseStats *parent = stack_.empty() ? &root_ : stack_.back();
    PhaseStats *node = nullptr;
    for (PhaseStats &c : parent->children)
        if (c.name == name) {
            node = &c;
            break;
        }
    if (!node) {
        // Only the innermost open phase ever grows children, so this
        // push_back cannot invalidate any pointer still on the stack.
        parent->children.push_back(PhaseStats{});
        node = &parent->children.back();
        node->name = name;
    }
    ++node->entries;
    stack_.push_back(node);
    return node;
}

void
PhaseProfiler::exit(double seconds, const CounterShard &delta)
{
    SCHED91_ASSERT(!stack_.empty(), "phase exit without enter");
    PhaseStats *node = stack_.back();
    stack_.pop_back();
    node->seconds += seconds;
    delta.flushInto(node->counters);
}

ScopedPhase::ScopedPhase(const char *name, PhaseProfiler &profiler)
    : profiler_(profiler), start_(Clock::now())
{
    if (enabled()) {
        profiler_.enter(name);
        snap_ = activeCounters();
        peaks_ = detail::t_shard != nullptr;
        open_ = true;
    }
}

ScopedPhase::ScopedPhase(Phase phase, PhaseRecord *record)
    : ScopedPhase(phaseNames(phase).name)
{
    record_ = record;
    phase_ = phase;
}

double
ScopedPhase::stop()
{
    if (stopped_)
        return elapsed_;
    elapsed_ =
        std::chrono::duration<double>(Clock::now() - start_).count();
    stopped_ = true;
    if (open_) {
        CounterShard now = activeCounters();
        profiler_.exit(elapsed_, now.since(snap_, peaks_));
        snap_ = std::move(now);
        open_ = false;
    }
    if (record_) {
        SCHED91_ASSERT(record_->size < record_->entries.size(),
                       "phase record is full");
        PhaseRecord::Entry &e = record_->entries[record_->size++];
        e.phase = phase_;
        e.seconds = elapsed_;
        if (record_->keepCounters)
            e.counters = snap_;
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
