#include "obs/counters.hh"

#include <algorithm>
#include <array>

#include "obs/events.hh"

namespace sched91::obs
{

void
setEnabled(bool on)
{
    detail::g_enabled = on;
}

// --- CounterSet ------------------------------------------------------

std::vector<CounterSet::Item>::iterator
CounterSet::lowerBound(std::string_view name)
{
    return std::lower_bound(items_.begin(), items_.end(), name,
                            [](const Item &item, std::string_view key) {
                                return item.first < key;
                            });
}

std::vector<CounterSet::Item>::const_iterator
CounterSet::lowerBound(std::string_view name) const
{
    return std::lower_bound(items_.begin(), items_.end(), name,
                            [](const Item &item, std::string_view key) {
                                return item.first < key;
                            });
}

void
CounterSet::set(std::string name, std::uint64_t value)
{
    auto it = lowerBound(name);
    if (it != items_.end() && it->first == name)
        it->second = value;
    else
        items_.insert(it, Item{std::move(name), value});
}

std::uint64_t
CounterSet::value(std::string_view name) const
{
    auto it = lowerBound(name);
    return it != items_.end() && it->first == name ? it->second : 0;
}

bool
CounterSet::contains(std::string_view name) const
{
    auto it = lowerBound(name);
    return it != items_.end() && it->first == name;
}

void
CounterSet::merge(const CounterSet &other)
{
    for (const Item &item : other.items_) {
        auto it = lowerBound(item.first);
        if (it != items_.end() && it->first == item.first)
            it->second += item.second;
        else
            items_.insert(it, item);
    }
}

CounterSet
CounterSet::nonzero() const
{
    CounterSet out;
    for (const Item &item : items_)
        if (item.second != 0)
            out.items_.push_back(item);
    return out;
}

// --- The roster ------------------------------------------------------

namespace
{

constexpr std::size_t kNumCounters = std::size(kCounters);

/** Every roster id in ascending name order, the order a CounterSet
 * keeps. */
constexpr std::array<std::size_t, kNumCounters> kByName = [] {
    std::array<std::size_t, kNumCounters> ids{};
    for (std::size_t id = 0; id < kNumCounters; ++id)
        ids[id] = id;
    std::sort(ids.begin(), ids.end(), [](std::size_t a, std::size_t b) {
        return kCounters[a].name < kCounters[b].name;
    });
    return ids;
}();

/** The roster id of @p name; kNumCounters when it has none. */
std::size_t
idOf(std::string_view name)
{
    std::size_t id = 0;
    while (id < kNumCounters && kCounters[id].name != name)
        ++id;
    return id;
}

} // namespace

CounterKind
kindOf(std::string_view name)
{
    const std::size_t id = idOf(name);
    return id < kNumCounters ? kCounters[id].kind : CounterKind::Sum;
}

std::string_view
Counter::name() const
{
    return kCounters[id_].name;
}

// --- CounterShard ----------------------------------------------------

void
CounterShard::allocate()
{
    slots_.assign(kNumCounters, 0);
}

std::uint64_t
CounterShard::value(std::string_view name) const
{
    return value(idOf(name));
}

bool
CounterShard::empty() const
{
    return std::all_of(slots_.begin(), slots_.end(),
                       [](std::uint64_t v) { return v == 0; });
}

void
CounterShard::clear()
{
    std::fill(slots_.begin(), slots_.end(), 0);
}

CounterShard
CounterShard::since(const CounterShard &before) const
{
    CounterShard out = *this;
    for (std::size_t id = 0; id < slots_.size(); ++id)
        if (kCounters[id].kind == CounterKind::Sum)
            out.slots_[id] -= before.value(id);
    return out;
}

void
CounterShard::foldSince(const CounterShard &now, const CounterShard &before)
{
    if (now.slots_.empty())
        return;
    if (slots_.empty())
        allocate();
    for (std::size_t id = 0; id < kNumCounters; ++id) {
        const std::uint64_t v = now.slots_[id];
        if (kCounters[id].kind == CounterKind::Sum)
            slots_[id] += v - before.value(id);
        else if (v > slots_[id])
            slots_[id] = v;
    }
}

CounterSet
CounterShard::named() const
{
    CounterSet out;
    out.items_.reserve(kNumCounters);
    for (std::size_t id : kByName)
        out.items_.emplace_back(kCounters[id].name, value(id));
    return out;
}

void
CounterShard::flushInto(CounterShard &into) const
{
    for (std::size_t id = 0; id < slots_.size(); ++id) {
        if (slots_[id] == 0)
            continue;
        if (kCounters[id].kind == CounterKind::Max)
            into.recordMax(id, slots_[id]);
        else
            into.add(id, slots_[id]);
    }
}

void
CounterShard::flushIntoActive() const
{
    if (CounterShard *shard = detail::t_shard)
        flushInto(*shard);
}

} // namespace sched91::obs
