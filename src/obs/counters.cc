#include "obs/counters.hh"

#include <algorithm>

#include "support/logging.hh"

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

// --- CounterRegistry -------------------------------------------------

CounterRegistry &
CounterRegistry::global()
{
    static CounterRegistry instance;
    return instance;
}

std::size_t
CounterRegistry::addLocked(std::string_view name, CounterKind kind)
{
    std::size_t id = names_.size();
    if (id == kindCapacity_) {
        const std::size_t capacity = std::max<std::size_t>(64, 2 * id);
        auto table = std::make_unique<CounterKind[]>(capacity);
        if (id != 0)
            std::copy_n(kindTables_.back().get(), id, table.get());
        kinds_.store(table.get());
        kindTables_.push_back(std::move(table));
        kindCapacity_ = capacity;
    }
    // Past every published size(): no reader looks at this entry yet.
    kindTables_.back()[id] = kind;
    names_.emplace_back(name);
    slots_.push_back(0);
    index_.emplace(names_.back(), id);
    size_.store(id + 1);
    return id;
}

std::size_t
CounterRegistry::findLocked(std::string_view name) const
{
    auto it = index_.find(name);
    return it != index_.end() ? it->second : npos;
}

std::size_t
CounterRegistry::add(std::string_view name, CounterKind kind)
{
    std::lock_guard<std::mutex> lock(regMu_);
    if (index_.find(name) != index_.end())
        panic("duplicate counter '", std::string(name), "'");
    return addLocked(name, kind);
}

std::size_t
CounterRegistry::getOrAdd(std::string_view name, CounterKind kind)
{
    std::lock_guard<std::mutex> lock(regMu_);
    std::size_t id = findLocked(name);
    return id != npos ? id : addLocked(name, kind);
}

std::size_t
CounterRegistry::find(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(regMu_);
    return findLocked(name);
}

CounterKind
CounterRegistry::kindByName(std::string_view name) const
{
    std::size_t id = find(name);
    return id == npos ? CounterKind::Sum : kind(id);
}

std::uint64_t
CounterRegistry::valueByName(std::string_view name) const
{
    std::size_t id = find(name);
    return id == npos ? 0 : slots_[id];
}

void
CounterRegistry::resetAll()
{
    std::lock_guard<std::mutex> lock(regMu_);
    std::fill(slots_.begin(), slots_.end(), 0);
}

CounterSet
CounterRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(regMu_);
    CounterSet out;
    for (std::size_t id = 0; id < names_.size(); ++id)
        out.set(names_[id], slots_[id]);
    return out;
}

std::shared_ptr<const std::vector<std::size_t>>
CounterRegistry::idsByName() const
{
    std::lock_guard<std::mutex> lock(regMu_);
    if (!byName_ || byName_->size() != index_.size()) {
        auto ids = std::make_shared<std::vector<std::size_t>>();
        ids->reserve(index_.size());
        for (const auto &entry : index_)
            ids->push_back(entry.second);
        byName_ = std::move(ids);
    }
    return byName_;
}

CounterSet
CounterRegistry::deltaSince(const CounterSet &before) const
{
    std::lock_guard<std::mutex> lock(regMu_);
    CounterSet out;
    for (std::size_t id = 0; id < names_.size(); ++id)
        out.set(names_[id], slots_[id] - before.value(names_[id]));
    return out;
}

// --- CounterShard ----------------------------------------------------

std::uint64_t
CounterShard::value(std::string_view name) const
{
    const std::size_t id = registry_->find(name);
    return id == CounterRegistry::npos ? 0 : value(id);
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
    const CounterKind *kinds = registry_->kinds();
    CounterShard out = *this;
    for (std::size_t id = 0; id < slots_.size(); ++id)
        if (kinds[id] == CounterKind::Sum)
            out.slots_[id] -= before.value(id);
    return out;
}

void
CounterShard::foldSince(const CounterShard &now, const CounterShard &before)
{
    const CounterKind *kinds = registry_->kinds();
    if (slots_.size() < now.slots_.size())
        slots_.resize(now.slots_.size(), 0);
    for (std::size_t id = 0; id < now.slots_.size(); ++id) {
        const std::uint64_t v = now.slots_[id];
        if (kinds[id] == CounterKind::Sum)
            slots_[id] += v - before.value(id);
        else if (v > slots_[id])
            slots_[id] = v;
    }
}

CounterSet
CounterShard::named() const
{
    const std::shared_ptr<const std::vector<std::size_t>> ids =
        registry_->idsByName();
    CounterSet out;
    out.items_.reserve(ids->size());
    for (std::size_t id : *ids)
        out.items_.emplace_back(registry_->name(id), value(id));
    return out;
}

void
CounterShard::flushInto(CounterShard &into) const
{
    const CounterKind *kinds = registry_->kinds();
    for (std::size_t id = 0; id < slots_.size(); ++id) {
        if (slots_[id] == 0)
            continue;
        if (kinds[id] == CounterKind::Max)
            into.recordMax(id, slots_[id]);
        else
            into.add(id, slots_[id]);
    }
}

void
CounterShard::flushInto(CounterRegistry &into) const
{
    std::lock_guard<std::mutex> lock(into.regMu_);
    const CounterKind *kinds = registry_->kinds();
    for (std::size_t id = 0; id < slots_.size(); ++id) {
        if (slots_[id] == 0)
            continue;
        if (kinds[id] == CounterKind::Max)
            into.recordMax(id, slots_[id]);
        else
            into.increment(id, slots_[id]);
    }
}

void
CounterShard::flushIntoActive() const
{
    if (CounterShard *shard = detail::t_shard;
        shard && shard->registry_ == registry_)
        flushInto(*shard);
    else
        flushInto(*registry_);
}

CounterSet
SnapshotDeltaTracker::advance(const CounterSet &now)
{
    CounterSet delta;
    for (const auto &[name, value] : now.items()) {
        std::uint64_t v = value;
        if (registry_->kindByName(name) == CounterKind::Sum) {
            const std::uint64_t prev = last_.value(name);
            v = v > prev ? v - prev : 0;
        }
        delta.set(name, v);
    }
    last_ = now;
    return delta;
}

} // namespace sched91::obs
