#include "dag/memdep.hh"

#include <algorithm>
#include <limits>

#include "obs/events.hh"

namespace sched91
{

std::string_view
aliasPolicyName(AliasPolicy policy)
{
    switch (policy) {
      case AliasPolicy::SerializeAll: return "serialize-all";
      case AliasPolicy::BaseOffset: return "base-offset";
      case AliasPolicy::StorageClassed: return "storage-classed";
      case AliasPolicy::SymbolicExpr: return "symbolic-expr";
    }
    return "?";
}

MemDisambiguator::MemDisambiguator(AliasPolicy policy)
    : policy_(policy), queries_(obs::ev::dagAliasQueries)
{
}

AliasResult
MemDisambiguator::alias(const MemOperand &a, const MemOperand &b) const
{
    queries_.add();
    if (policy_ == AliasPolicy::SerializeAll)
        return AliasResult::MustAlias;

    // Identical expression with identical base/index generations is the
    // same location.
    bool same_shape = a.base == b.base && a.index == b.index &&
                      a.symbol == b.symbol;
    bool same_gens = a.baseGen == b.baseGen && a.indexGen == b.indexGen;
    if (same_shape && same_gens && a.offset == b.offset)
        return AliasResult::MustAlias;

    // Storage-class separation (Warren): stack vs static never overlap.
    if (policy_ == AliasPolicy::StorageClassed) {
        StorageClass ca = a.storageClass();
        StorageClass cb = b.storageClass();
        if (ca != cb && ca != StorageClass::Unknown &&
            cb != StorageClass::Unknown) {
            return AliasResult::NoAlias;
        }
    }

    // Expression-as-resource model: references through *different*
    // base registers or symbols are distinct resources outright
    // (generation stamps are per-register counters — they are only
    // comparable between references sharing a base).  Same-shape
    // references continue to the shared logic below, which demands
    // matching generations before proving anything.
    if (policy_ == AliasPolicy::SymbolicExpr && a.index < 0 &&
        b.index < 0 && !same_shape) {
        return AliasResult::NoAlias;
    }

    // Same-base different-offset reasoning, valid only when neither
    // reference has an index register and the base generations match.
    if (same_shape && same_gens && a.index < 0) {
        std::int64_t a_end = a.offset + a.width;
        std::int64_t b_end = b.offset + b.width;
        if (a.offset >= b_end || b.offset >= a_end)
            return AliasResult::NoAlias;
        return AliasResult::MayAlias; // partial overlap
    }

    // Two distinct symbols with no registers are distinct objects.
    if (a.base < 0 && a.index < 0 && b.base < 0 && b.index < 0 &&
        !a.symbol.empty() && !b.symbol.empty() && a.symbol != b.symbol) {
        return AliasResult::NoAlias;
    }

    return AliasResult::MayAlias;
}

namespace
{

/**
 * False only when [a, a + aw) and [b, b + bw) are disjoint and their
 * offsets differ: the same-generation NoAlias of
 * MemDisambiguator::alias.  An end past the int64 range is left to the
 * oracle.
 */
bool
mayMeet(std::int64_t a, unsigned aw, std::int64_t b, unsigned bw)
{
    std::int64_t a_end = 0;
    std::int64_t b_end = 0;
    if (__builtin_add_overflow(a, aw, &a_end) ||
        __builtin_add_overflow(b, bw, &b_end))
        return true;
    return a == b || (a < b_end && b < a_end);
}

/** a + b, clamped to the int64 range. */
std::int64_t
clampedAdd(std::int64_t a, std::int64_t b)
{
    std::int64_t sum = 0;
    if (!__builtin_add_overflow(a, b, &sum))
        return sum;
    return b < 0 ? std::numeric_limits<std::int64_t>::min()
                 : std::numeric_limits<std::int64_t>::max();
}

} // namespace

MemTable::MemTable(AliasPolicy policy, Arena *arena)
    : scratch_(arena), oracle_(policy),
      indexed_(policy == AliasPolicy::SymbolicExpr),
      entries_(ArenaAllocator<Entry>(arena)),
      side_(ArenaAllocator<std::uint32_t>(arena)),
      groups_(ArenaAllocator<Group>(arena)),
      buckets_(ArenaAllocator<std::uint32_t>(arena)),
      cand_(ArenaAllocator<std::uint32_t>(arena))
{
}

std::uint64_t
MemTable::shapeHash(int base, std::string_view symbol)
{
    // FNV-1a over the symbol, seeded with the base register, then a
    // multiplicative finish so the low bits mix.
    std::uint64_t h =
        0xcbf29ce484222325ull ^ static_cast<std::uint64_t>(base + 1);
    for (char c : symbol) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    h *= 0x9e3779b97f4a7c15ull;
    return h ^ (h >> 32);
}

std::uint32_t &
MemTable::bucket(int base, std::string_view symbol)
{
    // Linear probing; the table is never more than half full.
    const auto mask = static_cast<std::uint32_t>(buckets_.size() - 1);
    auto b = static_cast<std::uint32_t>(shapeHash(base, symbol)) & mask;
    for (;; b = (b + 1) & mask) {
        std::uint32_t &head = buckets_[b];
        if (head == 0)
            return head;
        const Group &g = groups_[head - 1];
        if (g.base == base && g.symbol == symbol)
            return head;
    }
}

MemTable::Entry &
MemTable::add(const MemOperand &ref)
{
    const auto id = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(
        Entry{&ref, -1,
              ArenaVector<std::uint32_t>(entries_.get_allocator())});
    if (filed(ref))
        file(ref, id);
    else if (indexed_)
        side_.push_back(id);
    return entries_.back();
}

void
MemTable::file(const MemOperand &ref, std::uint32_t id)
{
    if (2 * (shapes_ + 1) > buckets_.size()) {
        ArenaVector<std::uint32_t> old(
            std::max<std::size_t>(kMinBuckets, 2 * buckets_.size()), 0,
            buckets_.get_allocator());
        old.swap(buckets_);
        for (std::uint32_t head : old)
            if (head != 0)
                bucket(groups_[head - 1].base, groups_[head - 1].symbol) =
                    head;
    }
    std::uint32_t &head = bucket(ref.base, ref.symbol);
    std::uint32_t g = head == 0 ? kNone : head - 1;
    while (g != kNone && (groups_[g].baseGen != ref.baseGen ||
                          groups_[g].indexGen != ref.indexGen))
        g = groups_[g].nextOfShape;
    if (g == kNone) {
        if (head == 0)
            ++shapes_;
        g = static_cast<std::uint32_t>(groups_.size());
        groups_.push_back(Group{ref.base, ref.symbol, ref.baseGen,
                                ref.indexGen, head == 0 ? kNone : head - 1,
                                0,
                                ArenaVector<Slot>(groups_.get_allocator())});
        head = g + 1;
    }
    Group &grp = groups_[g];
    grp.maxWidth = std::max(grp.maxWidth, ref.width);
    auto at = std::upper_bound(
        grp.slots.begin(), grp.slots.end(), ref.offset,
        [](std::int64_t off, const Slot &s) { return off < s.offset; });
    grp.slots.insert(at, Slot{ref.offset, id, ref.width});
}

std::span<const std::uint32_t>
MemTable::shapeCandidates(const MemOperand &ref)
{
    cand_.clear();
    if (buckets_.empty())
        return {};
    const std::uint32_t head = bucket(ref.base, ref.symbol);
    for (std::uint32_t g = head == 0 ? kNone : head - 1; g != kNone;
         g = groups_[g].nextOfShape) {
        const Group &grp = groups_[g];
        if (grp.baseGen != ref.baseGen || grp.indexGen != ref.indexGen) {
            // Another generation: the oracle can prove nothing.
            for (const Slot &s : grp.slots)
                cand_.push_back(s.entry);
            continue;
        }
        // Same generations: only bytes that meet ref's.  A slot below
        // ref.offset - maxWidth ends before ref begins.
        const std::int64_t lo = clampedAdd(ref.offset, -grp.maxWidth);
        const std::int64_t end = clampedAdd(ref.offset, ref.width);
        auto it = std::lower_bound(
            grp.slots.begin(), grp.slots.end(), lo,
            [](const Slot &s, std::int64_t off) { return s.offset < off; });
        for (; it != grp.slots.end(); ++it) {
            if (it->offset > ref.offset && it->offset >= end)
                break;
            if (mayMeet(ref.offset, ref.width, it->offset, it->width))
                cand_.push_back(it->entry);
        }
    }
    if (cand_.size() > 1)
        std::sort(cand_.begin(), cand_.end());
    return {cand_.data(), cand_.size()};
}

} // namespace sched91
