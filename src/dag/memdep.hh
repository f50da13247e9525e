/**
 * @file
 * Memory dependence disambiguation (paper Section 2).
 *
 * "The DAG construction algorithm may have to treat memory as a single
 * resource, which leads to serialization of all loads and stores"
 * (AliasPolicy::SerializeAll).  "If two memory references use the same
 * base register but different offsets, they cannot refer to the same
 * location" (AliasPolicy::BaseOffset) — guarded here by base-register
 * generation stamps, since the observation only holds while the base
 * register is unchanged.  "Warren noted that storage classes (e.g.,
 * heap vs. stack) typically do not overlap" (AliasPolicy::StorageClassed
 * additionally separates %sp/%fp-based from symbol-based references).
 */

#ifndef SCHED91_DAG_MEMDEP_HH
#define SCHED91_DAG_MEMDEP_HH

#include <cstdint>
#include <span>
#include <string_view>

#include "ir/operand.hh"
#include "obs/counters.hh"
#include "support/arena.hh"

namespace sched91
{

/** Disambiguation aggressiveness, weakest to strongest. */
enum class AliasPolicy : std::uint8_t {
    SerializeAll,   ///< memory is one resource
    BaseOffset,     ///< same base reg + disjoint offsets are independent
    StorageClassed, ///< BaseOffset + stack/static class separation
    /**
     * Each unique symbolic address expression is its own resource —
     * the model the paper's tooling used (Table 3 counts "unique
     * memory expressions" exactly because each one gets a
     * definition-entry/use-list pair).  Distinct stable expressions
     * are treated as independent; references whose base registers
     * were redefined (generation mismatch) or that use index
     * registers stay conservative.  Not sound for arbitrary code (two
     * different base registers may hold the same address) but
     * faithful to the 1991 implementations and to compiler output
     * where distinct expressions name distinct locations.
     */
    SymbolicExpr,
};

std::string_view aliasPolicyName(AliasPolicy policy);

/** Three-valued alias verdict. */
enum class AliasResult : std::uint8_t {
    NoAlias,   ///< provably different locations
    MayAlias,  ///< cannot tell; serialize conservatively
    MustAlias, ///< provably the same location
};

/**
 * Alias oracle over parsed memory operands.  Its verdicts are pure;
 * its only state is the count of its queries, added to
 * `dag.alias_queries` once, as the oracle goes out of scope (a build's
 * oracle dies with the build, cut short or not).
 */
class MemDisambiguator
{
  public:
    explicit MemDisambiguator(AliasPolicy policy);

    AliasPolicy policy() const { return policy_; }

    /** Alias verdict for two references within one basic block. */
    AliasResult alias(const MemOperand &a, const MemOperand &b) const;

  private:
    AliasPolicy policy_;
    mutable obs::CountBatch queries_;
};

/**
 * The table builders' memory side: "a record of the last definition
 * of a resource and the set of current uses" (Section 2), one entry
 * per memory expression that no earlier entry must-aliased.  Node ids
 * are block-relative.
 *
 * forEachAlias() asks the oracle about the entries a reference may
 * alias and hands the builder each one not proved independent, always
 * in entry (creation) order, so a build adds the same arcs in the
 * same order as a walk over every entry would.
 *
 * Under SymbolicExpr, a reference without an index register can alias
 * only references of its own shape (base register and symbol) and
 * references with an index register (see MemDisambiguator::alias).
 * So the table files each entry without an index register under its
 * shape and generations (base and index register), sorted by byte
 * offset, and puts each entry with one on a side list.  A query
 * without an index register visits its shape's entries of other
 * generations, those of its own generations whose bytes meet its own,
 * and the side list.  Every other policy, and every query with an
 * index register, visits every entry.
 *
 * An entry points at the MemOperand of the instruction that made it.
 * Storage comes from the constructor's arena (the worker's scratch
 * arena in the pipeline, the heap when null), and the table rewinds
 * that arena as it goes: whatever the arena handed out while the
 * table lived goes back with it, so give a table an arena nothing else
 * uses meanwhile.  A block without memory references allocates
 * nothing.
 */
class MemTable
{
  public:
    struct Entry
    {
        const MemOperand *ref;           ///< the reference that made it
        std::int64_t def = -1;           ///< node of the governing store
        ArenaVector<std::uint32_t> uses; ///< loads since/until that store
    };

    /** Home buckets of an empty shape table. */
    static constexpr std::uint32_t kMinBuckets = 16;

    MemTable(AliasPolicy policy, Arena *arena);

    /**
     * Call fn(entry, verdict) for each entry the oracle does not prove
     * independent of @p ref, in entry order.  Returns true when one of
     * them must-aliases @p ref; otherwise the caller add()s an entry.
     */
    template <typename Fn>
    bool forEachAlias(const MemOperand &ref, Fn &&fn);

    /** A new entry for @p ref, with no definition or use yet. */
    Entry &add(const MemOperand &ref);

    /** Entries visited so far: one oracle query each. */
    std::uint64_t probes() const { return probes_; }

    /** Hash of a shape; its low bits pick the home bucket. */
    static std::uint64_t shapeHash(int base, std::string_view symbol);

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    /** An entry filed under its group, by byte offset. */
    struct Slot
    {
        std::int64_t offset;
        std::uint32_t entry;
        std::uint8_t width;
    };

    /** Entries of one shape and generation pair. */
    struct Group
    {
        int base;
        std::string_view symbol;
        std::uint32_t baseGen;
        std::uint32_t indexGen;
        std::uint32_t nextOfShape; ///< another group of the shape, or kNone
        std::uint8_t maxWidth;
        ArenaVector<Slot> slots;   ///< ascending offset
    };

    /** True when @p ref is filed by shape (and queries by it). */
    bool
    filed(const MemOperand &ref) const
    {
        return indexed_ && ref.index < 0;
    }

    /** The shape's bucket: a group of it plus one, or 0 when empty. */
    std::uint32_t &bucket(int base, std::string_view symbol);

    /** Entries of @p ref's shape it may alias, ascending. */
    std::span<const std::uint32_t> shapeCandidates(const MemOperand &ref);

    void file(const MemOperand &ref, std::uint32_t id);

    ArenaScratch scratch_; ///< first, so it gives storage back last
    MemDisambiguator oracle_;
    bool indexed_;
    std::uint64_t probes_ = 0;
    ArenaVector<Entry> entries_;
    ArenaVector<std::uint32_t> side_;    ///< entries every query visits
    ArenaVector<Group> groups_;
    ArenaVector<std::uint32_t> buckets_; ///< open addressing, by shape
    std::uint32_t shapes_ = 0;
    ArenaVector<std::uint32_t> cand_;    ///< shapeCandidates' result
};

template <typename Fn>
bool
MemTable::forEachAlias(const MemOperand &ref, Fn &&fn)
{
    bool claimed = false;
    auto visit = [&](std::uint32_t id) {
        ++probes_;
        Entry &e = entries_[id];
        AliasResult rel = oracle_.alias(ref, *e.ref);
        if (rel == AliasResult::NoAlias)
            return;
        fn(e, rel);
        claimed = claimed || rel == AliasResult::MustAlias;
    };
    if (!filed(ref)) {
        for (std::uint32_t id = 0; id < entries_.size(); ++id)
            visit(id);
        return claimed;
    }
    // Merge the shape's candidates with the side list, both ascending.
    std::span<const std::uint32_t> cands = shapeCandidates(ref);
    std::size_t c = 0;
    std::size_t s = 0;
    while (c < cands.size() || s < side_.size()) {
        if (s == side_.size() ||
            (c < cands.size() && cands[c] < side_[s])) {
            visit(cands[c++]);
        } else {
            visit(side_[s++]);
        }
    }
    return claimed;
}

} // namespace sched91

#endif // SCHED91_DAG_MEMDEP_HH
