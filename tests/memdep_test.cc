/**
 * @file
 * Memory disambiguation policy tests (paper Section 2): serialize-all,
 * base+offset, storage classes, and the expression-as-resource model
 * the paper's tooling used.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dag/memdep.hh"

namespace sched91
{
namespace
{

MemOperand
ref(const char *text, std::uint8_t width = 4, std::uint32_t base_gen = 0)
{
    auto m = MemOperand::parse(text, width);
    EXPECT_TRUE(m.has_value()) << text;
    m->baseGen = base_gen;
    return *m;
}

TEST(MemDep, SerializeAllIsMust)
{
    MemDisambiguator d(AliasPolicy::SerializeAll);
    EXPECT_EQ(d.alias(ref("[%o0+0]"), ref("[%g1+512]")),
              AliasResult::MustAlias);
}

TEST(MemDep, IdenticalExprIsMust)
{
    for (AliasPolicy policy :
         {AliasPolicy::BaseOffset, AliasPolicy::StorageClassed,
          AliasPolicy::SymbolicExpr}) {
        MemDisambiguator d(policy);
        EXPECT_EQ(d.alias(ref("[%o0+8]"), ref("[%o0+8]")),
                  AliasResult::MustAlias)
            << aliasPolicyName(policy);
    }
}

TEST(MemDep, SameBaseDisjointOffsetsNoAlias)
{
    MemDisambiguator d(AliasPolicy::BaseOffset);
    EXPECT_EQ(d.alias(ref("[%o0+0]"), ref("[%o0+8]")),
              AliasResult::NoAlias);
    // Overlapping ranges: [0,8) vs [4,8).
    EXPECT_EQ(d.alias(ref("[%o0+0]", 8), ref("[%o0+4]")),
              AliasResult::MayAlias);
}

TEST(MemDep, DifferentBasesMayAliasUnderBaseOffset)
{
    MemDisambiguator d(AliasPolicy::BaseOffset);
    EXPECT_EQ(d.alias(ref("[%o0+0]"), ref("[%o1+0]")),
              AliasResult::MayAlias);
}

TEST(MemDep, GenerationMismatchDowngradesToMay)
{
    MemDisambiguator d(AliasPolicy::BaseOffset);
    // Same base, disjoint offsets, but the base was redefined between
    // the two references.
    EXPECT_EQ(d.alias(ref("[%o0+0]", 4, 0), ref("[%o0+8]", 4, 1)),
              AliasResult::MayAlias);
    // Identical expression across a redefinition is not the same
    // location either.
    EXPECT_EQ(d.alias(ref("[%o0+0]", 4, 0), ref("[%o0+0]", 4, 1)),
              AliasResult::MayAlias);
}

TEST(MemDep, StorageClassesSeparateStackFromStatic)
{
    MemDisambiguator d(AliasPolicy::StorageClassed);
    EXPECT_EQ(d.alias(ref("[%fp-8]"), ref("[globl+0]")),
              AliasResult::NoAlias);
    EXPECT_EQ(d.alias(ref("[%fp-8]"), ref("[%g3+0]")),
              AliasResult::MayAlias); // unknown class stays conservative
}

TEST(MemDep, DistinctSymbolsNoAlias)
{
    MemDisambiguator d(AliasPolicy::BaseOffset);
    EXPECT_EQ(d.alias(ref("[alpha+0]"), ref("[beta+0]")),
              AliasResult::NoAlias);
    EXPECT_EQ(d.alias(ref("[alpha+0]"), ref("[alpha+0]")),
              AliasResult::MustAlias);
}

TEST(MemDep, SymbolicExprTreatsExpressionsAsResources)
{
    MemDisambiguator d(AliasPolicy::SymbolicExpr);
    // Distinct stable expressions are independent resources.
    EXPECT_EQ(d.alias(ref("[%o0+0]"), ref("[%i2+0]")),
              AliasResult::NoAlias);
    EXPECT_EQ(d.alias(ref("[%fp-8]"), ref("[datum+0]")),
              AliasResult::NoAlias);
    // Same expression is still the same resource.
    EXPECT_EQ(d.alias(ref("[%o0+16]"), ref("[%o0+16]")),
              AliasResult::MustAlias);
    // Different bases are distinct expressions regardless of their
    // (per-register) generation stamps.
    EXPECT_EQ(d.alias(ref("[%o0+0]", 4, 0), ref("[%i2+0]", 4, 1)),
              AliasResult::NoAlias);
    // A redefined base makes same-shape references conservative.
    EXPECT_EQ(d.alias(ref("[%o0+0]", 4, 0), ref("[%o0+8]", 4, 1)),
              AliasResult::MayAlias);
}

TEST(MemDep, IndexedReferencesStayConservative)
{
    for (AliasPolicy policy :
         {AliasPolicy::BaseOffset, AliasPolicy::StorageClassed,
          AliasPolicy::SymbolicExpr}) {
        MemDisambiguator d(policy);
        EXPECT_EQ(d.alias(ref("[%o0+%l0]"), ref("[%o0+8]")),
                  AliasResult::MayAlias)
            << aliasPolicyName(policy);
    }
}

/** Entries of @p refs that one query of @p query hands back, by index
 * into @p refs, in the order the table visits them. */
std::vector<std::size_t>
visited(MemTable &table, const std::vector<MemOperand> &refs,
        const MemOperand &query)
{
    std::vector<std::size_t> out;
    table.forEachAlias(query, [&](MemTable::Entry &e, AliasResult) {
        out.push_back(static_cast<std::size_t>(e.ref - refs.data()));
    });
    return out;
}

TEST(MemTable, SymbolicQueriesVisitOnlyWhatMayAlias)
{
    const std::vector<MemOperand> refs = {
        ref("[%o0+0]"),        ref("[%o0+8]"),   ref("[%i2+0]"),
        ref("[data+0]"),       ref("[%o0+%l0]"), ref("[%o0+0]", 4, 1),
        ref("[%o0+2]", 8, 0),
    };
    MemTable table(AliasPolicy::SymbolicExpr, nullptr);
    for (const MemOperand &r : refs)
        EXPECT_EQ(table.add(r).ref, &r);

    // [%o0+16] meets no byte of its own generation; it may alias the
    // indexed entry (side list) and the other generation's [%o0+0].
    EXPECT_EQ(visited(table, refs, ref("[%o0+16]")),
              (std::vector<std::size_t>{4, 5}));
    EXPECT_EQ(table.probes(), 2u);

    // [%o0+0] must-aliases entry 0 and overlaps [%o0+2] (8 bytes);
    // [%o0+8] starts after it ends.
    std::vector<std::size_t> order;
    const bool must = table.forEachAlias(
        ref("[%o0+0]"), [&](MemTable::Entry &e, AliasResult) {
            order.push_back(static_cast<std::size_t>(e.ref - refs.data()));
        });
    EXPECT_TRUE(must);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 4, 5, 6}));
    EXPECT_EQ(table.probes(), 6u);

    // A shape with no entry of its own meets only the side list; an
    // indexed query asks about every entry.
    EXPECT_EQ(visited(table, refs, ref("[other+0]")),
              (std::vector<std::size_t>{4}));
    EXPECT_EQ(table.probes(), 7u);
    visited(table, refs, ref("[%o1+%l1]"));
    EXPECT_EQ(table.probes(), 7u + refs.size());
}

TEST(MemTable, OtherPoliciesAskAboutEveryEntry)
{
    for (AliasPolicy policy :
         {AliasPolicy::SerializeAll, AliasPolicy::BaseOffset,
          AliasPolicy::StorageClassed}) {
        const std::vector<MemOperand> refs = {
            ref("[%o0+0]"), ref("[%i2+0]"), ref("[data+0]")};
        MemTable table(policy, nullptr);
        for (const MemOperand &r : refs)
            table.add(r);
        visited(table, refs, ref("[%o0+8]"));
        EXPECT_EQ(table.probes(), refs.size()) << aliasPolicyName(policy);
    }
}

TEST(MemTable, GivesItsArenaStorageBackWhenItGoes)
{
    Arena arena;
    const std::vector<MemOperand> refs = {ref("[%o0+0]"), ref("[%o0+%l0]")};
    {
        MemTable table(AliasPolicy::SymbolicExpr, &arena);
        for (const MemOperand &r : refs)
            table.add(r).uses.push_back(1);
        EXPECT_GT(arena.bytesInUse(), 0u);
    }
    EXPECT_EQ(arena.bytesInUse(), 0u);
    EXPECT_EQ(arena.totalBytesAllocated(), 0u);
}

TEST(MemTable, ArcOracleBucketShapesShareAHomeBucket)
{
    // arc_oracle_test's "bucket" block relies on these two pairs.
    constexpr std::uint64_t kMask = MemTable::kMinBuckets - 1;
    EXPECT_EQ(MemTable::shapeHash(-1, "s0") & kMask,
              MemTable::shapeHash(-1, "s10") & kMask);
    EXPECT_EQ(MemTable::shapeHash(1, "") & kMask, // %g1
              MemTable::shapeHash(-1, "s2") & kMask);
}

} // namespace
} // namespace sched91
