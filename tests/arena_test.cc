/**
 * @file
 * Unit tests for the block-lifetime bump arena and its std-allocator
 * adapter: alignment, chunk growth and retention across reset(), what
 * rewind() gives back, the null-arena heap fallback, and ArenaVector
 * behavior under the allocator-propagating move that the DAG builders
 * rely on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

#include "support/arena.hh"

namespace sched91
{
namespace
{

TEST(Arena, AllocationsAreAligned)
{
    Arena arena(256);
    for (std::size_t align : {1u, 2u, 4u, 8u, 16u, 64u}) {
        void *p = arena.allocate(3, align);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u);
    }
}

TEST(Arena, AllocationsDoNotOverlap)
{
    Arena arena(128); // small chunks force several allocateSlow paths
    std::vector<std::pair<std::uintptr_t, std::size_t>> spans;
    for (int i = 0; i < 100; ++i) {
        std::size_t bytes = 1 + (i * 7) % 40;
        auto p = reinterpret_cast<std::uintptr_t>(arena.allocate(bytes, 8));
        for (const auto &[q, qb] : spans)
            EXPECT_TRUE(p + bytes <= q || q + qb <= p)
                << "allocation " << i << " overlaps an earlier one";
        spans.emplace_back(p, bytes);
    }
}

TEST(Arena, OversizedRequestGetsDedicatedChunk)
{
    Arena arena(64);
    void *p = arena.allocateArray<std::uint64_t>(1000);
    ASSERT_NE(p, nullptr);
    EXPECT_GE(arena.bytesReserved(), 8000u);
}

TEST(Arena, AChunkIsSizedByTheReserveNotByTheLastChunk)
{
    // A new chunk is as large as the chunks before it together, or as
    // the request: a large request gets a chunk of its own size, and
    // the chunk after it does not double that size.
    Arena arena(64);
    arena.allocate(8, 8);     // the first chunk: 64 bytes
    arena.allocate(1000, 8);  // a chunk of its own: 1008 bytes
    EXPECT_EQ(arena.bytesReserved(), 64u + 1008u);
    arena.allocate(16, 8);    // past it: the reserve so far, 1072
    EXPECT_EQ(arena.numChunks(), 3u);
    EXPECT_EQ(arena.bytesReserved(), 64u + 1008u + 1072u);
}

TEST(Arena, ResetRetainsChunks)
{
    Arena arena(128);
    for (int i = 0; i < 50; ++i)
        arena.allocate(32, 8);
    std::size_t reserved = arena.bytesReserved();
    std::size_t chunks = arena.numChunks();
    EXPECT_GT(chunks, 1u);

    arena.reset();
    EXPECT_EQ(arena.bytesInUse(), 0u);
    EXPECT_EQ(arena.bytesReserved(), reserved);
    EXPECT_EQ(arena.numChunks(), chunks);

    // Steady state: the same allocation pattern fits in the retained
    // chunks, so no new storage is acquired.
    for (int i = 0; i < 50; ++i)
        arena.allocate(32, 8);
    EXPECT_EQ(arena.bytesReserved(), reserved);
    EXPECT_EQ(arena.numChunks(), chunks);
}

TEST(Arena, ValuesSurviveUntilReset)
{
    Arena arena(256);
    std::vector<int *> ptrs;
    for (int i = 0; i < 200; ++i) {
        int *p = arena.allocateArray<int>(1);
        *p = i;
        ptrs.push_back(p);
    }
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(*ptrs[i], i);
}

TEST(Arena, RewindGivesScratchAndItsCountsBack)
{
    Arena arena(128);
    arena.allocate(40, 8);
    const std::size_t in_use = arena.bytesInUse();
    const std::size_t total = arena.totalBytesAllocated();
    {
        ArenaScratch scratch(&arena);
        for (int i = 0; i < 8; ++i)
            arena.allocate(100, 8); // past the first chunk
    }
    EXPECT_EQ(arena.bytesInUse(), in_use);
    EXPECT_EQ(arena.totalBytesAllocated(), total);
    const std::size_t chunks = arena.numChunks();
    {
        ArenaScratch scratch(&arena);
        for (int i = 0; i < 8; ++i)
            arena.allocate(100, 8);
    }
    EXPECT_EQ(arena.numChunks(), chunks); // the same storage again
}

TEST(Arena, RewindBeforeTheFirstChunkReusesIt)
{
    Arena arena(256);
    for (int round = 0; round < 4; ++round) {
        ArenaScratch scratch(&arena);
        arena.allocate(100, 8);
    }
    EXPECT_EQ(arena.numChunks(), 1u);
    EXPECT_EQ(arena.totalBytesAllocated(), 0u);
}

TEST(ArenaAllocator, NullArenaFallsBackToHeap)
{
    ArenaAllocator<int> alloc;
    EXPECT_EQ(alloc.arena(), nullptr);
    int *p = alloc.allocate(4);
    ASSERT_NE(p, nullptr);
    p[0] = 7;
    alloc.deallocate(p, 4);
}

TEST(ArenaAllocator, EqualityIsArenaIdentity)
{
    Arena a, b;
    EXPECT_EQ(ArenaAllocator<int>(&a), ArenaAllocator<int>(&a));
    EXPECT_NE(ArenaAllocator<int>(&a), ArenaAllocator<int>(&b));
    EXPECT_NE(ArenaAllocator<int>(&a), ArenaAllocator<int>());
    // Rebinding keeps the arena.
    ArenaAllocator<double> rebound{ArenaAllocator<int>(&a)};
    EXPECT_EQ(rebound.arena(), &a);
}

TEST(ArenaVector, GrowsInsideArena)
{
    Arena arena;
    ArenaVector<std::uint32_t> v{ArenaAllocator<std::uint32_t>(&arena)};
    for (std::uint32_t i = 0; i < 1000; ++i)
        v.push_back(i);
    EXPECT_GT(arena.bytesInUse(), 1000 * sizeof(std::uint32_t) - 1);
    EXPECT_EQ(std::accumulate(v.begin(), v.end(), 0u), 999u * 1000u / 2u);
}

TEST(Arena, ArmedAllocFailureThrowsOnceThenRecovers)
{
    Arena arena(256);
    // Warm the arena so recovery lands back in a retained chunk.
    arena.allocate(64, 8);
    arena.reset();

    arena.armAllocFailure();
    EXPECT_THROW(arena.allocate(16, 8), std::bad_alloc);

    // One-shot: the throw restored a clean start-of-block state and
    // the arena is immediately usable again.
    void *p = arena.allocate(16, 8);
    ASSERT_NE(p, nullptr);
    EXPECT_THROW(
        {
            arena.armAllocFailure();
            arena.allocate(1, 1);
        },
        std::bad_alloc);
    EXPECT_NE(arena.allocate(32, 8), nullptr);
}

TEST(Arena, ResetDisarmsAllocFailure)
{
    Arena arena;
    arena.armAllocFailure();
    arena.reset();
    // The armed failure must not leak into the next block.
    EXPECT_NE(arena.allocate(8, 8), nullptr);
}

TEST(Arena, ArmedFailureOnVirginArenaLeavesItUsable)
{
    // No chunks exist yet: the recovery path must handle the empty
    // case (cursor back to zero) and the next allocation grows a
    // chunk normally.
    Arena arena(128);
    arena.armAllocFailure();
    EXPECT_THROW(arena.allocate(8, 8), std::bad_alloc);
    EXPECT_NE(arena.allocate(8, 8), nullptr);
    EXPECT_EQ(arena.numChunks(), 1u);
}

TEST(ArenaVector, MoveAssignmentPropagatesAllocator)
{
    // The DAG builders install arena storage by move-assigning an
    // empty arena-backed vector over a default (heap) one; POCMA makes
    // the target adopt the arena.
    Arena arena;
    ArenaVector<std::uint32_t> heap_backed;
    heap_backed = ArenaVector<std::uint32_t>(
        ArenaAllocator<std::uint32_t>(&arena));
    EXPECT_EQ(heap_backed.get_allocator().arena(), &arena);

    std::size_t before = arena.bytesInUse();
    for (std::uint32_t i = 0; i < 100; ++i)
        heap_backed.push_back(i);
    EXPECT_GT(arena.bytesInUse(), before);
}

} // namespace
} // namespace sched91
