/**
 * @file
 * Block-lifetime bump allocator for the scheduling pipeline.
 *
 * Every basic block needs a burst of short-lived allocations — DAG arc
 * index lists, table-builder def/use lists, scheduler scratch — that
 * all die together when the block's schedule has been produced.  An
 * Arena turns those into pointer bumps within reused chunks: reset()
 * recycles all storage at once (retaining the chunks), so after the
 * first few blocks a worker stops touching the global heap entirely.
 *
 * ArenaAllocator is the std-allocator adapter.  It is deliberately
 * nullable: with no arena attached it degrades to plain new/delete, so
 * container types can be shared between arena-backed pipeline code and
 * ordinary callers (tests, single-block CLI commands) without template
 * plumbing.
 *
 * Lifetime rule: anything allocated from an arena must be destroyed
 * before the next reset().  The pipeline enforces this by resetting
 * only at block boundaries, when the previous block's DAG and scratch
 * are already gone (see docs/PERFORMANCE.md).
 */

#ifndef SCHED91_SUPPORT_ARENA_HH
#define SCHED91_SUPPORT_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace sched91
{

/** Chunked bump allocator.  Not thread-safe; one per worker. */
class Arena
{
  public:
    static constexpr std::size_t kDefaultChunkBytes = 1 << 16;

    explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
        : chunkBytes_(chunk_bytes)
    {
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** Aligned raw storage; never returns null (throws bad_alloc). */
    void *
    allocate(std::size_t bytes, std::size_t align)
    {
        std::uintptr_t p = (cursor_ + (align - 1)) & ~(align - 1);
        if (p + bytes > limit_)
            return allocateSlow(bytes, align);
        cursor_ = p + bytes;
        bytesInUse_ += bytes;
        totalAllocated_ += bytes;
        return reinterpret_cast<void *>(p);
    }

    /** Uninitialized storage for @p n objects of type T. */
    template <typename T>
    T *
    allocateArray(std::size_t n)
    {
        return static_cast<T *>(allocate(n * sizeof(T), alignof(T)));
    }

    /**
     * Recycle every allocation at once.  Chunks are retained, so a
     * steady-state caller (one reset per block) stops allocating from
     * the heap after the high-water block has been seen.
     */
    void
    reset()
    {
        if (bytesInUse_ > highWater_)
            highWater_ = bytesInUse_;
        bytesInUse_ = 0;
        pendingAllocFailure_ = false;
        restart();
    }

    /**
     * Fault injection (support/fault_inject.hh, alloc-fail): make the
     * next allocation throw std::bad_alloc from *inside* the arena —
     * the same unwind an exhausted heap would produce mid-build, which
     * is a different containment path than failing at the pipeline's
     * build boundary.  Retained chunks make "a new chunk is needed"
     * depend on which blocks this worker ran before, so firing there
     * would break the (seed, content) determinism contract; arming at
     * the block boundary and failing the first allocation keeps the
     * decision a pure function of the block.  One-shot: the throw (or
     * the next reset()) clears it and restores the arena to a clean
     * start-of-block state.
     */
    void
    armAllocFailure()
    {
        pendingAllocFailure_ = true;
        // Force even the fast path through allocateSlow, where the
        // armed flag is checked: zero hot-path cost when not armed.
        cursor_ = limit_ = 0;
    }

    /** Where the next allocation goes, and the counts so far. */
    struct Mark
    {
        std::size_t chunkIndex = 0;
        std::uintptr_t cursor = 0;
        std::uintptr_t limit = 0;
        std::size_t bytesInUse = 0;
        std::size_t totalAllocated = 0;
    };

    Mark
    mark() const
    {
        return {chunkIndex_, cursor_, limit_, bytesInUse_, totalAllocated_};
    }

    /**
     * Take back everything allocated since @p m: its storage is handed
     * out again, and every count reads as it did at the mark, so
     * scratch given back this way never shows in the `mem.*` gauges.
     * Nothing allocated since the mark may be used afterwards; marks
     * nest.
     */
    void
    rewind(const Mark &m)
    {
        bytesInUse_ = m.bytesInUse;
        totalAllocated_ = m.totalAllocated;
        if (m.limit == 0) {
            // Marked before the first chunk: start again at it.
            restart();
            return;
        }
        chunkIndex_ = m.chunkIndex;
        cursor_ = m.cursor;
        limit_ = m.limit;
    }

    /** Live bytes handed out since the last reset (without padding). */
    std::size_t bytesInUse() const { return bytesInUse_; }

    /** Cumulative bytes handed out over the arena's lifetime, across
     * resets (without padding).  Deterministic for a given block
     * sequence, so it can back `mem.*` counters. */
    std::size_t totalBytesAllocated() const { return totalAllocated_; }

    /** Largest bytesInUse() any single reset cycle (block) reached,
     * including the current one — the per-worker working-set peak. */
    std::size_t
    highWaterBytes() const
    {
        return bytesInUse_ > highWater_ ? bytesInUse_ : highWater_;
    }

    /** Total chunk storage owned by the arena. */
    std::size_t bytesReserved() const { return reserved_; }

    std::size_t numChunks() const { return chunks_.size(); }

  private:
    struct Chunk
    {
        std::unique_ptr<std::byte[]> data;
        std::size_t bytes = 0;
    };

    /** Point the cursor at the first chunk's start (none yet: 0). */
    void
    restart()
    {
        chunkIndex_ = 0;
        if (chunks_.empty()) {
            cursor_ = limit_ = 0;
            return;
        }
        cursor_ = reinterpret_cast<std::uintptr_t>(chunks_[0].data.get());
        limit_ = cursor_ + chunks_[0].bytes;
    }

    void *
    allocateSlow(std::size_t bytes, std::size_t align)
    {
        if (pendingAllocFailure_) {
            // armAllocFailure() zeroed the cursor to route the next
            // allocation here; restore the start-of-block state so the
            // degradation path can keep using the arena.
            pendingAllocFailure_ = false;
            restart();
            throw std::bad_alloc();
        }
        // Advance through retained chunks first; grow only when none
        // of them fits.  A new chunk is as large as all the chunks
        // before it together, or as the request if that is larger, so
        // the reserve doubles as it grows (chunk count stays
        // logarithmic), and one large slab does not double every chunk
        // after it.
        while (chunkIndex_ + 1 < chunks_.size()) {
            ++chunkIndex_;
            const Chunk &c = chunks_[chunkIndex_];
            cursor_ = reinterpret_cast<std::uintptr_t>(c.data.get());
            limit_ = cursor_ + c.bytes;
            std::uintptr_t p = (cursor_ + (align - 1)) & ~(align - 1);
            if (p + bytes <= limit_) {
                cursor_ = p + bytes;
                bytesInUse_ += bytes;
                totalAllocated_ += bytes;
                return reinterpret_cast<void *>(p);
            }
        }
        const std::size_t want = bytes + align;
        const std::size_t grown = chunks_.empty() ? chunkBytes_ : reserved_;
        const std::size_t size = want > grown ? want : grown;
        reserved_ += size;
        // Not zero-filled: nothing reads arena bytes it did not write,
        // and a chunk retained across resets hands out stale ones
        // anyway.
        chunks_.push_back(
            Chunk{std::make_unique_for_overwrite<std::byte[]>(size), size});
        chunkIndex_ = chunks_.size() - 1;
        cursor_ =
            reinterpret_cast<std::uintptr_t>(chunks_.back().data.get());
        limit_ = cursor_ + size;
        std::uintptr_t p = (cursor_ + (align - 1)) & ~(align - 1);
        cursor_ = p + bytes;
        bytesInUse_ += bytes;
        totalAllocated_ += bytes;
        return reinterpret_cast<void *>(p);
    }

    std::size_t chunkBytes_;
    std::size_t reserved_ = 0; ///< the chunks' bytes
    std::vector<Chunk> chunks_;
    std::size_t chunkIndex_ = 0;
    std::uintptr_t cursor_ = 0;
    std::uintptr_t limit_ = 0;
    std::size_t bytesInUse_ = 0;
    std::size_t totalAllocated_ = 0;
    std::size_t highWater_ = 0;
    bool pendingAllocFailure_ = false;
};

/**
 * std-allocator over an optional Arena.  A null arena falls back to
 * the global heap, so a default-constructed container behaves exactly
 * like one using std::allocator.  Deallocation into an arena is a
 * no-op (storage is reclaimed wholesale by Arena::reset()).
 */
template <typename T>
class ArenaAllocator
{
  public:
    using value_type = T;
    using propagate_on_container_move_assignment = std::true_type;
    using propagate_on_container_swap = std::true_type;

    ArenaAllocator() = default;
    explicit ArenaAllocator(Arena *arena) : arena_(arena) {}

    template <typename U>
    ArenaAllocator(const ArenaAllocator<U> &other) : arena_(other.arena())
    {
    }

    T *
    allocate(std::size_t n)
    {
        if (arena_)
            return arena_->allocateArray<T>(n);
        return static_cast<T *>(
            ::operator new(n * sizeof(T), std::align_val_t(alignof(T))));
    }

    void
    deallocate(T *p, std::size_t) noexcept
    {
        if (!arena_)
            ::operator delete(p, std::align_val_t(alignof(T)));
    }

    Arena *arena() const { return arena_; }

    /** Copies keep the arena: they share the source's block lifetime. */
    ArenaAllocator
    select_on_container_copy_construction() const
    {
        return *this;
    }

    friend bool
    operator==(const ArenaAllocator &a, const ArenaAllocator &b)
    {
        return a.arena_ == b.arena_;
    }

    friend bool
    operator!=(const ArenaAllocator &a, const ArenaAllocator &b)
    {
        return !(a == b);
    }

  private:
    Arena *arena_ = nullptr;
};

/** Vector whose storage may come from a worker arena. */
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

/**
 * Scratch scope: whatever the arena hands out while it lives is taken
 * back when it ends (Arena::rewind).  A no-op without an arena, where
 * scratch comes from the heap and is freed by its owner.
 */
class ArenaScratch
{
  public:
    explicit ArenaScratch(Arena *arena)
        : arena_(arena), mark_(arena ? arena->mark() : Arena::Mark{})
    {
    }

    ~ArenaScratch()
    {
        if (arena_)
            arena_->rewind(mark_);
    }

    ArenaScratch(const ArenaScratch &) = delete;
    ArenaScratch &operator=(const ArenaScratch &) = delete;

  private:
    Arena *arena_;
    Arena::Mark mark_;
};

} // namespace sched91

#endif // SCHED91_SUPPORT_ARENA_HH
