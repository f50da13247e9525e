/**
 * @file
 * Per-worker allocation and scratch-buffer context for the
 * block-parallel pipeline.
 *
 * Each pipeline lane owns one WorkerContext for the duration of a run.
 * It bundles:
 *
 *  - a bump Arena recycled at every block boundary, backing the DAG's
 *    slabs and arc list and the table builders' register use lists
 *    (support/arena.hh);
 *  - a second, scratch arena for tables that live within one call:
 *    the table builders' memory table (dag/memdep.hh) and the DAG's
 *    forest count, each of which gives its storage back as it
 *    returns.  Kept apart so that the first arena's counts
 *    (`mem.arena_*`) stay the DAG's own, and so that scratch taken at
 *    the DAG's peak never costs the first arena another chunk;
 *  - named scratch vectors whose *capacity* persists across blocks —
 *    the list scheduler's node lists (ready list and survivors, or
 *    release queue and per-class heaps), key store and node classes,
 *    and the timing, fixup and verifier passes' per-node arrays;
 *  - the table builders' register table (ResourceTable), which a
 *    block resets only where it touches it.
 *
 * The context is installed thread-locally (WorkerContext::Scope) so
 * deep call sites — DAG builders, the list scheduler — can pick up the
 * worker's arena without threading a parameter through every API.
 * When no context is installed (tests, single-block CLI commands,
 * library embedders) every consumer falls back to plain heap
 * allocation and behaves exactly as before.
 */

#ifndef SCHED91_SUPPORT_WORKER_CONTEXT_HH
#define SCHED91_SUPPORT_WORKER_CONTEXT_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "support/arena.hh"

namespace sched91
{

/**
 * The table builders' register table: per resource slot, the recorded
 * definition and the current use list.  One kept by a lane serves all
 * its blocks: each build starts a new generation, and a slot is reset
 * the first time a build touches it, so a block pays for the slots it
 * names, not for the whole table.
 */
class ResourceTable
{
  public:
    struct Slot
    {
        std::int64_t def = -1;
        ArenaVector<std::uint32_t> uses;
    };

    /** Start a build over @p slots resource slots, whose use lists
     * draw on @p arena (null: the heap). */
    void
    begin(std::size_t slots, Arena *arena)
    {
        if (slots_.size() < slots) {
            slots_.resize(slots);
            stamps_.resize(slots, 0);
        }
        arena_ = arena;
        if (++generation_ == 0) { // wrapped: no slot may look current
            std::fill(stamps_.begin(), stamps_.end(), 0);
            generation_ = 1;
        }
    }

    /** Slot @p s, reset if this build has not touched it yet. */
    Slot &
    operator[](std::size_t s)
    {
        Slot &slot = slots_[s];
        if (stamps_[s] != generation_) {
            stamps_[s] = generation_;
            slot.def = -1;
            // The list's old storage may be arena bytes a reset took
            // back: let go of it without reading it (an arena's
            // deallocate is a no-op).
            slot.uses = ArenaVector<std::uint32_t>(
                ArenaAllocator<std::uint32_t>(arena_));
        }
        return slot;
    }

  private:
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> stamps_; ///< generation of each slot
    std::uint32_t generation_ = 0;
    Arena *arena_ = nullptr;
};

class WorkerContext
{
  public:
    WorkerContext() = default;
    WorkerContext(const WorkerContext &) = delete;
    WorkerContext &operator=(const WorkerContext &) = delete;

    /** Block-lifetime allocator (reset by beginBlock). */
    Arena &arena() { return arena_; }

    /** Allocator for scratch that lives within one call (also reset
     * by beginBlock). */
    Arena &scratchArena() { return scratch_; }

    /** Recycle all block-lifetime allocations.  Call only when the
     * previous block's DAG and scratch users are gone. */
    void
    beginBlock()
    {
        arena_.reset();
        scratch_.reset();
    }

    /** The context installed on the calling thread, or nullptr. */
    static WorkerContext *current();

    /** Shorthand: the installed context's arena, or nullptr. */
    static Arena *currentArena();

    /** Shorthand: the installed context's scratch arena, or nullptr. */
    static Arena *currentScratchArena();

    /** RAII thread-local installer (nestable; restores the previous
     * context on destruction). */
    class Scope
    {
      public:
        explicit Scope(WorkerContext &ctx);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        WorkerContext *prev_;
    };

    // --- capacity-persistent scratch (cleared by users, not here) ----

    /** List scheduler: node-index lists — the scan's candidates and
     * winnowing survivors, or the heap path's per-class heaps (at most
     * one per function-unit kind, plus one) and EET release queue. */
    using NodeLists = std::array<std::vector<std::uint32_t>, 9>;
    NodeLists nodeLists;

    /** List scheduler: per-node ranked-key store for the heap. */
    std::vector<long long> heapKeys;

    /** List scheduler: each node's instruction class, read once per
     * run. */
    std::vector<std::uint8_t> nodeClass;

    /** Postpass fixup, then the timing fill pass: per-node
     * dependence-ready cycles. */
    std::vector<int> depReady;

    /** Postpass fixup, then the verifier: each node's position in the
     * schedule. */
    std::vector<int> schedPos;

    /** Table builders: the register table. */
    ResourceTable resources;

  private:
    Arena arena_;
    /** Its tables are small but for the largest blocks, so it starts
     * with a small chunk and doubles from there. */
    Arena scratch_{Arena::kDefaultChunkBytes / 8};
};

} // namespace sched91

#endif // SCHED91_SUPPORT_WORKER_CONTEXT_HH
