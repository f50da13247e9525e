/**
 * @file
 * Per-worker allocation and scratch-buffer context for the
 * block-parallel pipeline.
 *
 * Each pipeline lane owns one WorkerContext for the duration of a run.
 * It bundles:
 *
 *  - a bump Arena recycled at every block boundary, backing the DAG's
 *    arc-index lists and the table builders' register def/use lists
 *    (support/arena.hh);
 *  - a second, scratch arena for tables that live within one call:
 *    the table builders' memory table (dag/memdep.hh) and the DAG's
 *    forest count, each of which gives its storage back as it
 *    returns.  Kept apart so that the first arena's counts
 *    (`mem.arena_*`) stay the DAG's own, and so that scratch taken at
 *    the DAG's peak never costs the first arena another chunk;
 *  - named scratch vectors whose *capacity* persists across blocks —
 *    the list scheduler's node lists (ready list and survivors, or
 *    release queue and per-class heaps) and key store, and the timing
 *    and fixup passes' per-node arrays.
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

#include <array>
#include <cstdint>
#include <vector>

#include "support/arena.hh"

namespace sched91
{

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

    /** Postpass fixup, then the timing fill pass: per-node
     * dependence-ready cycles. */
    std::vector<int> depReady;

    /** Postpass fixup: each node's position in the schedule. */
    std::vector<int> schedPos;

  private:
    Arena arena_;
    /** Its tables are small but for the largest blocks, so it starts
     * with a small chunk and doubles from there. */
    Arena scratch_{Arena::kDefaultChunkBytes / 8};
};

} // namespace sched91

#endif // SCHED91_SUPPORT_WORKER_CONTEXT_HH
