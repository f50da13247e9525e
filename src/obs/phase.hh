/**
 * @file
 * RAII phase profiler: a nestable tree of named phases (build ->
 * heur-fwd/heur-bwd -> sched -> evaluate) carrying elapsed seconds,
 * entry counts, and per-phase counter deltas; and the per-block
 * PhaseRecord every other per-phase output derives from.
 *
 * ScopedPhase replaces the ad-hoc Timer plumbing of the pipeline:
 * it always measures wall-clock time (two steady-clock reads, the
 * same cost the Timer had), and only when the observability layer is
 * enabled does it additionally maintain the phase tree and copy the
 * thread's active counter source at entry and at exit — one id-indexed
 * snapshot per boundary — to attribute event deltas to phases.
 * Deltas are *inclusive*: a parent phase's counters include those of
 * its children.  Counter names are resolved only when the tree is
 * emitted.  A pipeline phase also writes its PhaseRecord entry as it
 * stops, so the tree and the record agree, a phase that throws too.
 *
 * Phases record into the thread's *active* profiler: normally the
 * process-wide one, but the parallel pipeline installs a private
 * profiler per worker (ScopedProfiler) and merges the worker trees
 * into the caller's after the join — name-matched, so the final tree
 * is independent of how blocks were distributed over threads.
 */

#ifndef SCHED91_OBS_PHASE_HH
#define SCHED91_OBS_PHASE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/counters.hh"

namespace sched91::obs
{

class PhaseProfiler;

/** The pipeline's per-block phases, in run order. */
enum class Phase : std::uint8_t { Build, Heur, Sched, Verify, Evaluate };

/** Indexed by Phase: its tree node and trace-event name, and its
 * per-block latency histogram, which Evaluate lacks: it measures
 * schedule quality, not a Tables 4/5 phase. */
struct PhaseNames
{
    const char *name;
    const char *latency;
};

inline constexpr PhaseNames kPhaseNames[] = {
    {"build", "lat.build_ns"}, {"heur", "lat.heur_ns"},
    {"sched", "lat.sched_ns"}, {"verify", "lat.verify_ns"},
    {"evaluate", nullptr},
};
static_assert(std::size(kPhaseNames) == std::size_t(Phase::Evaluate) + 1);

inline const PhaseNames &
phaseNames(Phase phase)
{
    return kPhaseNames[static_cast<std::size_t>(phase)];
}

/**
 * One block's pipeline phases: an entry per phase that started, in run
 * order, written by ScopedPhase::stop() (from its destructor when the
 * phase throws).  Run and outlier seconds, `lat.*` histograms, trace
 * events and the block budget all read it.  A fixed array, so
 * recording allocates nothing unless counters are kept.
 */
struct PhaseRecord
{
    struct Entry
    {
        Phase phase = Phase::Build;
        double seconds = 0.0;
        CounterShard counters; ///< per-block shard as it ended, if kept
    };

    std::array<Entry, std::size(kPhaseNames)> entries;
    std::size_t size = 0;
    bool keepCounters = false; ///< set when a trace sink will read them

    const Entry *begin() const { return entries.data(); }
    const Entry *end() const { return entries.data() + size; }

    /** Seconds of @p phase; 0 when it did not start. */
    double seconds(Phase phase) const;
};

namespace detail
{
/** Profiler this thread's phases record into (global() by default). */
inline thread_local PhaseProfiler *t_profiler = nullptr;
} // namespace detail

/** Accumulated statistics for one phase node in the tree. */
struct PhaseStats
{
    std::string name;
    std::uint64_t entries = 0; ///< times the phase was entered
    double seconds = 0.0;      ///< total wall-clock across entries
    CounterShard counters;     ///< inclusive counter deltas, by id
    std::vector<PhaseStats> children;

    /** Child by name, nullptr when absent. */
    const PhaseStats *child(std::string_view child_name) const;
};

/**
 * Accumulator for the phase tree.  Phases entered while another phase
 * is open become (or re-open) children of it; the tree persists
 * across blocks, so per-block phases accumulate into one node per
 * distinct nesting path.
 */
class PhaseProfiler
{
  public:
    static PhaseProfiler &global();

    /** The profiler the calling thread records into: the installed
     * one (ScopedProfiler) or global(). */
    static PhaseProfiler &active();

    PhaseProfiler() { root_.name = "run"; }

    /** Drop all accumulated phases (open phases keep recording into
     * fresh nodes). */
    void clear();

    /** The synthetic root; real phases are its descendants. */
    const PhaseStats &root() const { return root_; }

    /**
     * Fold another profiler's tree into this one, matching phases by
     * nesting path and name: entries and seconds add, counters merge
     * kind-aware.  Used to fold per-worker trees back into the
     * caller's after a parallel region.
     */
    void mergeFrom(const PhaseProfiler &other);

  private:
    friend class ScopedPhase;

    PhaseStats *enter(const char *name);
    void exit(double seconds, const CounterShard &delta);

    PhaseStats root_;
    std::vector<PhaseStats *> stack_; ///< open-phase path, root absent
};

/** RAII installer: this thread's phases record into @p profiler. */
class ScopedProfiler
{
  public:
    explicit ScopedProfiler(PhaseProfiler &profiler)
        : prev_(detail::t_profiler)
    {
        detail::t_profiler = &profiler;
    }

    ~ScopedProfiler() { detail::t_profiler = prev_; }

    ScopedProfiler(const ScopedProfiler &) = delete;
    ScopedProfiler &operator=(const ScopedProfiler &) = delete;

  private:
    PhaseProfiler *prev_;
};

/**
 * RAII handle opening a phase for the duration of a scope.  Cheap
 * when observability is disabled: construction and destruction are a
 * clock read plus one branch each.
 */
class ScopedPhase
{
  public:
    explicit ScopedPhase(const char *name,
                         PhaseProfiler &profiler = PhaseProfiler::active());

    /** A pipeline phase; when @p record is set, stop() also writes
     * the phase's entry there. */
    explicit ScopedPhase(Phase phase, PhaseRecord *record = nullptr);

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

    ~ScopedPhase() { stop(); }

    /**
     * Close the phase early; returns elapsed seconds.  Idempotent —
     * the destructor becomes a no-op.  Phases must close LIFO.
     */
    double stop();

    /** The active counter source as stop() copied it (valid once
     * stopped; all zero unless entered with observability on). */
    const CounterShard &exitCounters() const { return snap_; }

  private:
    using Clock = std::chrono::steady_clock;

    PhaseProfiler &profiler_;
    Clock::time_point start_;
    double elapsed_ = 0.0; ///< valid once stopped
    /** Active-source copy at the last boundary: entry, then exit. */
    CounterShard snap_;
    bool peaks_ = false; ///< source is a per-block shard (see since())
    bool open_ = false;  ///< tree node pending an exit()
    bool stopped_ = false;
    PhaseRecord *record_ = nullptr;
    Phase phase_ = Phase::Build; ///< record_'s entry
};

} // namespace sched91::obs

#endif // SCHED91_OBS_PHASE_HH
