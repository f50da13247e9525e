/**
 * @file
 * Phase timing: ScopedPhase, the per-block PhaseRecord every per-phase
 * output of the pipeline derives from, and phase trees of named phases
 * (build -> heur -> heur-fwd/heur-bwd, sched, verify, evaluate)
 * carrying elapsed seconds, entry counts and per-phase counter deltas.
 *
 * ScopedPhase measures wall-clock time.  A pipeline phase runs from
 * the end of the previous one, so it reads the clock once, as it
 * stops, and writes its seconds into the block's PhaseRecord, a phase
 * that throws too.  Counting never switches shards: every event of a
 * block lands in the block's shard.  When the run keeps a
 * phase tree (observability on, with the run report), a phase copies
 * that shard as it opens and folds the shard's change since then into
 * its phase total as it stops, one pass each way (PhaseShards).  No
 * other shard is copied unless a trace sink keeps each phase's.
 * After the join the pipeline folds the records, in block order, and
 * the lanes' totals into the run's phase tree.  Deltas are
 * *inclusive*: a parent phase's counters include those of its
 * children, and a Max gauge reads the block's running peak as the
 * phase ended.  Counter names are resolved only when the tree is
 * emitted.
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

/** The pipeline's per-block phases, in run order, then heur's two
 * sub-phases: the static passes. */
enum class Phase : std::uint8_t
{
    Build, Heur, Sched, Verify, Evaluate, HeurFwd, HeurBwd
};

/** Indexed by Phase: its tree node and trace-event name, and its
 * per-block latency histogram, which Evaluate lacks (it measures
 * schedule quality, not a Tables 4/5 phase), as do the sub-phases. */
struct PhaseNames
{
    const char *name;
    const char *latency;
};

inline constexpr PhaseNames kPhaseNames[] = {
    {"build", "lat.build_ns"}, {"heur", "lat.heur_ns"},
    {"sched", "lat.sched_ns"}, {"verify", "lat.verify_ns"},
    {"evaluate", nullptr}, {"heur-fwd", nullptr}, {"heur-bwd", nullptr},
};
static_assert(std::size(kPhaseNames) == std::size_t(Phase::HeurBwd) + 1);

inline const PhaseNames &
phaseNames(Phase phase)
{
    return kPhaseNames[static_cast<std::size_t>(phase)];
}

/** Whether @p phase is one of heur's sub-phases. */
inline bool isSubPhase(Phase phase) { return phase > Phase::Evaluate; }

/**
 * A pipeline lane's per-phase counter storage, reused across its
 * blocks.  As a phase opens, opened[0] (a sub-phase: opened[1]) takes
 * a copy of the block's shard; as it stops, the shard's change since
 * then folds into its total, the phase tree's counters.
 */
struct PhaseShards
{
    std::array<CounterShard, 2> opened;
    std::array<CounterShard, std::size(kPhaseNames)> totals; ///< by Phase
};

/** Phases and sub-phases, and the main phases alone (Build to
 * Evaluate), which are the first ones. */
inline constexpr std::size_t kNumPhases = std::size(kPhaseNames);
inline constexpr std::size_t kNumMainPhases =
    std::size_t(Phase::Evaluate) + 1;

/**
 * One block's pipeline phases, written by ScopedPhase::stop() (from
 * its destructor when the phase throws).  A block starts each phase at
 * most once, in Phase order, so the phases that started are a bit set
 * and their seconds an array by Phase.  Run and outlier seconds,
 * `lat.*` histograms, trace events, the block budget and the phase
 * tree all read it.
 *
 * A recorded phase starts at mark, where the clock was last read: as
 * the phase before it ended (a sub-phase: where heur started, or as
 * the sub-phase before it ended), or, for a block's first phase, where
 * its lane's previous block ended.  So each boundary costs one clock
 * read, and the main phases of a lane's blocks add up to its whole
 * time.
 */
struct PhaseRecord
{
    using Clock = std::chrono::steady_clock;

    std::array<double, kNumPhases> secs{}; ///< by Phase; 0 if not started
    std::uint8_t startedMask = 0;          ///< bit p: Phase p started
    Clock::time_point mark{};              ///< the last boundary
    /** The lane's, while observing for a run report. */
    PhaseShards *shards = nullptr;
    /** Where each main phase leaves a copy of the block's shard as it
     * ends, when a trace sink will read them. */
    std::array<CounterShard, kNumMainPhases> *counters = nullptr;

    bool
    started(Phase phase) const
    {
        return (startedMask >> static_cast<unsigned>(phase)) & 1u;
    }

    /** Seconds of @p phase; 0 when it did not start. */
    double
    seconds(Phase phase) const
    {
        return secs[static_cast<std::size_t>(phase)];
    }

    /** Seconds of the main phases that started. */
    double mainSeconds() const;

    /** The last main phase to start; Build when none did. */
    Phase last() const;
};

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

    /** Fold a block's record into this run tree (blocks in order, so
     * seconds add alike at every lane count), then the lanes' totals. */
    void add(const PhaseRecord &record);
    void add(const PhaseShards &lane);
};

/**
 * RAII handle opening a phase for the duration of a scope.  Cheap
 * without a phase tree to feed: a recorded phase reads the clock once,
 * as it stops, plus a branch or two.
 */
class ScopedPhase
{
  public:
    /** A pipeline phase of @p record's block, started at its mark;
     * stop() writes its seconds there.  With no record it does
     * nothing. */
    ScopedPhase(Phase phase, PhaseRecord *record);

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

    ~ScopedPhase() { stop(); }

    /**
     * Close the phase early; returns elapsed seconds (0 with no
     * record).  Idempotent — the destructor becomes a no-op.  Phases
     * must close LIFO.
     */
    double stop();

  private:
    using Clock = PhaseRecord::Clock;

    Clock::time_point start_;
    double elapsed_ = 0.0; ///< valid once stopped
    bool stopped_ = false;
    PhaseRecord *record_;
    Phase phase_;
};

} // namespace sched91::obs

#endif // SCHED91_OBS_PHASE_HH
