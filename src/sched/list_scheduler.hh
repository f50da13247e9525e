/**
 * @file
 * Generic list scheduler parameterized by a ranked heuristic chain.
 *
 * "List scheduling algorithms examine a candidate list of ready-to-
 * execute instructions at each time step and apply one or more
 * heuristics to determine the 'best' instruction to issue" (Section 1).
 * Some published algorithms combine heuristics into a single priority
 * value, others "apply heuristics in a given order in a winnowing-like
 * process" (Section 5).  Here each pick winnows the ranked chain, with
 * original program order as the final deterministic tie break.  Its
 * winner is the lexicographic maximum — the top of a priority function
 * whose rank weights are sufficiently separated — so both families
 * share the chain, and a ranking whose order can be keyed takes the
 * same winners off heaps.
 *
 * A forward pass admits a node once all parents are scheduled, ranks
 * candidates (typically with earliest execution time first), issues
 * the winner no earlier than its earliest execution time, and updates
 * its children's dynamic state.  A backward pass fills the block from
 * the end: a node is a candidate once all children are scheduled.
 *
 * Timing: a forward pass records each pick's issue cycle as it issues
 * it, and the Krishnamurthy postpass fixup records the cycles of the
 * order it leaves; only a backward pass without the fixup times its
 * order once it is complete.  Either way Schedule::issueCycle and
 * makespan are those of issuing the returned order in sequence, each
 * node no earlier than its arcs and inherited floor allow.
 *
 * A scheduler works out once, per instruction class, the function unit
 * that runs it, how long the unit stays busy and which of the heap
 * path's heaps it joins; a run reads each node's class once.
 */

#ifndef SCHED91_SCHED_LIST_SCHEDULER_HH
#define SCHED91_SCHED_LIST_SCHEDULER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "dag/dag.hh"
#include "heuristics/heuristic.hh"
#include "machine/function_unit.hh"
#include "machine/machine_model.hh"
#include "sched/schedule.hh"
#include "support/cancellation.hh"

namespace sched91
{

/** One entry of the winnowing chain. */
struct RankedHeuristic
{
    Heuristic heuristic;
    bool preferLarger = true; ///< false: smaller value wins
    bool phiMax = false;      ///< max form of a phi heuristic
};

/** Configuration of one scheduling algorithm. */
struct SchedulerConfig
{
    std::string name = "list";

    /** Scheduling pass direction. */
    bool forward = true;

    /** Ranked heuristics, most important first. */
    std::vector<RankedHeuristic> ranking;

    /**
     * Tiemann's birthing adjustment: in a backward pass, bump the
     * priority of each RAW parent of the node just scheduled.
     */
    bool birthing = false;

    /**
     * Krishnamurthy-style postpass fixup: after a forward pass, try to
     * pull later independent instructions into stall slots.
     */
    bool postpassFixup = false;

    /**
     * Which static heuristic passes this algorithm requires (used by
     * the Pipeline to run only the work the algorithm needs, mirroring
     * Table 2's per-algorithm pass analysis).
     */
    bool needsForwardPass = false;
    bool needsBackwardPass = false;
    bool needsDescendants = false;
    bool needsRegisterPressure = false;
};

/**
 * One entry of the optional per-pick decision log: which node won,
 * how crowded the ready list was, and which rank of the winnowing
 * chain broke the tie.
 */
struct DecisionRecord
{
    std::uint32_t pick = 0;      ///< 0-based pick index within the block.
    std::uint32_t node = 0;      ///< Winning DAG node (program index).
    std::uint32_t readySize = 0; ///< Candidates at this pick.

    /** Deciding rank: an index into the ranking, or a sentinel. */
    std::int32_t decidedRank = 0;

    int time = 0; ///< Scheduler clock (0 in a backward pass).
};

/**
 * Which heuristic ranks actually decide the picks.  Section 5 of the
 * paper observes that low-ranked heuristics may be removable ("the
 * use of minimum path to a root in Shieh and Papachristou could
 * possibly be omitted or replaced with little effect because it is
 * the last heuristic to be applied"); these counters measure that.
 * They record what the scheduler's one winnowing pass decided, so
 * attaching them changes neither the picks nor, for a ranking that
 * keeps the scan, the evaluations made; a keyed ranking moves onto
 * the scan to be observed.
 */
struct DecisionStats
{
    /** decidedRank sentinel: a single candidate, no decision needed. */
    static constexpr std::int32_t kDecidedTrivial = -2;

    /** decidedRank sentinel: every rank tied; program order decided. */
    static constexpr std::int32_t kDecidedOriginalOrder = -1;

    /** Picks resolved at each rank of the winnowing chain. */
    std::vector<long long> decidedAtRank;

    /** Picks that fell through every rank to the original-order tie. */
    long long originalOrderTies = 0;

    /** Picks with a single candidate (no decision needed). */
    long long trivialPicks = 0;

    long long totalPicks = 0;

    /** When set, every pick appends a DecisionRecord to log. */
    bool recordLog = false;
    std::vector<DecisionRecord> log;
};

/**
 * A rendered decision log for one block: the raw records plus enough
 * naming context (algorithm, rank names, instruction text) to print or
 * export without the DAG in hand.  Produced by the pipeline for
 * `--explain-block` and exported as the `"decisions"` stats section.
 */
struct DecisionTrace
{
    int block = -1;
    std::string algorithm;
    std::vector<std::string> rankNames; ///< One per ranking entry.
    DecisionStats stats;
    std::vector<std::string> insts; ///< Text of the block's instructions.

    bool empty() const { return block < 0; }
};

/** The generic engine. */
class ListScheduler
{
  public:
    /** The configuration is copied, so temporaries are safe to pass;
     * the machine model must outlive the scheduler. */
    ListScheduler(SchedulerConfig config, const MachineModel &machine);

    /**
     * Schedule @p dag.  Dynamic state in the node annotations is
     * (re)initialized; static annotations must already be computed.
     *
     * Each pick winnows the ready list: at each rank, every surviving
     * candidate is evaluated once and those with the best value
     * survive, until one is left; a tie that survives every rank goes
     * to original program order.  The survivor buffer is reused, so a
     * pick allocates nothing.  When @p stats is non-null it records
     * what each pick decided.
     *
     * Keyed rankings run on d-ary heaps instead — O(log n) per pick
     * instead of an O(n) rescan — with the same strict total order, so
     * the produced schedules are identical to the scan's.  A ranking
     * is keyed when every rank after an optional leading EET and then
     * FPU busy time (both smaller-wins, forward pass only) is static
     * ('a'/'f'/'b'): the static tuple is computed once per node, a
     * release queue serves EET, and one heap per class of
     * function-unit kinds with the same busy time serves FPU busy time
     * (Krishnamurthy's ranking has that shape).
     * Other rankings with dynamic ('v') heuristics keep the scan, and
     * so does any run with @p stats, which observes every candidate at
     * every pick.
     *
     * When @p cancel is non-null the main scheduling loop polls it
     * once per extracted node and abandons the pass with
     * CancelledError once it fires (cooperative budget enforcement;
     * see support/cancellation.hh).
     */
    Schedule run(Dag &dag, DecisionStats *stats = nullptr,
                 const CancellationToken *cancel = nullptr) const;

  private:
    static constexpr std::size_t kNumInstClasses =
        static_cast<std::size_t>(InstClass::kNumClasses);
    /** The most static ranks the heap path keys on. */
    static constexpr std::size_t kMaxKeyedRanks = 8;

    /** A forward pass without the fixup times its picks as it issues
     * them. */
    bool
    timesPicks() const
    {
        return config_.forward && !config_.postpassFixup;
    }

    // Each appends the picks to @p sched's order in the order they are
    // made, and when timesPicks() their issue cycles and makespan.
    void runScan(Dag &dag, Schedule &sched, DecisionStats *stats,
                 const CancellationToken *cancel) const;
    // Dynamic: the ranking leads with EET and/or FPU busy time; an
    // all-static ranking compiles to a loop over one heap.
    template <bool Dynamic>
    void runHeap(Dag &dag, Schedule &sched,
                 const CancellationToken *cancel) const;

    SchedulerConfig config_;
    const MachineModel &machine_;
    FuState idleFus_;      ///< every unit free: each run starts from it
    bool eetRank_ = false; ///< ranking leads with EET admission
    bool fuRank_ = false;  ///< then (or first) FPU busy time
    bool keyed_ = false;   ///< every later rank is static: heaps serve
    /** The heap path's classes of function-unit kinds by FPU busy
     * time: their number and each class's kind. */
    std::size_t fuClasses_ = 1;
    std::array<FuKind, kNumFuKinds + 1> classKind_{};
    /** Per instruction class: the unit that runs it, the cycles it
     * holds the unit, and the heap path's class of its unit. */
    std::array<FuKind, kNumInstClasses> unitOf_{};
    std::array<int, kNumInstClasses> busyOf_{};
    std::array<std::uint8_t, kNumInstClasses> heapOf_{};
};

} // namespace sched91

#endif // SCHED91_SCHED_LIST_SCHEDULER_HH
