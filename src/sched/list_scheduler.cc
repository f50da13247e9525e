#include "sched/list_scheduler.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <optional>

#include "heuristics/dynamic.hh"
#include "machine/function_unit.hh"
#include "obs/events.hh"
#include "sched/fixup.hh"
#include "support/dary_heap.hh"
#include "support/logging.hh"
#include "support/worker_context.hh"

namespace sched91
{

namespace
{

/**
 * One run's 'v' work, counted in locals and added as the run ends or
 * unwinds, inside the sched phase (obs::CountBatch's rule): a run cut
 * short by its cancellation token counts every pick it made.
 */
struct RunCounts
{
    obs::CountBatch visits{obs::ev::schedNodeVisits};
    obs::CountBatch evals{obs::ev::schedHeuristicEvals};
    obs::CountBatch depUpdates{obs::ev::schedDepUpdates};
    std::size_t readyPeak = 0; ///< `sched.ready_list_peak`, a Max gauge

    RunCounts() = default;
    RunCounts(const RunCounts &) = delete;
    RunCounts &operator=(const RunCounts &) = delete;

    ~RunCounts()
    {
        if (readyPeak != 0)
            obs::ev::schedReadyListPeak.max(readyPeak);
    }

    /** One pick from a ready list of @p ready nodes. */
    void
    pick(std::size_t ready)
    {
        visits.add();
        readyPeak = std::max(readyPeak, ready);
    }
};

/** Mutable evaluation context for the dynamic ("v") heuristics. */
struct EvalContext
{
    std::int64_t last = -1; ///< most recently scheduled node
    int lastGroup = -1;     ///< its issue group
    const FuState *fus = nullptr; ///< set in a forward pass only
    const std::uint8_t *cls = nullptr; ///< each node's InstClass
    const FuKind *unitOf = nullptr;    ///< each InstClass's unit
    int time = 0;
};

/** Evaluate one heuristic for candidate @p n. */
long long
evaluate(const Dag &dag, std::uint32_t n, const RankedHeuristic &rh,
         const EvalContext &ctx)
{
    const NodeAnnotations &ann = dag.ann();
    switch (rh.heuristic) {
      case Heuristic::InterlockWithPrevious:
        return interlocksWithPrevious(dag, n, ctx.last) ? 1 : 0;
      case Heuristic::EarliestExecutionTime:
        // EET acts as admission: every candidate already issueable at
        // the current time ranks equally (the paper admits nodes with
        // "EET <= current time"); later heuristics break the tie.
        return std::max<long long>(ann.earliestExecTime[n], ctx.time);
      case Heuristic::FpuBusyTimes: {
        if (!ctx.fus)
            return 0;
        const FuKind fu = ctx.unitOf[ctx.cls[n]];
        return std::max(0, ctx.fus->earliestFree(fu, ctx.time) - ctx.time);
      }
      case Heuristic::AlternateType:
        return ann.altType[n] != ctx.lastGroup ? 1 : 0;
      case Heuristic::NumSingleParentChildren:
        return numSingleParentChildren(dag, n);
      case Heuristic::SumDelaysToSingleParentChildren:
        return sumDelaysToSingleParentChildren(dag, n);
      case Heuristic::NumUncoveredChildren:
        return numUncoveredChildren(dag, n);
      case Heuristic::BirthingInstruction:
        return static_cast<long long>(ann.priorityBoost[n]);
      default:
        return rh.phiMax ? staticValueMax(dag, n, rh.heuristic)
                         : staticValue(dag, n, rh.heuristic);
    }
}

/**
 * Pick the best candidate by winnowing (paper Section 5: "apply
 * heuristics in a given order in a winnowing-like process"): at each
 * rank, evaluate every surviving candidate once and keep those with
 * the best value, stop at one survivor, and break a tie that survives
 * every rank by original order (@p config.forward selects which end
 * of the block "earlier" means).  @p alive is the caller's survivor
 * buffer, so a pick allocates nothing.  @p stats, when set, records
 * what the pass decided.  Each evaluation counts in @p evals.
 */
std::size_t
selectBest(const Dag &dag, const std::vector<std::uint32_t> &candidates,
           std::vector<std::uint32_t> &alive, const SchedulerConfig &config,
           const EvalContext &ctx, DecisionStats *stats,
           obs::CountBatch &evals)
{
    SCHED91_ASSERT(!candidates.empty());
    alive.resize(candidates.size());
    std::iota(alive.begin(), alive.end(), std::uint32_t{0});
    std::int32_t decided = alive.size() == 1
                               ? DecisionStats::kDecidedTrivial
                               : DecisionStats::kDecidedOriginalOrder;

    for (std::size_t r = 0; r < config.ranking.size() && alive.size() > 1;
         ++r) {
        const RankedHeuristic &rh = config.ranking[r];
        long long best_value = 0;
        std::size_t kept = 0; // survivors compact in place: kept <= i
        evals.add(alive.size());
        for (std::size_t i = 0; i < alive.size(); ++i) {
            long long v = evaluate(dag, candidates[alive[i]], rh, ctx);
            if (kept == 0 ||
                (rh.preferLarger ? v > best_value : v < best_value)) {
                best_value = v;
                kept = 0;
            } else if (v != best_value) {
                continue;
            }
            alive[kept++] = alive[i];
        }
        alive.resize(kept);
        if (kept == 1)
            decided = static_cast<std::int32_t>(r);
    }

    std::uint32_t best = alive[0];
    for (std::uint32_t k : alive)
        if (config.forward ? candidates[k] < candidates[best]
                           : candidates[k] > candidates[best]) {
            best = k;
        }

    if (stats) {
        ++stats->totalPicks;
        stats->decidedAtRank.resize(config.ranking.size(), 0);
        if (decided >= 0)
            ++stats->decidedAtRank[static_cast<std::size_t>(decided)];
        else if (decided == DecisionStats::kDecidedTrivial)
            ++stats->trivialPicks;
        else
            ++stats->originalOrderTies;
        if (stats->recordLog)
            stats->log.push_back(DecisionRecord{
                .pick = static_cast<std::uint32_t>(stats->totalPicks - 1),
                .node = candidates[best],
                .readySize = static_cast<std::uint32_t>(candidates.size()),
                .decidedRank = decided,
                .time = ctx.time});
    }
    return best;
}

/**
 * Retire the picked node @p n: update the dynamic state, hand every
 * node it makes ready to @p admit, and return its issue cycle.  A
 * forward pass issues no earlier than @p time and the node's earliest
 * execution time; a backward pass has no clock and returns 0.  The
 * arcs it relaxes count in @p counts.
 */
template <class Admit>
int
retire(Dag &dag, std::uint32_t n, int time, const SchedulerConfig &config,
       RunCounts &counts, Admit admit)
{
    if (!config.forward) {
        counts.depUpdates.add(onScheduledBackward(dag, n, config.birthing));
        for (std::uint32_t p : dag.predFrom(n))
            if (dag.ann().unscheduledChildren[p] == 0)
                admit(p);
        return 0;
    }
    int issue = std::max(time, dag.ann().earliestExecTime[n]);
    counts.depUpdates.add(onScheduledForward(dag, n, issue));
    for (std::uint32_t c : dag.succTo(n))
        if (dag.ann().unscheduledParents[c] == 0)
            admit(c);
    return issue;
}

/** Record that the pick just appended to @p sched issues at
 * @p issue. */
void
timePick(const Dag &dag, Schedule &sched, std::uint32_t n, int issue)
{
    sched.issueCycle.push_back(issue);
    sched.makespan = std::max(sched.makespan, issue + dag.ann().execTime[n]);
}

/**
 * Each node's instruction class, read once per run into the lane's
 * scratch (@p local without one).  Only a forward pass reads it, and
 * it needs the DAG's instructions.
 */
const std::uint8_t *
nodeClasses(const Dag &dag, std::vector<std::uint8_t> &local)
{
    WorkerContext *wc = WorkerContext::current();
    std::vector<std::uint8_t> &cls = wc ? wc->nodeClass : local;
    cls.resize(dag.size());
    for (std::uint32_t n = 0; n < dag.size(); ++n)
        cls[n] = static_cast<std::uint8_t>(dag.inst(n).cls());
    return cls.data();
}

/** Compute issue cycles and makespan for a completed order. */
void
fillTiming(const Dag &dag, Schedule &sched)
{
    // Inherited cross-block floors participate in the timing just
    // like dependence arcs from a previous block would.
    WorkerContext *wc = WorkerContext::current();
    std::vector<int> local_dep;
    std::vector<int> &dep_ready = wc ? wc->depReady : local_dep;
    dep_ready.assign(dag.size(), 0);
    const NodeAnnotations &ann = dag.ann();
    for (std::uint32_t i = 0; i < dag.size(); ++i)
        dep_ready[i] = ann.inheritedEet[i];
    sched.issueCycle.assign(sched.order.size(), 0);
    int time = 0;
    sched.makespan = 0;
    for (std::size_t p = 0; p < sched.order.size(); ++p) {
        std::uint32_t n = sched.order[p];
        int issue = std::max(time, dep_ready[n]);
        sched.issueCycle[p] = issue;
        std::span<const std::uint32_t> to = dag.succTo(n);
        std::span<const std::int32_t> delay = dag.succDelay(n);
        for (std::size_t k = 0; k < to.size(); ++k) {
            dep_ready[to[k]] =
                std::max(dep_ready[to[k]], issue + delay[k]);
        }
        sched.makespan =
            std::max(sched.makespan, issue + ann.execTime[n]);
        time = issue + 1;
    }
}

} // namespace

ListScheduler::ListScheduler(SchedulerConfig config,
                             const MachineModel &machine)
    : config_(std::move(config)), machine_(machine), idleFus_(machine)
{
    // A forward pass may lead with EET admission and then FPU busy
    // time, both smaller-wins: the heap path serves those two by
    // structure rather than by key (runHeap).
    const std::vector<RankedHeuristic> &ranking = config_.ranking;
    std::size_t r = 0;
    auto leads = [&](Heuristic h) {
        if (!config_.forward || r == ranking.size() ||
            ranking[r].heuristic != h || ranking[r].preferLarger)
            return false;
        ++r;
        return true;
    };
    eetRank_ = leads(Heuristic::EarliestExecutionTime);
    fuRank_ = leads(Heuristic::FpuBusyTimes);
    // The rest must not change as nodes issue: Table 1's 'v' column,
    // plus Tiemann's birthing instruction, whose priorityBoost the
    // backward pass raises (onScheduledBackward).
    keyed_ = ranking.size() - r <= kMaxKeyedRanks &&
             std::none_of(
                 ranking.begin() + static_cast<std::ptrdiff_t>(r),
                 ranking.end(), [](const RankedHeuristic &rh) {
                     return heuristicInfo(rh.heuristic).pass ==
                                CalcPass::Visitation ||
                            rh.heuristic == Heuristic::BirthingInstruction;
                 });
    // A pipelined unit is free again the cycle after it issues, no
    // later than the next pick, so its busy time is always 0: all
    // pipelined kinds share class 0, and each other kind has a class of
    // its own.  Without FPU busy time every node is in class 0.
    std::array<std::uint8_t, kNumFuKinds> fu_class{};
    for (int k = 0; fuRank_ && k < kNumFuKinds; ++k) {
        const auto kind = static_cast<FuKind>(k);
        if (!machine_.fuDesc(kind).pipelined) {
            classKind_[fuClasses_] = kind;
            fu_class[k] = static_cast<std::uint8_t>(fuClasses_++);
        }
    }
    for (std::size_t c = 0; c < kNumInstClasses; ++c) {
        const auto cls = static_cast<InstClass>(c);
        unitOf_[c] = machine_.fuFor(cls);
        busyOf_[c] = machine_.fuBusyCycles(cls);
        heapOf_[c] = fu_class[static_cast<std::size_t>(unitOf_[c])];
    }
}

Schedule
ListScheduler::run(Dag &dag, DecisionStats *stats,
                   const CancellationToken *cancel) const
{
    initDynamicState(dag);
    Schedule sched;
    sched.order.reserve(dag.size());
    if (timesPicks())
        sched.issueCycle.reserve(dag.size());
    // DecisionStats observes every candidate at every pick, so it
    // moves a keyed ranking off the heaps onto the scan.
    if (!keyed_ || stats)
        runScan(dag, sched, stats, cancel);
    else if (eetRank_ || fuRank_)
        runHeap<true>(dag, sched, cancel);
    else
        runHeap<false>(dag, sched, cancel);
    SCHED91_ASSERT(sched.order.size() == dag.size(),
                   "scheduler lost nodes (cyclic DAG?)");
    // A backward pass picks the block from its end, and times it once
    // it is in order; the fixup times the order it leaves.
    if (!config_.forward)
        std::reverse(sched.order.begin(), sched.order.end());
    if (config_.postpassFixup)
        applyPostpassFixup(dag, sched);
    else if (!config_.forward)
        fillTiming(dag, sched);
    return sched;
}

template <bool Dynamic>
void
ListScheduler::runHeap(Dag &dag, Schedule &sched,
                       const CancellationToken *cancel) const
{
    const bool eet_rank = Dynamic && eetRank_;
    const std::size_t first = std::size_t{eetRank_} + fuRank_;
    const std::size_t ranks = config_.ranking.size() - first;
    const int *eet = dag.ann().earliestExecTime.data();
    const bool times = timesPicks();

    RunCounts counts;
    WorkerContext *wc = WorkerContext::current();
    std::optional<WorkerContext::NodeLists> local_lists;
    std::optional<std::vector<long long>> local_keys;
    WorkerContext::NodeLists &lists =
        wc ? wc->nodeLists : local_lists.emplace();
    std::vector<long long> &keys = wc ? wc->heapKeys : local_keys.emplace();
    static_assert(kNumFuKinds + 2 <=
                  std::tuple_size_v<WorkerContext::NodeLists>);
    keys.resize(static_cast<std::size_t>(dag.size()) * ranks);

    // Each node enters the ready list exactly once, so its static
    // tuple is evaluated exactly once, at admission, and so is its
    // EET, which is final once every parent has issued.  Keys are
    // stored so that the larger value wins at every rank, each read
    // from the array its heuristic names.
    struct Column
    {
        StaticColumn values;
        bool negate = false;
    };
    std::array<Column, kMaxKeyedRanks> columns;
    for (std::size_t r = 0; r < ranks; ++r) {
        const RankedHeuristic &rh = config_.ranking[first + r];
        columns[r] = {staticColumn(dag, rh.heuristic, rh.phiMax),
                      !rh.preferLarger};
    }
    auto computeKey = [&](std::uint32_t n) {
        long long *key = keys.data() + n * ranks;
        for (std::size_t r = 0; r < ranks; ++r) {
            const long long v = columns[r].values.at(n);
            key[r] = columns[r].negate ? -v : v;
        }
        counts.evals.add(ranks + eet_rank);
    };

    // The winnowing pass's strict total order over the static ranks:
    // the tuple, then program order (earlier wins forward, later wins
    // backward) — so within a class, extract-max returns exactly the
    // node the scan would pick.
    auto outranks = [k = keys.data(), ranks,
                     forward = config_.forward](std::uint32_t a,
                                                std::uint32_t b) {
        for (std::size_t r = 0; r < ranks; ++r)
            if (k[a * ranks + r] != k[b * ranks + r])
                return k[a * ranks + r] > k[b * ranks + r];
        return forward ? a < b : a > b;
    };
    // FPU busy time is one value per class of function-unit kinds
    // (fuClasses_), and each class gets its own heap.
    const std::size_t classes = Dynamic ? fuClasses_ : 1;
    using ClassHeap = DaryHeap<std::uint32_t, decltype(outranks)>;
    std::array<std::optional<ClassHeap>, kNumFuKinds + 1> ready;
    for (std::size_t c = 0; c < classes; ++c)
        ready[c].emplace(outranks, &lists[c]);
    unsigned live = 0; // bit c set: class c's heap is non-empty

    // The EET release queue: admitted nodes wait here, earliest EET
    // first, until they tie for the EET rank.
    auto releasesFirst = [eet](std::uint32_t a, std::uint32_t b) {
        return eet[a] != eet[b] ? eet[a] < eet[b] : a < b;
    };
    DaryHeap<std::uint32_t, decltype(releasesFirst)> pending(
        releasesFirst, &lists[classes]);

    // Only the classes past 0 have busy times to track.
    std::optional<FuState> fus;
    const std::uint8_t *cls = nullptr;
    std::vector<std::uint8_t> local_cls;
    if (Dynamic && classes > 1) {
        fus.emplace(idleFus_);
        cls = nodeClasses(dag, local_cls);
    }
    auto release = [&](std::uint32_t n) {
        std::size_t c = 0;
        if (Dynamic && fus)
            c = heapOf_[cls[n]];
        ready[c]->push(n);
        if (Dynamic)
            live |= 1u << c;
    };
    std::size_t waiting = 0; // the ready list: pending plus released
    int next = 0; // the clock at the next pick
    auto admit = [&](std::uint32_t n) {
        computeKey(n);
        ++waiting;
        // A node due by the next pick would be released there anyway.
        if (!eet_rank || eet[n] <= next)
            release(n);
        else
            pending.push(n);
    };
    for (std::uint32_t i = 0; i < dag.size(); ++i)
        if (config_.forward ? dag.numParents(i) == 0
                            : dag.numChildren(i) == 0)
            admit(i);

    int time = 0;
    while (waiting > 0) {
        if (cancel)
            cancel->poll();
        counts.pick(waiting);
        if (eet_rank) {
            // The EET rank is max(EET, now): every node issuable by
            // now ties at now and beats the rest, and when none is,
            // those with the least EET tie at it.
            const int due = live ? time : std::max(time, eet[pending.top()]);
            while (!pending.empty() && eet[pending.top()] <= due)
                release(pending.pop());
        }
        // The released nodes tie on the EET rank, and a class on FPU
        // busy time, so the winner is the best class head.
        std::size_t best =
            Dynamic ? static_cast<std::size_t>(std::countr_zero(live)) : 0;
        if (Dynamic && std::popcount(live) > 1) {
            counts.evals.add(
                static_cast<std::uint64_t>(std::popcount(live)));
            auto busy = [&](std::size_t c) {
                return c == 0 ? 0
                              : fus->earliestFree(classKind_[c], time) -
                                    time;
            };
            int best_busy = busy(best);
            for (unsigned rest = live & (live - 1); rest;
                 rest &= rest - 1) {
                const auto c = static_cast<std::size_t>(
                    std::countr_zero(rest));
                const int b = busy(c);
                if (b < best_busy ||
                    (b == best_busy &&
                     outranks(ready[c]->top(), ready[best]->top()))) {
                    best = c;
                    best_busy = b;
                }
            }
        }
        const std::uint32_t n = ready[best]->pop();
        if (Dynamic && ready[best]->empty())
            live &= ~(1u << best);
        --waiting;
        sched.order.push_back(n);
        if (eet_rank)
            next = std::max(time, eet[n]) + 1; // retire's issue, + 1
        const int issue = retire(dag, n, time, config_, counts, admit);
        if (times)
            timePick(dag, sched, n, issue);
        if (Dynamic && fus)
            fus->occupy(unitOf_[cls[n]], issue, busyOf_[cls[n]]);
        time = issue + 1;
    }
}

void
ListScheduler::runScan(Dag &dag, Schedule &sched, DecisionStats *stats,
                       const CancellationToken *cancel) const
{
    const bool forward = config_.forward;
    const bool times = timesPicks();

    RunCounts counts;
    WorkerContext *wc = WorkerContext::current();
    std::optional<WorkerContext::NodeLists> local_lists;
    WorkerContext::NodeLists &lists =
        wc ? wc->nodeLists : local_lists.emplace();
    std::vector<std::uint32_t> &ready = lists[0];
    std::vector<std::uint32_t> &alive = lists[1];
    ready.clear();
    auto admit = [&](std::uint32_t n) { ready.push_back(n); };
    for (std::uint32_t i = 0; i < dag.size(); ++i)
        if (forward ? dag.numParents(i) == 0 : dag.numChildren(i) == 0)
            admit(i);

    // Only a forward pass has a clock and function-unit state for the
    // dynamic heuristics to rank on.
    FuState fus = idleFus_;
    EvalContext ctx;
    std::vector<std::uint8_t> local_cls;
    if (forward) {
        ctx.fus = &fus;
        ctx.cls = nodeClasses(dag, local_cls);
        ctx.unitOf = unitOf_.data();
    }

    while (!ready.empty()) {
        if (cancel)
            cancel->poll();
        counts.pick(ready.size());
        std::size_t best = selectBest(dag, ready, alive, config_, ctx,
                                      stats, counts.evals);
        std::uint32_t n = ready[best];
        ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(best));
        sched.order.push_back(n);

        int issue = retire(dag, n, ctx.time, config_, counts, admit);
        if (times)
            timePick(dag, sched, n, issue);
        if (forward) {
            fus.occupy(unitOf_[ctx.cls[n]], issue, busyOf_[ctx.cls[n]]);
            ctx.time = issue + 1;
        }
        ctx.last = n;
        ctx.lastGroup = dag.ann().altType[n];
    }
}

} // namespace sched91
