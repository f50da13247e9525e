#include "core/pipeline.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <thread>

#include "dag/table_forward.hh"
#include "heuristics/heuristic.hh"
#include "heuristics/register_pressure.hh"
#include "obs/events.hh"
#include "obs/flight_recorder.hh"
#include "obs/histogram.hh"
#include "obs/memory.hh"
#include "obs/phase.hh"
#include "obs/trace.hh"
#include "sched/list_scheduler.hh"
#include "sched/verifier.hh"
#include "support/cancellation.hh"
#include "support/fault_inject.hh"
#include "support/log.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"
#include "support/worker_context.hh"

namespace sched91
{

namespace
{

/** Salt bit separating the arena alloc-fail draw from the boundary
 * alloc-fail draw (attempt salts are small integers, so the high bit
 * can never collide with a real retry salt). */
constexpr std::uint64_t kArenaAllocFailSalt = 1ULL << 63;

/** Run the static heuristic passes an algorithm declares it needs,
 * each a sub-phase of heur (in @p record, if set; timed only then). */
void
runNeededPasses(Dag &dag, const SchedulerConfig &config,
                obs::PhaseRecord *record)
{
    if (config.needsForwardPass) {
        obs::ScopedPhase phase(obs::Phase::HeurFwd, record);
        runForwardPass(dag);
    }
    if (config.needsBackwardPass) {
        obs::ScopedPhase phase(obs::Phase::HeurBwd, record);
        runBackwardPass(dag, PassImpl::ReverseWalk,
                        config.needsDescendants);
    }
    if (config.needsForwardPass && config.needsBackwardPass)
        computeSlack(dag);
    if (config.needsRegisterPressure)
        computeRegisterPressure(dag);
}

/** What a block adds to its slot only for a run that asks for it: a
 * trace, outlier capture or --explain-block, or when it degrades. */
struct BlockExtras
{
    unsigned worker = 0; ///< lane that ran the block; tracing only
    /** Each main phase's copy of the per-block shard as it ended, and
     * the shard after degrading; tracing only. */
    std::array<obs::CounterShard, obs::kNumMainPhases> phaseCounters;
    obs::CounterShard degradeCounters;
    /** The per-block shard as the block ended; set only when capturing
     * outliers, whose score and counters it gives. */
    obs::CounterShard counters;
    /** Decision log, only for the --explain-block target. */
    std::optional<DecisionTrace> decisions;
    std::string stage; ///< where the degradation happened
    std::string reason;
};

/** What every run reads of one block, parked in its own slot until
 * the post-join reduction.  What folds the same in any order (the DAG
 * structure, cycles, arena samples) stays with the lane instead, and
 * the lane hands the block's schedule over itself. */
struct BlockOutput
{
    /** The block's phases; every per-phase output derives from it. */
    obs::PhaseRecord phases;
    std::uint32_t arcs = 0; ///< its DAG's, 0 when degraded

    // Robustness outcomes (reduced into ProgramResult post-join).
    bool fallback = false;       ///< n**2 -> table builder switch
    bool degraded = false;       ///< schedule is original order
    bool verifyRejected = false; ///< verifier refused the schedule

    std::unique_ptr<BlockExtras> extras;

    BlockExtras &
    extra()
    {
        if (!extras)
            extras = std::make_unique<BlockExtras>();
        return *extras;
    }
};
static_assert(sizeof(BlockOutput) <= 256,
              "a block's slot holds only what every run reads");

/** Thrown inside one block's chain to request degradation; never
 * escapes processBlock. */
struct BlockAbort
{
    const char *stage;
    std::string reason;
};

/** Thread-private machinery of one pipeline lane. */
struct WorkerState
{
    WorkerContext ctx;
    /** Cleared per block, so Max gauges become per-block peaks. */
    obs::CounterShard blockShard;
    /** Run-lifetime accumulation, merged into the run total post-join. */
    obs::CounterShard accum;
    /** Its blocks' per-phase totals, for the run report's tree. */
    obs::PhaseShards phaseShards;
    /** Its blocks' DAG structure and cycles: sums of integers, so
     * folding the lanes gives the same totals in any order. */
    DagStructure dagStats;
    long long cyclesOriginal = 0;
    long long cyclesScheduled = 0;
    /** Its blocks' arena in use as each ended (`block.arena_bytes`),
     * for the run report: bucket counts, merged in any order. */
    obs::Histogram blockArenaBytes;
    /** Where its last block ended (its chunk started): the next
     * block's first phase starts there. */
    obs::PhaseRecord::Clock::time_point mark;
    /** Flight-recorder ring, claimed lazily on first chunk. */
    obs::flight::Recorder *flight = nullptr;
};

/**
 * The timing-complete ground truth a block's cycles are simulated on:
 * a table-fwd DAG with every transitive arc, built without reach maps
 * and never under a (possibly fired) block token.
 */
Dag
buildGroundTruth(const BlockView &block, const MachineModel &machine,
                 BuildOptions opts)
{
    opts.preventTransitive = false;
    opts.maintainReachMaps = false;
    opts.cancel = nullptr;
    return TableForwardBuilder().build(block, machine, opts);
}

/** The issue that records rung one firing on block @p block. */
ProgramResult::BlockIssue
fallbackIssue(std::size_t block, std::size_t insts, int maxBlockInsts)
{
    std::ostringstream os;
    os << insts << " insts over --max-block-insts " << maxBlockInsts
       << ": n**2 builder fell back to table building";
    return ProgramResult::BlockIssue{block, "fallback", os.str(), false};
}

/** Lines of @p block's instructions, for a forensic bundle. */
std::string
blockSourceText(const BlockView &block)
{
    std::string out;
    for (std::uint32_t i = 0; i < block.size(); ++i) {
        out += block.inst(i).toString();
        out += '\n';
    }
    return out;
}

} // namespace

bool
fallsBackToTable(BuilderKind builder, std::size_t insts, int maxBlockInsts)
{
    const bool n2 = builder == BuilderKind::N2Forward ||
                    builder == BuilderKind::N2Backward ||
                    builder == BuilderKind::N2Landskov;
    return n2 && maxBlockInsts > 0 &&
           insts > static_cast<std::size_t>(maxBlockInsts);
}

DispatchPlan
planDispatch(const std::vector<BasicBlock> &blocks, unsigned lanes)
{
    std::size_t insts = 0;
    for (const BasicBlock &bb : blocks)
        insts += bb.size();
    const std::size_t target = std::max<std::size_t>(
        1, insts / (static_cast<std::size_t>(std::max(lanes, 1u)) * 8));

    DispatchPlan plan;
    plan.order.resize(blocks.size());
    std::iota(plan.order.begin(), plan.order.end(), std::size_t{0});
    auto big_end = plan.order.begin();
    if (lanes > 1) {
        big_end = std::stable_partition(
            plan.order.begin(), plan.order.end(),
            [&](std::size_t b) { return blocks[b].size() >= target; });
        std::stable_sort(plan.order.begin(), big_end,
                         [&](std::size_t a, std::size_t b) {
                             return blocks[a].size() > blocks[b].size();
                         });
    }
    for (auto it = plan.order.begin(); it != big_end; ++it)
        plan.bounds.push_back(plan.bounds.back() + 1);
    std::size_t filled = 0;
    for (std::size_t i = plan.bounds.back(); i < plan.order.size(); ++i) {
        filled += blocks[plan.order[i]].size();
        if (filled >= target || i + 1 == plan.order.size()) {
            plan.bounds.push_back(i + 1);
            filled = 0;
        }
    }
    return plan;
}

ProgramResult
runPipeline(Program &prog, const MachineModel &machine,
            const PipelineOptions &opts)
{
    unsigned threads = opts.threads != 0
                           ? opts.threads
                           : ThreadPool::hardwareConcurrency();
    std::vector<BasicBlock> blocks = partitionBlocks(
        prog, opts.partition,
        prog.size() >= kLanePartitionInsts ? threads : 1);
    AlgorithmSpec spec = algorithmSpec(opts.algorithm);
    std::unique_ptr<DagBuilder> builder = makeBuilder(opts.builder);
    const TableForwardBuilder table_builder;
    ListScheduler scheduler(spec.config, machine);

    ProgramResult result;
    result.numBlocks = blocks.size();
    result.numInsts = prog.size();

    const bool obs_on = obs::enabled();
    const bool tracing = obs_on && opts.trace != nullptr;
    // The parts of the run report that only observability feeds.
    const bool obs_report = obs_on && opts.report;

    // No plan has more chunks than blocks, so no run needs more lanes.
    threads = static_cast<unsigned>(
        std::clamp<std::size_t>(blocks.size(), 1, threads));
    ThreadPool &lanes = ThreadPool::local(threads);
    threads = std::min(threads, lanes.threads());
    const DispatchPlan plan = planDispatch(blocks, threads);
    threads = static_cast<unsigned>(std::clamp<std::size_t>(
        plan.chunks(), 1, threads));

    std::vector<BlockOutput> outputs(blocks.size());
    std::vector<WorkerState> workers(threads);

    // Outlier capture rides the counter shards (the score is a counter
    // sum), so it requires the observability layer.
    const bool capture = obs_on && opts.captureOutliers > 0;

    // Flight-recorder bracket: the caller's thread owns the first ring
    // (run begin/end, post-join events); lanes claim theirs on first
    // chunk.  Payloads are properties of the input, never of the lane
    // layout, so dumps stay byte-identical across thread counts.
    // When a long-lived host (the daemon) manages the rings, the
    // bracket is skipped entirely: beginRun() would wipe concurrent
    // requests' history, and claim() would leak slots.  record()
    // still flows through whatever recorder the host installed on
    // this thread.
    const bool flight_on = obs::flight::enabled();
    const bool flight_bracket =
        flight_on && !obs::flight::externallyManaged();
    std::optional<obs::flight::ScopedRecorder> flight_scope;
    if (flight_bracket) {
        obs::flight::beginRun();
        obs::flight::setGauge(obs::flight::Gauge::BlocksTotal,
                              blocks.size());
        flight_scope.emplace(obs::flight::claim());
        obs::flight::record(obs::flight::EventKind::RunBegin, "run", {},
                            blocks.size(), prog.size());
    }

    // Whole-run budget bookkeeping: blocks not yet *started*, shared
    // across lanes so each starting block can claim its fair share of
    // whatever wall-clock remains.
    const auto run_start = std::chrono::steady_clock::now();
    std::atomic<std::size_t> blocks_unstarted{blocks.size()};
    auto elapsedSeconds = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - run_start)
            .count();
    };

    auto processBlock = [&](unsigned w, std::size_t b) {
        const BasicBlock &bb = blocks[b];
        BlockView block(prog, bb);
        WorkerState &ws = workers[w];
        BlockOutput &out = outputs[b];
        // The block's first phase starts where the lane's previous
        // block ended.
        out.phases.mark = ws.mark;
        out.phases.shards = obs_report ? &ws.phaseShards : nullptr;
        if (tracing) {
            BlockExtras &extras = out.extra();
            extras.worker = w;
            out.phases.counters = &extras.phaseCounters;
        }
        // Added to the lane's as the block ends.
        long long cycles_original = 0;
        long long cycles_scheduled = 0;
        // Moved into the caller's slot as the block ends, or freed.
        Schedule sched;

        // Ladder rung two (last resort): the block keeps its original
        // instruction order — trivially valid, zero claimed speedup.
        auto degrade = [&](const char *stage, std::string reason) {
            obs::flight::record(obs::flight::EventKind::Diag, stage,
                                reason);
            out.degraded = true;
            BlockExtras &extras = out.extra();
            extras.stage = stage;
            extras.reason = std::move(reason);
            extras.decisions.reset();
            sched = Schedule{};
            sched.order.resize(bb.size());
            std::iota(sched.order.begin(), sched.order.end(),
                      std::uint32_t{0});
            out.arcs = 0;
            cycles_original = 0;
            cycles_scheduled = 0;
            obs::ev::robustBlocksDegraded.inc();
            if (opts.evaluate) {
                // Best effort: cost the order we are emitting.  A
                // block degraded during *build* may not even have a
                // ground-truth DAG, so failure here just leaves the
                // cycle counts at zero.
                try {
                    Dag gt = buildGroundTruth(block, machine, opts.build);
                    cycles_original =
                        simulateSchedule(gt,
                                         originalOrderSchedule(gt).order,
                                         machine)
                            .cycles;
                    cycles_scheduled = cycles_original;
                } catch (const std::exception &) {
                }
            }
            if (tracing)
                extras.degradeCounters = ws.blockShard;
        };

        // Effective per-block budget: the per-block cap, tightened by
        // a fair share of whatever the whole-run budget has left —
        // (maxRunSeconds - elapsed) / blocks-not-yet-started.  Early
        // blocks that finish under their share donate the surplus to
        // later blocks; an exhausted run budget degrades every
        // remaining block immediately, so the run always ends in
        // bounded time with all blocks accounted for.
        double budget = opts.maxBlockSeconds;
        bool from_run_budget = false;
        bool run_exhausted = false;
        if (opts.maxRunSeconds > 0.0) {
            const std::size_t remaining = blocks_unstarted.fetch_sub(
                1, std::memory_order_relaxed); // includes this block
            const double left = opts.maxRunSeconds - elapsedSeconds();
            if (left <= 0.0) {
                run_exhausted = true;
            } else {
                const double share =
                    left / static_cast<double>(remaining ? remaining : 1);
                if (budget <= 0.0 || share < budget) {
                    budget = share;
                    from_run_budget = true;
                }
            }
        }

        auto checkBudget = [&](const char *stage) {
            if (budget <= 0.0)
                return;
            if (out.phases.mainSeconds() > budget) {
                obs::ev::robustBudgetExceeded.inc();
                if (from_run_budget)
                    obs::ev::cancelRunBudgetExhausted.inc();
                std::ostringstream os;
                os << stage << " phase pushed block past " << budget
                   << "s budget";
                throw BlockAbort{"budget", os.str()};
            }
        };

        // Cooperative mid-loop budget enforcement: one token per
        // block, armed with the effective budget and polled inside
        // the builder and scheduler loops.  The phase-boundary
        // checkBudget() calls remain for the phases that do not poll
        // (heuristics, verification).
        std::optional<CancellationToken> token;
        if (budget > 0.0 && !run_exhausted) {
            token.emplace(budget);
            std::ostringstream os;
            os << "block exceeded " << budget
               << "s budget (cancelled mid-loop)";
            token->setReason(os.str());
        }

        // Deterministic fault-injection key: a pure function of the
        // block *content*, so the same payload fails the same way at
        // every thread count and on every replay.
        std::uint64_t fault_key = 0;
        const bool fault_on = fault::enabled();
        if (fault_on)
            fault_key = fault::fnv1a64(blockSourceText(block));

        try {
            // Graceful drain: a fired interrupt token degrades every
            // block that has not yet started (in-flight blocks
            // finish), so SIGINT still produces a complete, truthful
            // stats document.  Checked before the budget rung — a
            // drain is not a budget overrun.
            if (opts.interrupt && opts.interrupt->cancelled()) {
                obs::ev::cancelRunInterrupted.inc();
                obs::flight::record(obs::flight::EventKind::Cancel,
                                    "interrupt", "drain requested");
                throw BlockAbort{
                    "interrupt",
                    "run interrupted: block kept original order"};
            }

            if (run_exhausted) {
                obs::ev::robustBudgetExceeded.inc();
                obs::ev::cancelRunBudgetExhausted.inc();
                std::ostringstream os;
                os << "run budget of " << opts.maxRunSeconds
                   << "s exhausted before block started";
                throw BlockAbort{"budget", os.str()};
            }

            // F1/F2 degradation ladder, rung one: an n**2 builder
            // facing a block beyond the paper's practical window
            // switches to table building (which handled fpppp's
            // 11750-instruction block) before any thought of giving
            // up on scheduling entirely.
            out.fallback = fallsBackToTable(opts.builder, bb.size(),
                                            opts.maxBlockInsts);
            if (out.fallback)
                obs::ev::robustBuilderFallbacks.inc();
            const DagBuilder *use_builder =
                out.fallback ? &table_builder : builder.get();

            BuildOptions build_opts = opts.build;
            if (token)
                build_opts.cancel = &*token;

            // Injection points at the build boundary
            // (support/fault_inject.hh).  The slow-block stall is
            // charged to build time, so it drives the budget/deadline
            // rungs exactly like a genuinely pathological block; the
            // throw points exercise the containment (or, under
            // --strict / the daemon ladder, propagation) paths.
            obs::ScopedPhase build_phase(obs::Phase::Build, &out.phases);
            if (fault_on) {
                // Signal-grade points first (docs/ROBUSTNESS.md):
                // they take the whole process down — the failure mode
                // they simulate.  Survivable only when this pipeline
                // runs inside a sandbox worker
                // (`sched91 serve --isolate=process`), whose
                // supervisor converts the death into the ladder's
                // degradation rung.
                if (fault::shouldFire(fault::Point::CrashSegv,
                                      fault_key, opts.faultSalt)) {
                    obs::flight::record(obs::flight::EventKind::Diag,
                                        "inject", "crash-segv");
                    std::raise(SIGSEGV);
                }
                if (fault::shouldFire(fault::Point::CrashAbort,
                                      fault_key, opts.faultSalt)) {
                    obs::flight::record(obs::flight::EventKind::Diag,
                                        "inject", "crash-abort");
                    std::abort();
                }
                if (fault::shouldFire(fault::Point::SpinForever,
                                      fault_key, opts.faultSalt)) {
                    obs::flight::record(obs::flight::EventKind::Diag,
                                        "inject", "spin-forever");
                    // A genuinely runaway loop: no cancellation poll,
                    // no sleep — only SIGKILL (watchdog) or RLIMIT_CPU
                    // ends it.
                    for (volatile std::uint64_t spin = 0;;)
                        spin = spin + 1;
                }
                // The arena rung of alloc-fail: arm the worker's
                // arena so std::bad_alloc surfaces from inside the
                // builder's own allocations (a different unwind than
                // the boundary throw below).  A distinct salt bit
                // keeps the draw independent of the boundary draw
                // while staying a pure function of (seed, content).
                if (fault::shouldFire(fault::Point::AllocFail,
                                      fault_key,
                                      opts.faultSalt ^
                                          kArenaAllocFailSalt)) {
                    if (Arena *arena = WorkerContext::currentArena()) {
                        obs::flight::record(
                            obs::flight::EventKind::Diag, "inject",
                            "alloc-fail-arena");
                        arena->armAllocFailure();
                    }
                }
                if (fault::shouldFire(fault::Point::SlowBlock,
                                      fault_key, opts.faultSalt)) {
                    obs::flight::record(obs::flight::EventKind::Diag,
                                        "inject", "slow-block");
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(
                            fault::activeConfig().slowBlockMs));
                }
                if (fault::shouldFire(fault::Point::AllocFail,
                                      fault_key, opts.faultSalt)) {
                    obs::flight::record(obs::flight::EventKind::Diag,
                                        "inject", "alloc-fail");
                    throw std::bad_alloc();
                }
                if (fault::shouldFire(fault::Point::BuilderThrow,
                                      fault_key, opts.faultSalt)) {
                    obs::flight::record(obs::flight::EventKind::Diag,
                                        "inject", "builder-throw");
                    fatal("injected fault: builder-throw (key ",
                          fault_key, ")");
                }
            }
            Dag dag = use_builder->build(block, machine, build_opts);
            build_phase.stop();
            obs::flight::record(obs::flight::EventKind::PhaseEnd,
                                "build", {}, dag.size(), dag.numArcs());
            checkBudget("build");

            // Only the phase tree reads heur's sub-phases.
            obs::ScopedPhase heur_phase(obs::Phase::Heur, &out.phases);
            runNeededPasses(dag, spec.config,
                            obs_report ? &out.phases : nullptr);
            heur_phase.stop();
            obs::flight::record(obs::flight::EventKind::PhaseEnd, "heur");
            checkBudget("heur");

            // --explain-block: record this block's full decision log
            // as the winnowing pass picks.
            std::optional<DecisionStats> decision_stats;
            if (opts.explainBlock >= 0 &&
                b == static_cast<std::size_t>(opts.explainBlock))
                decision_stats.emplace().recordLog = true;
            obs::ScopedPhase sched_phase(obs::Phase::Sched, &out.phases);
            sched = scheduler.run(
                dag, decision_stats ? &*decision_stats : nullptr,
                token ? &*token : nullptr);
            sched_phase.stop();
            obs::flight::record(obs::flight::EventKind::PhaseEnd,
                                "sched", {}, sched.order.size(),
                                static_cast<std::uint64_t>(
                                    sched.makespan < 0 ? 0
                                                       : sched.makespan));
            if (decision_stats) {
                DecisionTrace &trace = out.extra().decisions.emplace();
                trace.block = static_cast<int>(b);
                trace.algorithm = spec.config.name;
                for (const RankedHeuristic &rh : spec.config.ranking)
                    trace.rankNames.push_back(
                        heuristicInfo(rh.heuristic).name);
                trace.stats = std::move(*decision_stats);
                for (std::uint32_t i = 0; i < block.size(); ++i)
                    trace.insts.push_back(block.inst(i).toString());
            }

            if (opts.verify) {
                obs::ScopedPhase verify_phase(obs::Phase::Verify,
                                              &out.phases);
                VerifyResult vr = verifySchedule(dag, sched, machine);
                verify_phase.stop();
                // An injected rejection takes the real rejection path
                // end to end; it only substitutes the verdict.
                bool inject_reject =
                    fault_on &&
                    fault::shouldFire(fault::Point::VerifierReject,
                                      fault_key, opts.faultSalt);
                obs::flight::record(obs::flight::EventKind::PhaseEnd,
                                    "verify", {},
                                    vr.ok() && !inject_reject ? 1 : 0);
                if (!vr.ok() || inject_reject) {
                    std::string summary =
                        vr.ok() ? "injected fault: verifier-reject"
                                : vr.summary();
                    obs::ev::robustVerifierRejections.inc();
                    out.verifyRejected = true;
                    if (!opts.containFaults)
                        panic("block ", b,
                              ": schedule verification failed: ",
                              summary);
                    throw BlockAbort{"verify", summary};
                }
            }

            if (opts.evaluate) {
                obs::ScopedPhase eval_phase(obs::Phase::Evaluate,
                                            &out.phases);
                // Ground truth: a timing-complete DAG.  Table-built
                // DAGs preserve every timing constraint (Section 2),
                // so reuse the scheduler's DAG when it came from a
                // table builder without transitive prevention;
                // otherwise rebuild.
                bool reusable =
                    (out.fallback ||
                     opts.builder == BuilderKind::TableForward ||
                     opts.builder == BuilderKind::TableBackward) &&
                    !opts.build.preventTransitive;
                if (reusable) {
                    cycles_original =
                        simulateSchedule(dag,
                                         originalOrderSchedule(dag).order,
                                         machine)
                            .cycles;
                    cycles_scheduled =
                        simulateSchedule(dag, sched.order, machine).cycles;
                } else {
                    Dag gt = buildGroundTruth(block, machine, opts.build);
                    cycles_original =
                        simulateSchedule(gt,
                                         originalOrderSchedule(gt).order,
                                         machine)
                            .cycles;
                    cycles_scheduled =
                        simulateSchedule(gt, sched.order, machine).cycles;
                }
                eval_phase.stop();
                obs::flight::record(
                    obs::flight::EventKind::PhaseEnd, "evaluate", {},
                    static_cast<std::uint64_t>(cycles_original),
                    static_cast<std::uint64_t>(cycles_scheduled));
            }
            // Last, so a block that degrades adds nothing (it counts no
            // event, so no counter moves with it).
            ws.dagStats.accumulate(dag, opts.report);
            out.arcs = static_cast<std::uint32_t>(dag.numArcs());
        } catch (const BlockAbort &a) {
            degrade(a.stage, a.reason);
        } catch (const CancelledError &e) {
            // Mid-loop budget cancellation is the budget rung of the
            // ladder, honored even under --strict (same as the
            // phase-boundary BlockAbort above): a block that asked
            // for a bounded run and got one is not a fault.
            obs::ev::robustBudgetExceeded.inc();
            obs::ev::cancelBlocksCancelled.inc();
            if (from_run_budget)
                obs::ev::cancelRunBudgetExhausted.inc();
            obs::flight::record(obs::flight::EventKind::Cancel, "budget",
                                e.what());
            degrade("budget", e.what());
        } catch (const std::exception &e) {
            if (!opts.containFaults)
                throw;
            // Charged to the last phase to start (one that throws
            // writes its seconds as it unwinds), else to build.
            degrade(obs::phaseNames(out.phases.last()).name, e.what());
        }
        // The block's DAGs die here — before the next beginBlock()
        // recycles the arena their arc lists live in.
        ws.cyclesOriginal += cycles_original;
        ws.cyclesScheduled += cycles_scheduled;
        ws.mark = out.phases.mark;
        // Slot b is this lane's alone; its old schedule is freed here.
        if (opts.schedules)
            (*opts.schedules)[b] = std::move(sched);
    };

    auto runChunks = [&](unsigned w, std::size_t first, std::size_t last) {
        const std::span<const std::size_t> chunk_blocks(
            plan.order.data() + plan.bounds[first],
            plan.order.data() + plan.bounds[last]);
        WorkerState &ws = workers[w];
        WorkerContext::Scope ctx_scope(ws.ctx);
        ws.mark = obs::PhaseRecord::Clock::now();
        // One (lazily claimed) flight ring per lane; it keys its events
        // by block id, so the dump's merge order is independent of the
        // lane layout.
        if (flight_bracket && !ws.flight)
            ws.flight = obs::flight::claim();
        std::optional<obs::flight::ScopedRecorder> lane_flight;
        if (flight_bracket)
            lane_flight.emplace(ws.flight);

        auto blockBegin = [&](std::size_t b) {
            if (!flight_on)
                return;
            obs::flight::setBlock(b);
            obs::flight::record(obs::flight::EventKind::BlockBegin,
                                "block", {}, blocks[b].size(),
                                blocks[b].begin);
        };
        auto blockEnd = [&](std::size_t b) {
            if (!flight_on)
                return;
            obs::flight::record(obs::flight::EventKind::BlockEnd,
                                "block",
                                outputs[b].degraded
                                    ? std::string_view{"degraded"}
                                    : std::string_view{},
                                blocks[b].size());
            obs::flight::addGauge(obs::flight::Gauge::BlocksDone, 1);
        };

        if (obs_on) {
            // Even a single-lane run routes through the shard: the
            // per-block clear is what gives Max gauges history-free
            // per-block values, which the byte-identical-output
            // guarantee across thread counts depends on.
            obs::ScopedCounterShard shard_scope(ws.blockShard);
            for (std::size_t b : chunk_blocks) {
                ws.blockShard.clear();
                ws.ctx.beginBlock();
                blockBegin(b);
                try {
                    processBlock(w, b);
                } catch (...) {
                    // Propagating fault (containFaults off): keep the
                    // partial block's counts — the exception path
                    // below flushes the lane accumulators into the
                    // caller's counters.
                    ws.blockShard.flushInto(ws.accum);
                    throw;
                }
                ws.blockShard.flushInto(ws.accum);
                // While the block's arena allocations are still
                // accounted (the arena resets at the next beginBlock).
                if (obs_report)
                    ws.blockArenaBytes.record(ws.ctx.arena().bytesInUse());

                // The deterministic work score, for the CounterSnap
                // flight event; outlier capture scores the slot's copy
                // after the join.
                if (flight_on)
                    obs::flight::record(
                        obs::flight::EventKind::CounterSnap, "work", {},
                        obs::shardWorkScore(ws.blockShard));
                if (capture)
                    outputs[b].extra().counters = ws.blockShard;
                blockEnd(b);
            }
        } else {
            for (std::size_t b : chunk_blocks) {
                ws.ctx.beginBlock();
                blockBegin(b);
                processBlock(w, b);
                blockEnd(b);
            }
        }
    };

    // Sized here, so that each lane moves its blocks' schedules into
    // their slots.
    if (opts.schedules)
        opts.schedules->resize(blocks.size());
    try {
        lanes.parallelFor(plan.chunks(), 1, runChunks, threads);
    } catch (...) {
        // No slot is left half filled.
        if (opts.schedules)
            opts.schedules->clear();
        // A propagating fault (containFaults off) must not lose the
        // events already counted: parallelFor drains every chunk
        // before rethrowing, so the lane accumulators are quiescent —
        // flush them into the caller's counters so a retrying caller
        // (the daemon's ladder) still sees exact totals, including the
        // injected fault that killed this attempt.
        if (obs_on)
            for (WorkerState &ws : workers)
                ws.accum.flushIntoActive();
        throw;
    }

    // Deterministic reduction: block order for per-block outputs,
    // every per-phase one read from the block's phase record...
    // Per-block samples go into one histogram each (`lat.*` indexed by
    // Phase), named into the result once after the loop.
    obs::Histogram block_insts, block_arena_bytes;
    std::array<obs::Histogram, obs::kNumPhases> phase_lat;
    for (std::size_t b = 0; b < outputs.size(); ++b) {
        BlockOutput &out = outputs[b];
        const obs::PhaseRecord &phases = out.phases;
        result.buildSeconds += phases.seconds(obs::Phase::Build);
        result.heurSeconds += phases.seconds(obs::Phase::Heur);
        result.schedSeconds += phases.seconds(obs::Phase::Sched);
        result.verifySeconds += phases.seconds(obs::Phase::Verify);
        if (obs_report) {
            result.phaseTree.add(phases);
            block_insts.record(blocks[b].size());
            for (std::size_t p = 0; p < obs::kNumPhases; ++p)
                if (obs::kPhaseNames[p].latency != nullptr &&
                    phases.started(static_cast<obs::Phase>(p)))
                    phase_lat[p].record(obs::secondsToNs(phases.secs[p]));
        }
        if (tracing) {
            // One event per phase, carrying the shard's change since
            // the previous one (the first counts from zero: the shard
            // was cleared as the block started); a degraded block's
            // `degrade` event carries what was counted after the last.
            const BlockExtras &extras = *out.extras;
            obs::TraceEvent ev;
            ev.block = b;
            ev.begin = blocks[b].begin;
            ev.size = blocks[b].size();
            ev.worker = extras.worker;
            const obs::CounterShard zero;
            const obs::CounterShard *last = &zero;
            auto fire = [&](const char *phase, double seconds,
                            const obs::CounterShard &now) {
                ev.phase = phase;
                ev.seconds = seconds;
                ev.counters = now.since(*last);
                opts.trace->event(ev);
                last = &now;
            };
            for (std::size_t p = 0; p < obs::kNumMainPhases; ++p)
                if (phases.started(static_cast<obs::Phase>(p)))
                    fire(obs::kPhaseNames[p].name, phases.secs[p],
                         extras.phaseCounters[p]);
            if (out.degraded)
                fire("degrade", 0.0, extras.degradeCounters);
        }
        if (out.extras && out.extras->decisions)
            result.decisions = std::move(*out.extras->decisions);
        if (out.fallback) {
            ++result.builderFallbacks;
            result.blockIssues.push_back(
                fallbackIssue(b, blocks[b].size(), opts.maxBlockInsts));
        }
        if (out.verifyRejected)
            ++result.verifierRejections;
        if (out.degraded) {
            const BlockExtras &extras = *out.extras;
            ++result.blocksDegraded;
            log::info("block ", b, " degraded at ", extras.stage, ": ",
                      extras.reason);
            result.blockIssues.push_back(ProgramResult::BlockIssue{
                b, extras.stage, extras.reason, true});
        }
    }
    // ... lane order for the lanes' folds, which come out the same in
    // any order.
    for (const WorkerState &ws : workers) {
        result.dagStats.merge(ws.dagStats);
        result.cyclesOriginal += ws.cyclesOriginal;
        result.cyclesScheduled += ws.cyclesScheduled;
        block_arena_bytes.merge(ws.blockArenaBytes);
    }

    // A histogram exists exactly when some block recorded into it.
    const auto addHistogram = [&result](const char *name,
                                        const obs::Histogram &hist) {
        if (hist.count() != 0)
            result.histograms.get(name) = hist;
    };
    addHistogram("block.insts", block_insts);
    addHistogram("block.arena_bytes", block_arena_bytes);
    for (std::size_t p = 0; p < phase_lat.size(); ++p)
        if (const char *lat = obs::kPhaseNames[p].latency)
            addHistogram(lat, phase_lat[p]);

    // Memory telemetry (obs/memory.hh).  The deterministic gauges are
    // per-block sums/maxima in disguise — summing (or maxing) over
    // workers equals summing over blocks, so they are identical at
    // every thread count; the environmental ones are not and stay out
    // of the counter set.
    for (WorkerState &ws : workers) {
        Arena &arena = ws.ctx.arena();
        result.memory.arenaBytesAllocated += arena.totalBytesAllocated();
        result.memory.arenaHighWaterBytes =
            std::max<std::uint64_t>(result.memory.arenaHighWaterBytes,
                                    arena.highWaterBytes());
        Arena &scratch = ws.ctx.scratchArena();
        result.memory.arenaReservedBytes +=
            arena.bytesReserved() + scratch.bytesReserved();
        result.memory.arenaChunks += arena.numChunks() + scratch.numChunks();
    }
    result.memory.dagArcs = result.dagStats.totalArcs;
    result.memory.dagArcBytes = result.memory.dagArcs * sizeof(Arc);
    if (opts.report)
        result.memory.peakRssBytes = obs::currentPeakRssBytes();

    // ... and worker order for the thread-private shards and the phase
    // totals (both merges are kind-aware, so the result is independent
    // of how blocks were distributed over lanes).  The merged shards
    // are the run's counters: exact even while other runs overlap this
    // one, because nothing else ever counts into them.
    if (obs_on) {
        obs::CounterShard run_total;
        for (WorkerState &ws : workers) {
            ws.accum.flushInto(run_total);
            if (obs_report)
                result.phaseTree.add(ws.phaseShards);
        }
        // Deterministic memory gauges join the run's counters too.
        run_total.add(obs::ev::memArenaBytesAllocated.id(),
                      result.memory.arenaBytesAllocated);
        run_total.recordMax(obs::ev::memArenaHighWater.id(),
                            result.memory.arenaHighWaterBytes);
        run_total.add(obs::ev::memDagArcBytes.id(),
                      result.memory.dagArcBytes);
        run_total.flushIntoActive();
        if (obs_report)
            result.counters = run_total.named();
    }

    // Outlier capture: every block scored from its slot, the top K by
    // (score desc, block asc), recorded in block order.
    if (capture) {
        std::vector<std::uint64_t> scores(blocks.size());
        for (std::size_t b = 0; b < blocks.size(); ++b)
            scores[b] = obs::shardWorkScore(outputs[b].extras->counters);
        std::vector<std::size_t> top(blocks.size());
        std::iota(top.begin(), top.end(), std::size_t{0});
        const std::size_t k = std::min<std::size_t>(
            static_cast<std::size_t>(opts.captureOutliers), top.size());
        std::partial_sort(top.begin(), top.begin() + k, top.end(),
                          [&](std::size_t a, std::size_t b) {
                              if (scores[a] != scores[b])
                                  return scores[a] > scores[b];
                              return a < b;
                          });
        top.resize(k);
        std::sort(top.begin(), top.end());
        for (std::size_t b : top) {
            BlockOutput &out = outputs[b];
            BlockExtras &extras = *out.extras;
            obs::OutlierRecord &rec = result.outliers.emplace_back();
            rec.block = b;
            rec.score = scores[b];
            rec.begin = blocks[b].begin;
            rec.size = blocks[b].size();
            rec.dagNodes = out.degraded ? 0 : blocks[b].size();
            rec.dagArcs = out.arcs;
            rec.phases = out.phases;
            rec.counters = std::move(extras.counters);
            rec.stage =
                out.fallback && !out.degraded ? "fallback" : extras.stage;
            rec.reason = extras.reason;
            rec.degraded = out.degraded;
            rec.fallback = out.fallback;
            rec.source = blockSourceText(BlockView(prog, blocks[b]));
        }
    }

    if (flight_bracket) {
        obs::flight::setGauge(obs::flight::Gauge::ArenaHighWaterBytes,
                              result.memory.arenaHighWaterBytes);
        obs::flight::setGauge(obs::flight::Gauge::DagArcBytes,
                              result.memory.dagArcBytes);
        obs::flight::setPostRun();
        obs::flight::record(obs::flight::EventKind::RunEnd, "run", {},
                            result.blocksDegraded,
                            result.verifierRejections);
    } else if (flight_on) {
        // Externally managed rings: no gauge/bracket writes, but the
        // host's recorder still gets the run's closing line.
        obs::flight::record(obs::flight::EventKind::RunEnd, "run", {},
                            result.blocksDegraded,
                            result.verifierRejections);
    }

    return result;
}

BlockScheduleResult
scheduleBlock(const BlockView &block, const MachineModel &machine,
              const PipelineOptions &opts)
{
    AlgorithmSpec spec = algorithmSpec(opts.algorithm);
    const bool fallback =
        fallsBackToTable(opts.builder, block.size(), opts.maxBlockInsts);
    if (fallback)
        obs::ev::robustBuilderFallbacks.inc();
    std::unique_ptr<DagBuilder> builder =
        makeBuilder(fallback ? BuilderKind::TableForward : opts.builder);

    // Same mid-loop budget enforcement as runPipeline, but the
    // CancelledError propagates: single-block callers own their
    // fallback policy just as they own verifier rejections.
    std::optional<CancellationToken> token;
    if (opts.maxBlockSeconds > 0.0) {
        token.emplace(opts.maxBlockSeconds);
        std::ostringstream os;
        os << "block exceeded " << opts.maxBlockSeconds
           << "s budget (cancelled mid-loop)";
        token->setReason(os.str());
    }
    BuildOptions build_opts = opts.build;
    if (token)
        build_opts.cancel = &*token;

    Dag dag = builder->build(block, machine, build_opts);
    runNeededPasses(dag, spec.config, nullptr);
    ListScheduler scheduler(spec.config, machine);
    Schedule sched =
        scheduler.run(dag, nullptr, token ? &*token : nullptr);

    if (opts.verify) {
        VerifyResult vr = verifySchedule(dag, sched, machine);
        if (!vr.ok()) {
            obs::ev::robustVerifierRejections.inc();
            panic("schedule verification failed: ", vr.summary());
        }
    }

    return BlockScheduleResult{std::move(dag), std::move(sched), fallback};
}

} // namespace sched91
