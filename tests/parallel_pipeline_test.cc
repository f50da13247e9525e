/**
 * @file
 * Determinism tests for the block-parallel pipeline: the contract is
 * that schedules, structural statistics, event counters, trace events,
 * and the serialized run document are byte-identical at every thread
 * count.  Covered for static and keyed rankings, which run on heaps,
 * and for dynamic rankings that keep the scan, with and without
 * observability, and on fpppp, whose one big block skews the dispatch
 * plan; a run's own counters and phase tree stay exact while other
 * runs overlap it; every per-phase output agrees with the phase tree;
 * two callers may run one const Program at once; a caller's lanes
 * outlive its runs; and runs and parses made from inside a lane match
 * serial ones.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <latch>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "core/pipeline.hh"
#include "ir/parser.hh"
#include "machine/presets.hh"
#include "obs/emitter.hh"
#include "obs/json_parse.hh"
#include "obs/phase.hh"
#include "obs/trace.hh"
#include "support/fault_inject.hh"
#include "support/thread_pool.hh"
#include "workload/generator.hh"

namespace sched91
{
namespace
{

Program
testProgram()
{
    WorkloadProfile p = profileByName("linpack");
    p.numBlocks = 40;
    p.totalInsts = 900;
    p.maxBlock = 90;
    return generateProgram(p);
}

struct RunArtifacts
{
    ProgramResult result;
    std::vector<Schedule> schedules;
    std::string statsJson; ///< zero-times document
    std::string trace;     ///< zero-times JSONL
};

/** One obs-enabled, evaluated pipeline run of @p prog at @p threads,
 * all outputs captured. */
RunArtifacts
runAt(unsigned threads, AlgorithmKind algorithm, Program prog,
      PartitionOptions partition)
{
    std::ostringstream trace_out;
    obs::JsonlTraceSink sink(trace_out, /*zero_times=*/true);

    PipelineOptions opts;
    opts.algorithm = algorithm;
    opts.evaluate = true;
    opts.threads = threads;
    opts.partition = partition;
    opts.trace = &sink;

    RunArtifacts a;
    opts.schedules = &a.schedules;

    obs::setEnabled(true);
    a.result = runPipeline(prog, sparcstation2(), opts);
    obs::EmitOptions emit;
    emit.zeroTimes = true;
    a.statsJson = obs::programResultJson(a.result, obs::RunMeta{},
                                         a.result.counters,
                                         &a.result.phaseTree, emit);
    obs::setEnabled(false);

    a.trace = trace_out.str();
    return a;
}

void
expectSchedulesEqual(const RunArtifacts &a, const RunArtifacts &b)
{
    ASSERT_EQ(a.schedules.size(), b.schedules.size());
    for (std::size_t i = 0; i < a.schedules.size(); ++i) {
        EXPECT_EQ(a.schedules[i].order, b.schedules[i].order)
            << "block " << i;
        EXPECT_EQ(a.schedules[i].issueCycle, b.schedules[i].issueCycle)
            << "block " << i;
        EXPECT_EQ(a.schedules[i].makespan, b.schedules[i].makespan)
            << "block " << i;
    }
}

/** Runs of @p prog at each of @p lanes must equal its one-lane run. */
void
expectIdenticalRuns(AlgorithmKind algorithm, const Program &prog,
                    PartitionOptions partition,
                    std::initializer_list<unsigned> lanes)
{
    RunArtifacts serial = runAt(1, algorithm, prog, partition);
    for (unsigned threads : lanes) {
        SCOPED_TRACE(std::to_string(threads) + " lanes");
        RunArtifacts parallel = runAt(threads, algorithm, prog, partition);
        expectSchedulesEqual(serial, parallel);
        EXPECT_EQ(serial.result.cyclesOriginal,
                  parallel.result.cyclesOriginal);
        EXPECT_EQ(serial.result.cyclesScheduled,
                  parallel.result.cyclesScheduled);
        EXPECT_TRUE(serial.result.counters == parallel.result.counters);
        EXPECT_EQ(serial.statsJson, parallel.statsJson);
        EXPECT_EQ(serial.trace, parallel.trace);
    }
}

void
expectIdenticalRuns(AlgorithmKind algorithm)
{
    expectIdenticalRuns(algorithm, testProgram(), {}, {8});
}

TEST(ParallelPipeline, DeterministicStaticRankingSimpleForward)
{
    // Static ranking -> exercises the d-ary heap scheduling path.
    expectIdenticalRuns(AlgorithmKind::SimpleForward);
}

TEST(ParallelPipeline, DeterministicStaticRankingShiehPapachristou)
{
    expectIdenticalRuns(AlgorithmKind::ShiehPapachristou);
}

TEST(ParallelPipeline, DeterministicKeyedRankingKrishnamurthy)
{
    // EET and FPU busy time lead the ranking -> the keyed heaps.
    expectIdenticalRuns(AlgorithmKind::Krishnamurthy);
}

TEST(ParallelPipeline, DeterministicOnSkewedFppppAtOneToFourLanes)
{
    // fpppp's 11750-instruction block, whole and cut into window
    // blocks: the dispatch plan moves them to the front of the queue.
    const Program &prog = cachedProgram("fpppp");
    for (int window : {0, 1000}) {
        SCOPED_TRACE("window " + std::to_string(window));
        PartitionOptions partition;
        partition.window = window;
        expectIdenticalRuns(AlgorithmKind::Krishnamurthy, prog, partition,
                            {2, 3, 4});
    }
}

TEST(ParallelPipeline, DeterministicDynamicRankingWarren)
{
    // Dynamic ranking -> exercises the scan path under the pool.
    expectIdenticalRuns(AlgorithmKind::Warren);
}

TEST(ParallelPipeline, DeterministicDynamicRankingTiemann)
{
    // Backward pass with birthing adjustments.
    expectIdenticalRuns(AlgorithmKind::Tiemann);
}

TEST(ParallelPipeline, DeterministicWithObservabilityDisabled)
{
    // The obs-off fast path skips shards entirely but must still
    // produce identical schedules and statistics.
    auto run = [](unsigned threads) {
        Program prog = testProgram();
        PipelineOptions opts;
        opts.algorithm = AlgorithmKind::Krishnamurthy;
        opts.evaluate = true;
        opts.threads = threads;
        RunArtifacts a;
        opts.schedules = &a.schedules;
        a.result = runPipeline(prog, sparcstation2(), opts);
        return a;
    };
    RunArtifacts serial = run(1);
    RunArtifacts parallel = run(8);
    expectSchedulesEqual(serial, parallel);
    EXPECT_EQ(serial.result.cyclesScheduled,
              parallel.result.cyclesScheduled);
    EXPECT_EQ(serial.result.dagStats.totalArcs,
              parallel.result.dagStats.totalArcs);
}

TEST(ParallelPipeline, ThreadCountZeroPicksHardwareConcurrency)
{
    Program prog = testProgram();
    PipelineOptions opts;
    opts.threads = 0; // hardware concurrency — must simply work
    ProgramResult r = runPipeline(prog, sparcstation2(), opts);
    EXPECT_EQ(r.numBlocks, 40u);
    EXPECT_EQ(r.dagStats.totalNodes, 900u);
}

TEST(ParallelPipeline, MoreThreadsThanBlocks)
{
    WorkloadProfile p = profileByName("grep");
    p.numBlocks = 2;
    p.totalInsts = 40;
    p.maxBlock = 30;
    Program prog = generateProgram(p);
    PipelineOptions opts;
    opts.threads = 64; // clamped to the block count internally
    ProgramResult r = runPipeline(prog, sparcstation2(), opts);
    EXPECT_EQ(r.numBlocks, 2u);
}

TEST(ParallelPipeline, SchedulesOutputIndexedByBlock)
{
    Program prog = testProgram();
    auto blocks = partitionBlocks(prog);
    PipelineOptions opts;
    opts.threads = 4;
    std::vector<Schedule> schedules;
    opts.schedules = &schedules;
    runPipeline(prog, sparcstation2(), opts);
    ASSERT_EQ(schedules.size(), blocks.size());
    for (std::size_t b = 0; b < blocks.size(); ++b)
        EXPECT_EQ(schedules[b].order.size(), blocks[b].size())
            << "block " << b;
}

TEST(ParallelPipeline, TraceEventsArriveInBlockOrder)
{
    Program prog = testProgram();
    std::ostringstream out;
    obs::JsonlTraceSink sink(out, /*zero_times=*/true);
    PipelineOptions opts;
    opts.threads = 8;
    opts.trace = &sink;
    obs::setEnabled(true);
    runPipeline(prog, sparcstation2(), opts);
    obs::setEnabled(false);

    // Every block id must appear, in nondecreasing order.
    std::istringstream in(out.str());
    std::string line;
    long last = -1;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        auto pos = line.find("\"block\":");
        ASSERT_NE(pos, std::string::npos) << line;
        long block = std::stol(line.substr(pos + 8));
        EXPECT_GE(block, last);
        last = block;
        ++lines;
    }
    EXPECT_EQ(lines, 40u * 4u); // build/heur/sched/verify per block
}

/** Whether two phase trees agree in everything but seconds. */
void
expectSameTree(const obs::PhaseStats &a, const obs::PhaseStats &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.entries, b.entries) << a.name;
    EXPECT_TRUE(a.counters.named() == b.counters.named()) << a.name;
    ASSERT_EQ(a.children.size(), b.children.size()) << a.name;
    for (std::size_t i = 0; i < a.children.size(); ++i)
        expectSameTree(a.children[i], b.children[i]);
}

TEST(ParallelPipeline, OverlappingRunsCountExactlyTheirOwnWork)
{
    // Two concurrent callers, with nothing installed, run different
    // programs over and over.  Each run's counters and phase tree
    // must equal that program's serial result: a run counts only its
    // own work, never the other's.
    auto program = [](const char *profile, int blocks) {
        WorkloadProfile p = profileByName(profile);
        p.numBlocks = blocks;
        return generateProgram(p);
    };
    const Program programs[2] = {program("linpack", 200),
                                 program("tomcatv", 60)};
    PipelineOptions opts;
    opts.threads = 2;

    obs::setEnabled(true);
    ProgramResult serial[2];
    for (int i = 0; i < 2; ++i) {
        Program prog = programs[i];
        serial[i] = runPipeline(prog, sparcstation2(), opts);
    }
    EXPECT_GT(serial[0].counters.value("dag.arcs_added"), 0u);
    EXPECT_NE(serial[0].phaseTree.child("heur"), nullptr);

    for (int round = 0; round < 20; ++round) {
        ProgramResult overlapped[2];
        std::latch start(2);
        auto lane = [&](int i) {
            Program prog = programs[i];
            start.arrive_and_wait();
            overlapped[i] = runPipeline(prog, sparcstation2(), opts);
        };
        std::thread a(lane, 0);
        std::thread b(lane, 1);
        a.join();
        b.join();
        for (int i = 0; i < 2; ++i) {
            SCOPED_TRACE("round " + std::to_string(round) +
                         ", program " + std::to_string(i));
            EXPECT_TRUE(overlapped[i].counters == serial[i].counters)
                << "dag.arcs_added "
                << overlapped[i].counters.value("dag.arcs_added")
                << " vs serial "
                << serial[i].counters.value("dag.arcs_added");
            expectSameTree(overlapped[i].phaseTree, serial[i].phaseTree);
        }
    }
    obs::setEnabled(false);
}

TEST(ParallelPipeline, TwoThreadsRunOneConstProgramAtOnce)
{
    // runPipeline only reads its program, so two callers may share
    // one: each must get a single run's blocks and schedules.  Under
    // TSan any write to the shared program shows as a race.
    const Program prog = testProgram();
    PipelineOptions opts;
    opts.algorithm = AlgorithmKind::Krishnamurthy;
    opts.threads = 2;
    std::vector<Schedule> want;
    opts.schedules = &want;
    const ProgramResult serial = runPipeline(prog, sparcstation2(), opts);
    ASSERT_EQ(want.size(), serial.blocks.size());
    ASSERT_GT(want.size(), 1u);

    for (int round = 0; round < 10; ++round) {
        std::vector<Schedule> got[2];
        ProgramResult results[2];
        std::latch start(2);
        auto caller = [&](int i) {
            PipelineOptions mine = opts;
            mine.schedules = &got[i];
            start.arrive_and_wait();
            results[i] = runPipeline(prog, sparcstation2(), mine);
        };
        std::thread a(caller, 0);
        std::thread b(caller, 1);
        a.join();
        b.join();
        for (int i = 0; i < 2; ++i) {
            SCOPED_TRACE("round " + std::to_string(round) + ", caller " +
                         std::to_string(i));
            ASSERT_EQ(results[i].blocks.size(), serial.blocks.size());
            ASSERT_EQ(got[i].size(), want.size());
            for (std::size_t b = 0; b < want.size(); ++b) {
                EXPECT_EQ(results[i].blocks[b].begin,
                          serial.blocks[b].begin);
                EXPECT_EQ(results[i].blocks[b].end, serial.blocks[b].end);
                EXPECT_EQ(got[i][b].order, want[b].order) << "block " << b;
                EXPECT_EQ(got[i][b].issueCycle, want[b].issueCycle)
                    << "block " << b;
            }
        }
    }
}

/** The process's threads, by id, from /proc/self/task. */
std::set<std::string>
liveThreads()
{
    std::set<std::string> ids;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task"))
        ids.insert(entry.path().filename().string());
    return ids;
}

TEST(ParallelPipeline, LanesOutliveRunsAndTheirCallerJoinsThem)
{
    // A caller's first 4-lane run starts its three extra lanes; the
    // next 199 runs reuse them (a pool per run would start and join
    // three threads each time, leaving the count where it began).
    const std::set<std::string> before = liveThreads();
    std::thread caller([] {
        Program prog = testProgram();
        PipelineOptions opts;
        opts.threads = 4;
        const std::set<std::string> started = liveThreads();
        runPipeline(prog, sparcstation2(), opts);
        const std::set<std::string> first = liveThreads();
        EXPECT_EQ(first.size(), started.size() + 3);
        for (int run = 1; run < 200; ++run)
            runPipeline(prog, sparcstation2(), opts);
        EXPECT_EQ(liveThreads(), first);
    });
    caller.join();
    // The lanes were joined as the caller exited; the kernel may list
    // an exited thread for a moment longer.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (liveThreads() != before &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(liveThreads(), before);
}

TEST(ParallelPipeline, RunsAndParsesInsideLanesMatchSerial)
{
    // nasa7's text is large enough to parse on lanes.  Each lane of an
    // outer parallelFor, on the caller's own lanes or on a pool of its
    // own, asks for 4 lanes to parse and schedule it: a call from
    // inside a lane runs on one, so none waits on lanes held by its
    // caller, and every output equals a serial run's.
    const std::string text =
        generateProgram(profileByName("nasa7")).toString();
    auto compile = [&](unsigned threads, std::vector<Schedule> &schedules) {
        DiagnosticEngine diags;
        Program prog = parseAssembly(text, diags, "nasa7.s", threads);
        PipelineOptions opts;
        opts.threads = threads;
        opts.evaluate = true;
        opts.schedules = &schedules;
        runPipeline(prog, sparcstation2(), opts);
        return prog.toString();
    };
    std::vector<Schedule> serial;
    const std::string serial_text = compile(1, serial);

    ThreadPool own(4);
    for (ThreadPool *pool : {&ThreadPool::local(4), &own}) {
        std::vector<std::vector<Schedule>> schedules(6);
        std::vector<std::string> texts(6);
        pool->parallelFor(schedules.size(), 1,
                          [&](unsigned, std::size_t i, std::size_t) {
                              texts[i] = compile(4, schedules[i]);
                          });
        for (std::size_t i = 0; i < schedules.size(); ++i) {
            EXPECT_EQ(texts[i], serial_text) << "compile " << i;
            ASSERT_EQ(schedules[i].size(), serial.size());
            for (std::size_t b = 0; b < serial.size(); ++b) {
                EXPECT_EQ(schedules[i][b].order, serial[b].order)
                    << "compile " << i << ", block " << b;
                EXPECT_EQ(schedules[i][b].issueCycle, serial[b].issueCycle)
                    << "compile " << i << ", block " << b;
            }
        }
    }
}

/** Check planDispatch(@p blocks, @p lanes) against its contract. */
void
expectPlanContract(const std::vector<BasicBlock> &blocks, unsigned lanes)
{
    SCOPED_TRACE(std::to_string(lanes) + " lanes");
    const DispatchPlan plan = planDispatch(blocks, lanes);

    // Every block exactly once; chunks are non-empty and cover it all.
    std::vector<int> seen(blocks.size(), 0);
    for (std::size_t b : plan.order)
        ++seen[b];
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
              static_cast<std::ptrdiff_t>(blocks.size()));
    ASSERT_EQ(plan.bounds.front(), 0u);
    EXPECT_EQ(plan.bounds.back(), blocks.size());
    for (std::size_t c = 0; c < plan.chunks(); ++c)
        EXPECT_LT(plan.bounds[c], plan.bounds[c + 1]);

    std::size_t insts = 0;
    for (const BasicBlock &bb : blocks)
        insts += bb.size();
    const std::size_t target =
        std::max<std::size_t>(1, insts / (lanes * 8));
    std::size_t big = 0;
    if (lanes > 1)
        for (const BasicBlock &bb : blocks)
            big += bb.size() >= target;

    // Blocks at or above the target lead, one per chunk, largest
    // first, ties in program order...
    for (std::size_t i = 0; i < big; ++i) {
        EXPECT_EQ(plan.bounds[i + 1], i + 1);
        EXPECT_GE(blocks[plan.order[i]].size(), target);
        if (i > 0) {
            const BasicBlock &prev = blocks[plan.order[i - 1]];
            const BasicBlock &cur = blocks[plan.order[i]];
            EXPECT_TRUE(prev.size() > cur.size() ||
                        (prev.size() == cur.size() &&
                         plan.order[i - 1] < plan.order[i]));
        }
    }
    // ... and the rest keep program order (at one lane, all of them).
    for (std::size_t i = big + 1; i < plan.order.size(); ++i)
        EXPECT_LT(plan.order[i - 1], plan.order[i]);
}

TEST(DispatchPlan, ContractOnSkewedAndEvenPrograms)
{
    Program fpppp = cachedProgram("fpppp");
    Program even = testProgram();
    PartitionOptions w1000;
    w1000.window = 1000;
    for (const std::vector<BasicBlock> &blocks :
         {partitionBlocks(fpppp), partitionBlocks(fpppp, w1000),
          partitionBlocks(even)})
        for (unsigned lanes : {1u, 2u, 3u, 4u, 8u})
            expectPlanContract(blocks, lanes);
}

TEST(DispatchPlan, FppppWindowBlocksLandInTwelveChunks)
{
    // At window 1000, fpppp's 11750-instruction block becomes 12
    // window blocks; four lanes must be able to share them out.
    Program prog = cachedProgram("fpppp");
    const std::vector<BasicBlock> whole = partitionBlocks(prog);
    const auto big = std::ranges::max_element(
        whole, {}, [](const BasicBlock &bb) { return bb.size(); });
    ASSERT_EQ(big->size(), 11750u);

    PartitionOptions w1000;
    w1000.window = 1000;
    const std::vector<BasicBlock> blocks = partitionBlocks(prog, w1000);
    const DispatchPlan plan = planDispatch(blocks, 4);
    std::set<std::size_t> chunks;
    std::size_t window_blocks = 0;
    for (std::size_t c = 0; c < plan.chunks(); ++c)
        for (std::size_t i = plan.bounds[c]; i < plan.bounds[c + 1]; ++i)
            if (blocks[plan.order[i]].begin >= big->begin &&
                blocks[plan.order[i]].end <= big->end) {
                ++window_blocks;
                chunks.insert(c);
            }
    EXPECT_EQ(window_blocks, 12u);
    EXPECT_EQ(chunks.size(), 12u);
}

/** One phase's trace events in a run. */
struct PhaseTally
{
    std::uint64_t events = 0;
    std::uint64_t faults = 0; ///< their `fault.injected` counts
};

/**
 * Run the Table 3 tomcatv profile (112 blocks) traced, evaluated and
 * observed at @p threads, and require every phase's outputs to agree:
 * phase-tree entries == trace events == `lat.<phase>_ns` samples, and
 * the result's seconds == the tree's.  Returns the trace events by
 * phase.
 */
std::map<std::string, PhaseTally>
expectPhaseOutputsAgree(unsigned threads, PipelineOptions opts)
{
    Program prog = cachedProgram("tomcatv");
    std::ostringstream trace_out;
    obs::JsonlTraceSink sink(trace_out, /*zero_times=*/true);
    opts.threads = threads;
    opts.evaluate = true;
    opts.trace = &sink;

    obs::setEnabled(true);
    const ProgramResult r = runPipeline(prog, sparcstation2(), opts);
    obs::setEnabled(false);
    EXPECT_EQ(r.numBlocks, 112u);

    std::map<std::string, PhaseTally> events;
    std::istringstream in(trace_out.str());
    for (std::string line; std::getline(in, line);) {
        const obs::JsonValue ev = obs::parseJson(line);
        PhaseTally &t = events[ev.at("phase").str()];
        ++t.events;
        t.faults += static_cast<std::uint64_t>(
            ev.at("counters").numberOr("fault.injected", 0.0));
    }

    const std::pair<const char *, const char *> phases[] = {
        {"build", "lat.build_ns"}, {"heur", "lat.heur_ns"},
        {"sched", "lat.sched_ns"}, {"verify", "lat.verify_ns"},
        {"evaluate", nullptr},
    };
    for (const auto &[name, latency] : phases) {
        const obs::PhaseStats *node = r.phaseTree.child(name);
        const std::uint64_t entries = node ? node->entries : 0;
        EXPECT_EQ(events[name].events, entries)
            << name << " trace events vs tree, " << threads << " lanes";
        if (latency) {
            const obs::Histogram *h = r.histograms.find(latency);
            EXPECT_EQ(h ? h->count() : 0, entries)
                << latency << " vs tree, " << threads << " lanes";
        }
    }
    auto treeSeconds = [&r](const char *name) {
        const obs::PhaseStats *node = r.phaseTree.child(name);
        return node ? node->seconds : 0.0;
    };
    EXPECT_EQ(r.buildSeconds, treeSeconds("build")) << threads << " lanes";
    EXPECT_EQ(r.heurSeconds, treeSeconds("heur")) << threads << " lanes";
    EXPECT_EQ(r.schedSeconds, treeSeconds("sched")) << threads << " lanes";
    EXPECT_EQ(r.verifySeconds, treeSeconds("verify"))
        << threads << " lanes";
    return events;
}

TEST(ParallelPipeline, PhaseOutputsAgreeWhenBuildThrows)
{
    // 34 blocks throw inside build: each still has its build event,
    // which carries the injected fault, then a degrade event, and no
    // later phase.
    PipelineOptions opts;
    opts.builder = BuilderKind::N2Forward;
    opts.maxBlockInsts = 40;
    fault::configure(fault::parseSpec("seed=3,builder-throw=0.3"));
    for (unsigned threads : {1u, 4u}) {
        std::map<std::string, PhaseTally> events =
            expectPhaseOutputsAgree(threads, opts);
        EXPECT_EQ(events["build"].events, 112u) << threads << " lanes";
        EXPECT_EQ(events["build"].faults, 34u) << threads << " lanes";
        EXPECT_EQ(events["heur"].events, 78u) << threads << " lanes";
        EXPECT_EQ(events["degrade"].events, 34u) << threads << " lanes";
        EXPECT_EQ(events["degrade"].faults, 0u) << threads << " lanes";
    }
    fault::reset();
}

TEST(ParallelPipeline, PhaseOutputsAgreeWithVerifyOff)
{
    PipelineOptions opts;
    opts.verify = false;
    for (unsigned threads : {1u, 4u}) {
        std::map<std::string, PhaseTally> events =
            expectPhaseOutputsAgree(threads, opts);
        EXPECT_EQ(events["sched"].events, 112u) << threads << " lanes";
        EXPECT_EQ(events["verify"].events, 0u) << threads << " lanes";
    }
}

} // namespace
} // namespace sched91
