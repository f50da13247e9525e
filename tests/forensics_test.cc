/**
 * @file
 * Forensics-layer tests (docs/FORENSICS.md): the leveled logger's
 * threshold/sink contract and whole lines under concurrent writers,
 * the flight recorder's ring and merged-dump determinism, and the
 * pipeline-level guarantees — degraded-block notices, outlier capture
 * (the top K by score desc, block asc) and decision traces
 * byte-identical at every thread count, with the traced schedule
 * unchanged.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hh"
#include "ir/parser.hh"
#include "machine/presets.hh"
#include "obs/counters.hh"
#include "obs/emitter.hh"
#include "obs/flight_recorder.hh"
#include "obs/json_parse.hh"
#include "obs/outliers.hh"
#include "support/fault_inject.hh"
#include "support/log.hh"
#include "support/string_util.hh"
#include "workload/generator.hh"
#include "workload/kernels.hh"

namespace sched91
{
namespace
{

namespace flight = obs::flight;

// ---------------------------------------------------------------------
// Leveled logger
// ---------------------------------------------------------------------

/** Restores threshold + sink and leaves the layer quiet. */
class LogStateGuard
{
  public:
    LogStateGuard() : saved_(log::threshold()) {}
    ~LogStateGuard()
    {
        log::setThreshold(saved_);
        log::setSink(nullptr);
    }

  private:
    log::Level saved_;
};

/** Run @p body with the sink redirected to a temp file; returns what
 * it wrote. */
template <typename Fn>
std::string
captureSink(Fn &&body)
{
    std::FILE *f = std::tmpfile();
    EXPECT_NE(f, nullptr);
    log::setSink(f);
    body();
    log::setSink(nullptr);
    std::fflush(f);
    std::rewind(f);
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

TEST(Log, LevelNamesAndParse)
{
    EXPECT_EQ(log::levelName(log::Level::Error), "error");
    EXPECT_EQ(log::levelName(log::Level::Debug), "debug");
    EXPECT_EQ(log::parseLevel("warn"), log::Level::Warn);
    EXPECT_EQ(log::parseLevel("warning"), log::Level::Warn);
    EXPECT_EQ(log::parseLevel("info"), log::Level::Info);
    EXPECT_THROW(log::parseLevel("loud"), FatalError);
}

TEST(Log, ThresholdGatesDirectWrites)
{
    LogStateGuard guard;
    log::setThreshold(log::Level::Warn);
    std::string out = captureSink([] {
        log::error("e1");
        log::warn("w1");
        log::info("i1");  // above threshold: dropped
        log::debug("d1"); // above threshold: dropped
    });
    EXPECT_EQ(out, "e1\nw1\n");

    log::setThreshold(log::Level::Debug);
    out = captureSink([] {
        log::info("i2");
        log::debug("d2");
    });
    EXPECT_EQ(out, "i2\nd2\n");
}

TEST(Log, ConcurrentLinesNeverSplice)
{
    // Two threads write distinct lines at once; each line must come
    // back whole, however the two streams interleave.  The sink is
    // unbuffered, as stderr is: each stdio call is then its own
    // write(2), and a line sent in two unlocked calls (text, then
    // newline) splices in nearly every run of this length.
    LogStateGuard guard;
    log::setThreshold(log::Level::Warn);
    constexpr int kLines = 20000;
    std::atomic<int> started{0};
    const auto writer = [&started](char lane) {
        started.fetch_add(1);
        while (started.load() < 2) {
        }
        for (int i = 0; i < kLines; ++i)
            log::warn("lane ", lane, " line ", i, " of the splice test");
    };
    const std::string out = captureSink([&] {
        std::setvbuf(log::sink(), nullptr, _IONBF, 0);
        std::thread a(writer, 'a');
        std::thread b(writer, 'b');
        a.join();
        b.join();
    });

    std::set<std::string> want;
    for (char lane : {'a', 'b'})
        for (int i = 0; i < kLines; ++i) {
            std::ostringstream line;
            line << "lane " << lane << " line " << i
                 << " of the splice test";
            want.insert(line.str());
        }
    std::set<std::string> got;
    std::size_t lines = 0, spliced = 0;
    std::istringstream in(out);
    for (std::string line; std::getline(in, line); ++lines) {
        spliced += want.count(line) == 0;
        got.insert(line);
    }
    EXPECT_EQ(spliced, 0u);
    EXPECT_EQ(lines, want.size());
    EXPECT_TRUE(got == want) << "every line written comes back";
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

/** Enables the recorder for the test body, then disables and resets. */
class FlightGuard
{
  public:
    FlightGuard()
    {
        flight::setEnabled(true);
        flight::beginRun();
    }
    ~FlightGuard()
    {
        flight::setEnabled(false);
        flight::beginRun();
    }
};

TEST(FlightRecorder, RingKeepsNewestEvents)
{
    flight::Recorder rec;
    rec.reset();
    rec.setBlock(7);
    for (int i = 0; i < 300; ++i)
        rec.record(flight::EventKind::PhaseEnd, "t", "",
                   static_cast<std::uint64_t>(i));
    EXPECT_EQ(rec.total(), 300u);
    ASSERT_EQ(rec.kept(), flight::kRingCapacity);
    // Oldest kept is event #44 (300 - 256), newest is #299.
    EXPECT_EQ(rec.keptAt(0).a, 44u);
    EXPECT_EQ(rec.keptAt(0).seq, 44u);
    EXPECT_EQ(rec.keptAt(flight::kRingCapacity - 1).a, 299u);
    EXPECT_EQ(rec.keptAt(0).blockKey, 8u) << "block 7 keys as 8";
}

TEST(FlightRecorder, TagAndDetailAreSanitizedForRawEmission)
{
    flight::Recorder rec;
    rec.reset();
    rec.record(flight::EventKind::Diag, "a\"b\\c",
               std::string("x\"y\\z\x01\n") + "w");
    ASSERT_EQ(rec.kept(), 1u);
    const flight::Event &ev = rec.keptAt(0);
    // The dump emits these inside JSON strings with no escaping pass,
    // so quotes, backslashes, and control bytes must already be gone.
    for (const char *p = ev.tag; *p; ++p)
        EXPECT_TRUE(*p >= 0x20 && *p != '"' && *p != '\\')
            << "tag byte " << int(*p);
    for (const char *p = ev.detail; *p; ++p)
        EXPECT_TRUE(*p >= 0x20 && *p != '"' && *p != '\\')
            << "detail byte " << int(*p);
    EXPECT_EQ(std::string(ev.tag), "a_b_c");
}

TEST(FlightRecorder, DisabledRecordsNothing)
{
    flight::setEnabled(false);
    flight::beginRun();
    flight::Recorder *rec = flight::claim();
    ASSERT_NE(rec, nullptr);
    flight::ScopedRecorder scope(rec);
    flight::record(flight::EventKind::RunBegin, "run");
    EXPECT_EQ(rec->total(), 0u);
    flight::beginRun();
}

/** Record the same logical run split across @p lanes recorders (the
 * main recorder keeps run begin/end; blocks round-robin over lanes,
 * each lane's blocks ascending — the pipeline's invariant). */
std::string
dumpSyntheticRun(int lanes, int blocks, int eventsPerBlock)
{
    flight::beginRun();
    flight::Recorder *main_rec = flight::claim();
    std::vector<flight::Recorder *> lane_recs;
    for (int l = 0; l < lanes; ++l)
        lane_recs.push_back(flight::claim());

    {
        flight::ScopedRecorder scope(main_rec);
        flight::record(flight::EventKind::RunBegin, "run", "",
                       static_cast<std::uint64_t>(blocks));
    }
    for (int l = 0; l < lanes; ++l) {
        flight::ScopedRecorder scope(lane_recs[static_cast<std::size_t>(l)]);
        for (int b = l; b < blocks; b += lanes) {
            flight::setBlock(static_cast<std::uint64_t>(b));
            for (int e = 0; e < eventsPerBlock; ++e)
                flight::record(flight::EventKind::PhaseEnd, "phase",
                               "detail", static_cast<std::uint64_t>(b),
                               static_cast<std::uint64_t>(e));
        }
    }
    {
        flight::ScopedRecorder scope(main_rec);
        flight::setPostRun();
        flight::record(flight::EventKind::RunEnd, "run");
    }
    flight::setGauge(flight::Gauge::BlocksTotal,
                     static_cast<std::uint64_t>(blocks));
    flight::setGauge(flight::Gauge::BlocksDone,
                     static_cast<std::uint64_t>(blocks));

    flight::DumpInfo info;
    info.crashed = true;
    info.reason = "test";
    info.zeroTimes = true;
    return flight::dumpJson(info);
}

TEST(FlightRecorder, DumpIsLaneCountInvariant)
{
    FlightGuard guard;
    // 10 blocks x 4 events: everything fits in one ring.
    std::string one = dumpSyntheticRun(1, 10, 4);
    std::string four = dumpSyntheticRun(4, 10, 4);
    EXPECT_EQ(one, four);

    // 20 blocks x 40 events = 800 > kRingCapacity: the single ring
    // evicts, the split rings keep everything; the merged newest-256
    // tail must still be identical (an evicted event can never be in
    // the global tail).
    std::string one_full = dumpSyntheticRun(1, 20, 40);
    std::string three_full = dumpSyntheticRun(3, 20, 40);
    EXPECT_EQ(one_full, three_full);
    EXPECT_NE(one, one_full);
}

TEST(FlightRecorder, DumpParsesAndCarriesGaugesAndTail)
{
    FlightGuard guard;
    std::string doc = dumpSyntheticRun(2, 20, 40);

    obs::JsonValue v = obs::parseJson(doc);
    EXPECT_EQ(v.numberOr("sched91_flight", 0), 1);
    EXPECT_TRUE(v.at("crashed").boolean());
    EXPECT_EQ(v.at("reason").str(), "test");
    // 800 block events + run begin/end were recorded in total...
    EXPECT_EQ(v.numberOr("events_total", 0), 802);
    // ...but the dump tail is capped at one ring's worth.
    const obs::JsonValue::Array &events = v.at("events").array();
    ASSERT_EQ(events.size(), flight::kRingCapacity);
    // The tail is (block, seq)-sorted and ends with the post-run
    // RunEnd event (block -2 in the document encoding).
    double prev_block = -3, prev_seq = -1;
    for (const obs::JsonValue &ev : events) {
        double blk = ev.numberOr("block", -99);
        double seq = ev.numberOr("seq", -1);
        if (blk == prev_block) {
            EXPECT_GT(seq, prev_seq);
        } else if (blk != -2) { // -2 (post-run) sorts after every block
            EXPECT_GT(blk, prev_block);
        }
        prev_block = blk;
        prev_seq = seq;
        EXPECT_EQ(ev.numberOr("ns", -1), 0) << "zeroTimes zeroes ns";
    }
    EXPECT_EQ(events.back().at("kind").str(), "run_end");
    EXPECT_EQ(v.at("memory").numberOr("blocks_total", 0), 20);
    EXPECT_EQ(v.at("memory").numberOr("blocks_done", 0), 20);
}

TEST(FlightRecorder, DumpTruncatesWholeEventsOnSmallBuffers)
{
    FlightGuard guard;
    std::string full = dumpSyntheticRun(1, 4, 4);
    // Any budget must still yield a NUL-terminated prefix no longer
    // than the cap; generous budgets yield the full document.
    char buf[256];
    flight::DumpInfo info;
    info.crashed = true;
    info.reason = "test";
    info.zeroTimes = true;
    std::size_t n = flight::dumpJsonTo(buf, sizeof(buf), info);
    EXPECT_LE(n, sizeof(buf));
    EXPECT_EQ(std::strlen(buf), n == sizeof(buf) ? n - 1 : n);
}

// ---------------------------------------------------------------------
// Pipeline integration: notices, capture and explain determinism
// ---------------------------------------------------------------------

/** Enables counting for the body and restores the disabled default. */
class ObsGuard
{
  public:
    ObsGuard() { obs::setEnabled(true); }
    ~ObsGuard() { obs::setEnabled(false); }
};

/** Injects @p spec's faults for the body, then turns injection off. */
class FaultGuard
{
  public:
    explicit FaultGuard(const char *spec)
    {
        fault::configure(fault::parseSpec(spec));
    }
    ~FaultGuard() { fault::reset(); }
};

TEST(PipelineForensics, DegradedBlockNoticesAreBlockOrderedAtAnyLaneCount)
{
    // Blocks that degrade on any lane get their notice after the
    // join: one per degraded block, in block order, the same bytes at
    // 1 and 4 lanes.
    LogStateGuard log_guard;
    log::setThreshold(log::Level::Info);
    FaultGuard faults("seed=3,verifier-reject=0.2");
    const auto run = [](unsigned threads, ProgramResult &r) {
        return captureSink([&] {
            Program prog = cachedProgram("linpack");
            PipelineOptions opts;
            opts.threads = threads;
            r = runPipeline(prog, sparcstation2(), opts);
        });
    };
    ProgramResult one, four;
    const std::string notices = run(1, one);
    EXPECT_EQ(run(4, four), notices);
    EXPECT_EQ(four.blocksDegraded, one.blocksDegraded);
    EXPECT_GT(one.blocksDegraded, 1u);

    std::ostringstream want;
    std::vector<std::size_t> degraded;
    for (const ProgramResult::BlockIssue &issue : one.blockIssues) {
        if (!issue.degraded)
            continue;
        degraded.push_back(issue.block);
        want << "block " << issue.block << " degraded at " << issue.stage
             << ": " << issue.reason << '\n';
        EXPECT_EQ(issue.stage, "verify");
    }
    EXPECT_EQ(degraded.size(), one.blocksDegraded);
    EXPECT_EQ(std::adjacent_find(degraded.begin(), degraded.end(),
                                 std::greater_equal<>()),
              degraded.end())
        << "strictly ascending blocks";
    EXPECT_EQ(notices, want.str());
}

ProgramResult
runCapture(Program prog, unsigned threads, int k)
{
    PipelineOptions opts;
    opts.threads = threads;
    opts.captureOutliers = k;
    return runPipeline(prog, sparcstation2(), opts);
}

/** @p kernel's source with its loop label @p from renamed to @p label. */
std::string
relabel(const std::string &kernel, const std::string &from,
        const std::string &label)
{
    std::string text = kernelSource(kernel);
    for (std::size_t at = 0;
         (at = text.find(from, at)) != std::string::npos;
         at += label.size())
        text.replace(at, from.size(), label);
    return text;
}

/** A program whose blocks tie: copies of two kernels under distinct
 * labels, so each copy's blocks repeat the first copy's. */
Program
tiedProgram()
{
    std::string text;
    for (int i = 0; i < 8; ++i) {
        const std::string label = numbered("copy", i);
        text += i % 3 == 1 ? relabel("livermore1", "lloop1", label)
                           : relabel("daxpy", "daxpy", label);
    }
    return parseAssembly(text);
}

TEST(PipelineForensics, OutlierCaptureIsThreadCountInvariant)
{
    ObsGuard guard;
    ProgramResult one = runCapture(cachedProgram("linpack"), 1, 4);
    ProgramResult four = runCapture(cachedProgram("linpack"), 4, 4);

    ASSERT_EQ(one.outliers.size(), 4u);
    ASSERT_EQ(four.outliers.size(), one.outliers.size());

    obs::RunMeta meta;
    meta.command = "test";
    obs::EmitOptions emit;
    emit.zeroTimes = true; // wall-clock seconds may differ; bytes must not
    for (std::size_t i = 0; i < one.outliers.size(); ++i) {
        EXPECT_EQ(obs::outlierBundleJson(one.outliers[i], meta, emit),
                  obs::outlierBundleJson(four.outliers[i], meta, emit));
    }
    EXPECT_EQ(obs::renderOutliers(one.outliers),
              obs::renderOutliers(four.outliers));

    // Captured records carry enough forensics to be useful.
    for (const obs::OutlierRecord &r : one.outliers) {
        EXPECT_GT(r.score, 0u);
        EXPECT_GT(r.size, 0u);
        EXPECT_FALSE(r.source.empty());
        EXPECT_FALSE(r.counters.empty());
    }

    // Brute force on a program whose blocks tie: a capture of every
    // block gives every block's score, and a K = 4 capture keeps
    // exactly the first four of them by (score desc, block asc).
    const Program ties = tiedProgram();
    const std::size_t blocks = runCapture(ties, 1, 0).numBlocks;
    ASSERT_GT(blocks, 8u);
    const ProgramResult every =
        runCapture(ties, 1, static_cast<int>(blocks));
    ASSERT_EQ(every.outliers.size(), blocks);
    std::vector<std::size_t> ranked(blocks);
    std::iota(ranked.begin(), ranked.end(), std::size_t{0});
    for (std::size_t b = 0; b < blocks; ++b)
        ASSERT_EQ(every.outliers[b].block, b) << "records in block order";
    std::stable_sort(ranked.begin(), ranked.end(),
                     [&](std::size_t a, std::size_t b) {
                         return every.outliers[a].score >
                                every.outliers[b].score;
                     });
    EXPECT_EQ(every.outliers[ranked[3]].score,
              every.outliers[ranked[4]].score)
        << "the cut falls inside a tie";
    std::vector<std::size_t> want(ranked.begin(), ranked.begin() + 4);
    std::sort(want.begin(), want.end());
    for (unsigned threads : {1u, 4u}) {
        const ProgramResult top = runCapture(ties, threads, 4);
        ASSERT_EQ(top.outliers.size(), 4u) << threads << " lanes";
        for (std::size_t i = 0; i < 4; ++i) {
            EXPECT_EQ(top.outliers[i].block, want[i]) << threads << " lanes";
            EXPECT_EQ(top.outliers[i].score,
                      every.outliers[want[i]].score)
                << threads << " lanes";
        }
    }
}

TEST(PipelineForensics, DecisionTraceMatchesScheduleAndIsDeterministic)
{
    Program prog = kernelProgram("daxpy");
    PipelineOptions plain;
    plain.evaluate = true;
    ProgramResult base = runPipeline(prog, sparcstation2(), plain);

    PipelineOptions explain = plain;
    explain.explainBlock = 0;
    ProgramResult traced = runPipeline(prog, sparcstation2(), explain);
    ASSERT_FALSE(traced.decisions.empty());
    const DecisionTrace &trace = traced.decisions;

    // Tracing must not change what gets scheduled.
    EXPECT_EQ(traced.cyclesScheduled, base.cyclesScheduled);

    EXPECT_EQ(trace.block, 0);
    EXPECT_FALSE(trace.algorithm.empty());
    ASSERT_FALSE(trace.insts.empty());
    const DecisionStats &stats = trace.stats;
    ASSERT_EQ(stats.log.size(),
              static_cast<std::size_t>(stats.totalPicks));
    EXPECT_EQ(trace.insts.size(), stats.log.size())
        << "one pick per instruction in the block";
    const std::int32_t num_ranks =
        static_cast<std::int32_t>(trace.rankNames.size());
    for (std::size_t i = 0; i < stats.log.size(); ++i) {
        const DecisionRecord &r = stats.log[i];
        EXPECT_EQ(r.pick, static_cast<std::uint32_t>(i));
        EXPECT_GE(r.readySize, 1u);
        EXPECT_LT(r.node, trace.insts.size());
        EXPECT_GE(r.decidedRank, DecisionStats::kDecidedTrivial);
        EXPECT_LT(r.decidedRank, num_ranks);
        if (r.readySize == 1) {
            EXPECT_EQ(r.decidedRank, DecisionStats::kDecidedTrivial);
        }
    }

    // Same trace at another thread count, rendered byte-identically.
    explain.threads = 4;
    ProgramResult threaded = runPipeline(prog, sparcstation2(), explain);
    ASSERT_FALSE(threaded.decisions.empty());
    EXPECT_EQ(obs::renderDecisionTrace(threaded.decisions),
              obs::renderDecisionTrace(trace));
}

TEST(PipelineForensics, ExplainBlockOutOfRangeYieldsEmptyTrace)
{
    Program prog = kernelProgram("daxpy");
    PipelineOptions opts;
    opts.explainBlock = 9999;
    ProgramResult r = runPipeline(prog, sparcstation2(), opts);
    EXPECT_TRUE(r.decisions.empty());
}

} // namespace
} // namespace sched91
