/**
 * @file
 * Golden pin for per-phase counter attribution.  `sched91 profile
 * tomcatv` with an n**2 builder, a 40-instruction fallback window,
 * injected verifier rejections and outlier capture runs 112 blocks
 * with 8 builder fallbacks, 21 injected rejections and a heur ->
 * heur-bwd nesting.  Its --zero-times stats document and JSONL trace
 * therefore fix where every count lands: the phase-tree node, the
 * trace event (a fallback lands in the `build` event but not in the
 * `build` phase; an injected rejection in `degrade`), each Max gauge,
 * and the order names are written in.  Both must match the committed
 * golden byte for byte at one lane and at four, and so must the same
 * run's Chrome trace, which fixes the events' order and phases.
 *
 * Regenerate only for an intended attribution change:
 *
 *   sched91 profile tomcatv --builder n2-fwd --max-block-insts 40 \
 *       --fault-inject seed=3,verifier-reject=0.2 --capture-outliers 3 \
 *       --zero-times --threads 1 \
 *       --stats-json tests/golden/profile-tomcatv-attribution.json \
 *       --trace tests/golden/profile-tomcatv-attribution.jsonl
 *
 * and, for the Chrome trace, the same profile flags with
 * `--trace-format chrome --trace
 * tests/golden/profile-tomcatv-attribution.chrome.json`.
 *
 * Two more stats documents pin the phase trees, at one lane and at
 * four.  Schlansker's algorithm runs both static passes and computes
 * slack between them, so `profile` fixes the heur -> heur-fwd +
 * heur-bwd fold with `heur.slack_computes` in heur alone; and
 * `schedule`, which runs the same pipeline, fixes its tree (build,
 * heur -> heur-fwd + heur-bwd, sched, verify, evaluate) on a kernel:
 *
 *   sched91 profile linpack --algorithm schlansker --zero-times \
 *       --threads 1 \
 *       --stats-json tests/golden/profile-linpack-schlansker.json
 *   sched91 schedule --kernel livermore1 --algorithm schlansker \
 *       --zero-times --threads 1 \
 *       --stats-json tests/golden/schedule-livermore1-schlansker.json
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include <unistd.h>

namespace
{

const char kProfile[] =
    " profile tomcatv --builder n2-fwd --max-block-insts 40"
    " --fault-inject seed=3,verifier-reject=0.2 --capture-outliers 3"
    " --zero-times";

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** Fail with the first differing bytes when @p got is not @p golden's
 * content. */
void
expectGolden(const std::string &got, const char *golden)
{
    const std::string path =
        std::string(SCHED91_SOURCE_DIR) + "/tests/golden/" + golden;
    const std::string want = slurp(path);
    ASSERT_FALSE(want.empty()) << "missing golden " << path;
    if (got == want)
        return;
    const std::size_t at = static_cast<std::size_t>(
        std::mismatch(got.begin(), got.end(), want.begin(), want.end())
            .first -
        got.begin());
    const std::size_t from = at > 40 ? at - 40 : 0;
    ADD_FAILURE() << "output differs from " << path << " at byte " << at
                  << "\n  got:  ..." << got.substr(from, 120)
                  << "\n  want: ..." << want.substr(from, 120);
}

void
expectGoldenAt(unsigned threads)
{
    const std::string base = "/tmp/sched91-golden-" +
                             std::to_string(::getpid()) + "-" +
                             std::to_string(threads);
    const std::string stats = base + ".json";
    const std::string trace = base + ".jsonl";
    const std::string cmd = std::string(SCHED91_CLI_PATH) + kProfile +
                            " --threads " + std::to_string(threads) +
                            " --stats-json " + stats + " --trace " +
                            trace + " > /dev/null 2>&1";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
    expectGolden(slurp(stats), "profile-tomcatv-attribution.json");
    expectGolden(slurp(trace), "profile-tomcatv-attribution.jsonl");
    std::remove(stats.c_str());
    std::remove(trace.c_str());
}

/** The stats document `sched91 <args>` writes. */
std::string
statsOf(const std::string &args)
{
    const std::string stats = "/tmp/sched91-golden-" +
                              std::to_string(::getpid()) + "-stats.json";
    const std::string cmd = std::string(SCHED91_CLI_PATH) + " " + args +
                            " --stats-json " + stats + " > /dev/null 2>&1";
    EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
    std::string out = slurp(stats);
    std::remove(stats.c_str());
    return out;
}

TEST(AttributionGolden, OneLaneMatchesByteForByte) { expectGoldenAt(1); }

TEST(AttributionGolden, FourLanesMatchByteForByte) { expectGoldenAt(4); }

TEST(AttributionGolden, ChromeTraceMatchesAtOneAndFourLanes)
{
    for (unsigned threads : {1u, 4u}) {
        const std::string trace = "/tmp/sched91-golden-" +
                                  std::to_string(::getpid()) + "-" +
                                  std::to_string(threads) + ".chrome.json";
        const std::string cmd = std::string(SCHED91_CLI_PATH) + kProfile +
                                " --threads " + std::to_string(threads) +
                                " --trace-format chrome --trace " + trace +
                                " > /dev/null 2>&1";
        ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
        expectGolden(slurp(trace),
                     "profile-tomcatv-attribution.chrome.json");
        std::remove(trace.c_str());
    }
}

TEST(AttributionGolden, HeurSubPhasesFoldAtOneAndFourLanes)
{
    for (unsigned threads : {1u, 4u})
        expectGolden(statsOf("profile linpack --algorithm schlansker"
                             " --zero-times --threads " +
                             std::to_string(threads)),
                     "profile-linpack-schlansker.json");
}

TEST(AttributionGolden, ScheduleCommandTreeMatches)
{
    for (unsigned threads : {1u, 4u})
        expectGolden(statsOf("schedule --kernel livermore1"
                             " --algorithm schlansker --zero-times"
                             " --threads " +
                             std::to_string(threads)),
                     "schedule-livermore1-schlansker.json");
}

} // namespace
