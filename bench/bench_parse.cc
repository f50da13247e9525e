/**
 * @file
 * The parse ruler: parseAssembly's cost per instruction on two
 * corpora, at one lane and at the hardware concurrency.
 *
 *  - serve-shaped: 2,048 program_gen texts of 1-8 blocks of at most
 *    64 instructions, the serve corpus's shape (the programs
 *    parse_alloc_test counts allocations over);
 *  - table3: the nine Table 3 profile texts.
 *
 * Each iteration parses the whole corpus with a lenient engine, and
 * `ns_per_inst` is parseAssembly's wall time per parsed instruction
 * (the Program's destruction is not timed).  Texts below
 * kLaneParseBytes parse on the calling thread at any lane count, so
 * the serve-shaped rows differ only by noise.  Not part of
 * tools/run_bench.sh's regression subset: it writes no BenchRecord,
 * and wall-clock time is compared only between runs on one host.
 *
 *   build/bench/bench_parse --benchmark_repetitions=5
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/program_gen.hh"
#include "ir/parser.hh"
#include "support/thread_pool.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

using namespace sched91;

namespace
{

const std::vector<std::string> &
serveShaped()
{
    static const std::vector<std::string> texts = [] {
        std::vector<std::string> out;
        for (int i = 0; i < 2048; ++i) {
            fuzz::GenParams p;
            p.seed = 801 + static_cast<std::uint64_t>(i);
            p.numBlocks = 1 + i % 8;
            p.maxBlockSize = 64;
            out.push_back(fuzz::generateSource(p));
        }
        return out;
    }();
    return texts;
}

const std::vector<std::string> &
table3()
{
    static const std::vector<std::string> texts = [] {
        std::vector<std::string> out;
        for (const WorkloadProfile &profile : allProfiles())
            out.push_back(generateProgram(profile).toString());
        return out;
    }();
    return texts;
}

/** Parse every text of @p corpus per iteration on range(0) lanes
 * (0: the hardware concurrency). */
void
BM_Parse(benchmark::State &state, const std::vector<std::string> &(*corpus)())
{
    const std::vector<std::string> &texts = corpus();
    const auto lanes = static_cast<unsigned>(state.range(0));
    state.counters["lanes"] =
        lanes != 0 ? lanes : ThreadPool::hardwareConcurrency();
    DiagnosticEngine::Options opts;
    opts.maxErrors = 0;
    std::size_t insts = 0;
    std::chrono::nanoseconds parsing{0};
    for (auto _ : state) {
        for (const std::string &text : texts) {
            DiagnosticEngine diags(opts);
            const auto start = std::chrono::steady_clock::now();
            Program prog = parseAssembly(text, diags, "<bench>", lanes);
            parsing += std::chrono::steady_clock::now() - start;
            insts += prog.size();
            benchmark::DoNotOptimize(prog);
        }
    }
    state.counters["ns_per_inst"] =
        static_cast<double>(parsing.count()) / static_cast<double>(insts);
}

BENCHMARK_CAPTURE(BM_Parse, serve_shaped, serveShaped)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_Parse, table3, table3)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace

BENCHMARK_MAIN();
