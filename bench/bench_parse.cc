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
 * the serve-shaped rows differ only by noise.
 *
 * The front-end rows (BM_ParsePartition) time parseAssembly plus
 * partitionBlocks, as runPipeline cuts the parsed program, per
 * instruction parsed: the serve-shaped texts at one lane, and the
 * Table 3 texts with fpppp also under windows 1000, 2000 and 4000
 * (batch-table3's twelve rows) at one lane and at the hardware
 * concurrency.  `partition_ns_per_inst` is the partition's share.
 *
 * Not part of tools/run_bench.sh's regression subset: it writes no
 * BenchRecord, and wall-clock time is compared only between runs on
 * one host.
 *
 *   build/bench/bench_parse --benchmark_repetitions=5
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/program_gen.hh"
#include "ir/basic_block.hh"
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

/** A text and the window its program is cut under. */
struct Row
{
    const std::string *text;
    int window;
};

const std::vector<Row> &
serveRows()
{
    static const std::vector<Row> rows = [] {
        std::vector<Row> out;
        for (const std::string &text : serveShaped())
            out.push_back({&text, 0});
        return out;
    }();
    return rows;
}

/** Each Table 3 text without a window, fpppp's also under windows
 * 1000, 2000 and 4000. */
const std::vector<Row> &
table3Rows()
{
    static const std::vector<Row> rows = [] {
        std::vector<Row> out;
        const std::vector<WorkloadProfile> profiles = allProfiles();
        for (std::size_t i = 0; i < profiles.size(); ++i) {
            out.push_back({&table3()[i], 0});
            if (profiles[i].name == "fpppp")
                for (int window : {1000, 2000, 4000})
                    out.push_back({&table3()[i], window});
        }
        return out;
    }();
    return rows;
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

/** Parse every row of @p corpus on range(0) lanes and cut its program
 * into blocks under the row's window, per iteration. */
void
BM_ParsePartition(benchmark::State &state,
                  const std::vector<Row> &(*corpus)())
{
    using Clock = std::chrono::steady_clock;
    const std::vector<Row> &rows = corpus();
    const auto lanes = static_cast<unsigned>(state.range(0));
    state.counters["lanes"] =
        lanes != 0 ? lanes : ThreadPool::hardwareConcurrency();
    DiagnosticEngine::Options opts;
    opts.maxErrors = 0;
    std::size_t insts = 0;
    Clock::duration total{0}, cutting{0};
    for (auto _ : state) {
        for (const Row &row : rows) {
            DiagnosticEngine diags(opts);
            PartitionOptions part;
            part.window = row.window;
            const auto start = Clock::now();
            Program prog = parseAssembly(*row.text, diags, "<bench>", lanes);
            const auto parsed = Clock::now();
            std::vector<BasicBlock> blocks = partitionBlocks(prog, part);
            const auto cut = Clock::now();
            total += cut - start;
            cutting += cut - parsed;
            insts += prog.size();
            benchmark::DoNotOptimize(blocks);
        }
    }
    const auto perInst = [insts](Clock::duration d) {
        return static_cast<double>(
                   std::chrono::nanoseconds(d).count()) /
               static_cast<double>(insts);
    };
    state.counters["ns_per_inst"] = perInst(total);
    state.counters["partition_ns_per_inst"] = perInst(cutting);
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
BENCHMARK_CAPTURE(BM_ParsePartition, serve_shaped, serveRows)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_ParsePartition, table3, table3Rows)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace

BENCHMARK_MAIN();
