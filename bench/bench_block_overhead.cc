/**
 * @file
 * The per-block ruler: what runPipeline costs per block and per
 * instruction as the blocks shrink.  The same 16,384 instructions (the
 * Table 3 profiles' instructions that do not end a block, in order)
 * are cut into blocks of k = 1, 2, 4, 8 and 32 by a label every k
 * instructions, then scheduled at one lane the way batch-table3
 * schedules: Krishnamurthy's algorithm, SymbolicExpr, observability
 * off, by table-fwd, table-bwd and n2-fwd (with the 400-instruction
 * fallback).  Each iteration times one runPipeline call.
 *
 *  - BM_Blocks/<builder>/k: `ns_per_block` and `ns_per_inst`;
 *  - BM_FixedCost/<builder>: each iteration runs the k = 1, 8 and 32
 *    programs, and fits their times per block t(k) to
 *    F + c k + p k (k - 1) / 2: a fixed cost per block F
 *    (`fixed_ns_per_block`), a cost per instruction c
 *    (`fit_ns_per_inst`) and one per pair of instructions p
 *    (`fit_ns_per_pair`).  The pair term is there for the n**2
 *    builders, whose blocks cost more per instruction the larger they
 *    are; fitted from k = 8 and 32 alone, a line F + c k reads a
 *    negative F for n2-fwd.  The table builders' p is about 0.
 *
 * Not part of tools/run_bench.sh's regression subset: it writes no
 * BenchRecord, and wall-clock time is compared only between runs on
 * one host.
 *
 *   build/bench/bench_block_overhead --benchmark_repetitions=5
 */

#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <string>

#include "core/pipeline.hh"
#include "ir/parser.hh"
#include "machine/presets.hh"
#include "obs/counters.hh"
#include "support/string_util.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

using namespace sched91;

namespace
{

constexpr std::size_t kInsts = 16384;
constexpr std::array<int, 5> kBlockSizes = {1, 2, 4, 8, 32};

/** The corpus's text with a label every @p k instructions. */
std::string
corpusText(int k)
{
    std::string text;
    std::size_t taken = 0;
    while (taken < kInsts) {
        for (const WorkloadProfile &profile : allProfiles()) {
            const Program prog = generateProgram(profile);
            for (const Instruction &inst : prog.insts()) {
                if (taken == kInsts)
                    break;
                if (inst.endsBlock())
                    continue;
                if (taken % static_cast<std::size_t>(k) == 0) {
                    text += numbered("L", taken);
                    text += ":\n";
                }
                text += "    ";
                text += inst.toString();
                text += '\n';
                ++taken;
            }
        }
    }
    return text;
}

/** The corpus cut into blocks of @p k, parsed once. */
Program &
corpus(int k)
{
    static std::array<Program, kBlockSizes.size()> programs;
    static std::array<bool, kBlockSizes.size()> made{};
    std::size_t i = 0;
    while (kBlockSizes[i] != k)
        ++i;
    if (!made[i]) {
        programs[i] = parseAssembly(corpusText(k));
        made[i] = true;
    }
    return programs[i];
}

PipelineOptions
options(BuilderKind builder)
{
    PipelineOptions opts;
    opts.builder = builder;
    opts.algorithm = AlgorithmKind::Krishnamurthy;
    opts.build.memPolicy = AliasPolicy::SymbolicExpr;
    opts.maxBlockInsts = 400;
    opts.threads = 1;
    return opts;
}

/** Seconds one runPipeline call over @p prog takes. */
double
timedRun(Program &prog, const MachineModel &machine,
         const PipelineOptions &opts, std::size_t &blocks)
{
    const auto start = std::chrono::steady_clock::now();
    ProgramResult r = runPipeline(prog, machine, opts);
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    blocks += r.numBlocks;
    benchmark::DoNotOptimize(r);
    return took.count();
}

void
BM_Blocks(benchmark::State &state, BuilderKind builder)
{
    obs::setEnabled(false);
    Program &prog = corpus(static_cast<int>(state.range(0)));
    const MachineModel machine = sparcstation2();
    const PipelineOptions opts = options(builder);
    std::size_t blocks = 0;
    std::size_t insts = 0;
    double seconds = 0.0;
    for (auto _ : state) {
        seconds += timedRun(prog, machine, opts, blocks);
        insts += prog.size();
    }
    state.counters["ns_per_block"] =
        seconds * 1e9 / static_cast<double>(blocks);
    state.counters["ns_per_inst"] =
        seconds * 1e9 / static_cast<double>(insts);
}

void
BM_FixedCost(benchmark::State &state, BuilderKind builder)
{
    obs::setEnabled(false);
    constexpr std::array<int, 3> kFit = {1, 8, 32};
    const MachineModel machine = sparcstation2();
    const PipelineOptions opts = options(builder);
    std::array<std::size_t, kFit.size()> blocks{};
    std::array<double, kFit.size()> seconds{};
    for (auto _ : state)
        for (std::size_t i = 0; i < kFit.size(); ++i)
            seconds[i] += timedRun(corpus(kFit[i]), machine, opts, blocks[i]);
    // d(k) = t(k) - t(1) = c (k - 1) + p k (k - 1) / 2, at k = 8, 32.
    std::array<double, kFit.size()> t{};
    for (std::size_t i = 0; i < kFit.size(); ++i)
        t[i] = seconds[i] * 1e9 / static_cast<double>(blocks[i]);
    const double d8 = t[1] - t[0];
    const double d32 = t[2] - t[0];
    const double per_pair = (d32 / 31.0 - d8 / 7.0) / 12.0;
    const double per_inst = d8 / 7.0 - 4.0 * per_pair;
    state.counters["fixed_ns_per_block"] = t[0] - per_inst;
    state.counters["fit_ns_per_inst"] = per_inst;
    state.counters["fit_ns_per_pair"] = per_pair;
}

void
blockSizes(benchmark::internal::Benchmark *b)
{
    for (int k : kBlockSizes)
        b->Arg(k);
    b->Unit(benchmark::kMillisecond)->UseRealTime();
}

BENCHMARK_CAPTURE(BM_Blocks, table_fwd, BuilderKind::TableForward)
    ->Apply(blockSizes);
BENCHMARK_CAPTURE(BM_Blocks, table_bwd, BuilderKind::TableBackward)
    ->Apply(blockSizes);
BENCHMARK_CAPTURE(BM_Blocks, n2_fwd, BuilderKind::N2Forward)
    ->Apply(blockSizes);
BENCHMARK_CAPTURE(BM_FixedCost, table_fwd, BuilderKind::TableForward)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_FixedCost, table_bwd, BuilderKind::TableBackward)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_FixedCost, n2_fwd, BuilderKind::N2Forward)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace

BENCHMARK_MAIN();
