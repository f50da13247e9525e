#include "fuzz/differential.hh"

#include <array>
#include <chrono>
#include <sstream>
#include <vector>

#include "heuristics/register_pressure.hh"
#include "heuristics/static_passes.hh"
#include "ir/basic_block.hh"
#include "ir/parser.hh"
#include "obs/events.hh"
#include "sched/list_scheduler.hh"
#include "sched/registry.hh"
#include "sched/verifier.hh"

namespace sched91::fuzz
{

namespace
{

constexpr std::array<BuilderKind, 3> kBuilders = {
    BuilderKind::N2Forward,
    BuilderKind::TableForward,
    BuilderKind::TableBackward,
};

/**
 * All-pairs longest accumulated delay over the dependence relation:
 * dist[i][j] is the maximum sum of arc delays over paths i -> j, or
 * -1 when j is unreachable from i.  Arcs always point forward in
 * program order, so one ascending sweep per source is a topological
 * DP.  This is the builder-invariant: raw arc sets differ (transitive
 * arcs), the closure with delays must not.
 */
std::vector<std::vector<int>>
closureDelays(const Dag &dag)
{
    const std::uint32_t n = dag.size();
    std::vector<std::vector<int>> dist(n, std::vector<int>(n, -1));
    for (std::uint32_t i = 0; i < n; ++i) {
        dist[i][i] = 0;
        for (std::uint32_t j = i + 1; j < n; ++j) {
            int best = -1;
            std::span<const std::uint32_t> from = dag.predFrom(j);
            std::span<const std::int32_t> delay = dag.predDelay(j);
            for (std::size_t k = 0; k < from.size(); ++k) {
                if (from[k] < i || dist[i][from[k]] < 0)
                    continue;
                best = std::max(best, dist[i][from[k]] + delay[k]);
            }
            dist[i][j] = best;
        }
        dist[i][i] = -1; // self-reachability is not part of the relation
    }
    return dist;
}

/** Transitive reduction derived from a closure: the (i,j) pairs that
 * are connected but not through any intermediate node. */
std::vector<std::pair<std::uint32_t, std::uint32_t>>
transitiveReduction(const std::vector<std::vector<int>> &dist)
{
    const std::size_t n = dist.size();
    std::vector<std::pair<std::uint32_t, std::uint32_t>> arcs;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            if (dist[i][j] < 0)
                continue;
            bool indirect = false;
            for (std::size_t k = i + 1; k < j && !indirect; ++k)
                indirect = dist[i][k] >= 0 && dist[k][j] >= 0;
            if (!indirect)
                arcs.emplace_back(static_cast<std::uint32_t>(i),
                                  static_cast<std::uint32_t>(j));
        }
    }
    return arcs;
}

/** The path-class static heuristics that must be builder-invariant.
 * (The 'a'-class sums over arc multisets — sumDelaysToChildren and
 * friends — legitimately differ when a builder keeps transitive
 * arcs, so they are deliberately absent.) */
struct HeurRow
{
    int earliestStart, maxPathFromRoot, maxDelayFromRoot;
    int latestStart, maxPathToLeaf, maxDelayToLeaf;
    int slack, numDescendants;
    long long sumExecOfDescendants;

    bool
    operator==(const HeurRow &o) const
    {
        return earliestStart == o.earliestStart &&
               maxPathFromRoot == o.maxPathFromRoot &&
               maxDelayFromRoot == o.maxDelayFromRoot &&
               latestStart == o.latestStart &&
               maxPathToLeaf == o.maxPathToLeaf &&
               maxDelayToLeaf == o.maxDelayToLeaf && slack == o.slack &&
               numDescendants == o.numDescendants &&
               sumExecOfDescendants == o.sumExecOfDescendants;
    }
};

std::vector<HeurRow>
snapshotHeuristics(const Dag &dag)
{
    std::vector<HeurRow> rows;
    rows.reserve(dag.size());
    const NodeAnnotations &a = dag.ann();
    for (std::uint32_t i = 0; i < dag.size(); ++i) {
        rows.push_back(HeurRow{a.earliestStart[i], a.maxPathFromRoot[i],
                               a.maxDelayFromRoot[i], a.latestStart[i],
                               a.maxPathToLeaf[i], a.maxDelayToLeaf[i],
                               a.slack[i], a.numDescendants[i],
                               a.sumExecOfDescendants[i]});
    }
    return rows;
}

std::string
builderLabel(BuilderKind kind)
{
    return std::string(makeBuilder(kind)->name());
}

/** Format "block B, builder X vs Y: what [node N]". */
std::string
mismatch(std::size_t block, BuilderKind a, BuilderKind b,
         const std::string &what)
{
    std::ostringstream os;
    os << "block " << block << ": " << builderLabel(a) << " vs "
       << builderLabel(b) << ": " << what;
    return os.str();
}

} // namespace

OracleReport
checkProgram(const Program &prog, const MachineModel &machine,
             const OracleOptions &opts)
{
    OracleReport report;
    obs::ev::fuzzOracleRuns.inc();
    auto fail = [&](std::string why) {
        report.ok = false;
        report.failure = std::move(why);
        obs::ev::fuzzOracleFailures.inc();
    };

    try {
        auto blocks = partitionBlocks(prog);
        for (std::size_t b = 0; b < blocks.size() && report.ok; ++b) {
            BlockView block(prog, blocks[b]);
            if (block.size() == 0)
                continue;

            BuildOptions bopts;
            bopts.memPolicy = opts.memPolicy;
            std::vector<Dag> dags;
            dags.reserve(kBuilders.size());
            for (BuilderKind kind : kBuilders)
                dags.push_back(
                    makeBuilder(kind)->build(block, machine, bopts));

            // Property 1: identical closure (longest delays), hence
            // identical transitive reduction.
            auto dist0 = closureDelays(dags[0]);
            auto reduced0 = transitiveReduction(dist0);
            for (std::size_t k = 1; k < dags.size(); ++k) {
                auto dist = closureDelays(dags[k]);
                if (dist != dist0) {
                    // Locate the first differing pair for the report.
                    std::string what = "closure delay mismatch";
                    for (std::size_t i = 0; i < dist.size(); ++i)
                        for (std::size_t j = 0; j < dist.size(); ++j)
                            if (dist[i][j] != dist0[i][j]) {
                                std::ostringstream os;
                                os << "closure delay (" << i << " -> "
                                   << j << "): " << dist0[i][j]
                                   << " vs " << dist[i][j];
                                what = os.str();
                                i = j = dist.size();
                            }
                    fail(mismatch(b, kBuilders[0], kBuilders[k], what));
                    break;
                }
                if (transitiveReduction(dist) != reduced0) {
                    fail(mismatch(b, kBuilders[0], kBuilders[k],
                                  "transitive reduction mismatch"));
                    break;
                }
            }
            if (!report.ok)
                break;

            // Property 1b: alias-policy refinement.  Along the chain
            // SerializeAll -> BaseOffset -> StorageClassed each step
            // only removes memory dependences, so the coarser
            // policy's closure must contain the finer one's: every
            // pair the fine policy connects, the coarse policy
            // connects with at least as large an accumulated delay.
            if (opts.checkAliasRefinement) {
                static constexpr AliasPolicy kChain[] = {
                    AliasPolicy::SerializeAll,
                    AliasPolicy::BaseOffset,
                    AliasPolicy::StorageClassed,
                };
                std::vector<std::vector<std::vector<int>>> closures;
                for (AliasPolicy policy : kChain) {
                    BuildOptions copts;
                    copts.memPolicy = policy;
                    Dag d = makeBuilder(BuilderKind::TableForward)
                                ->build(block, machine, copts);
                    closures.push_back(closureDelays(d));
                }
                for (std::size_t k = 1;
                     k < std::size(kChain) && report.ok; ++k) {
                    const auto &coarse = closures[k - 1];
                    const auto &fine = closures[k];
                    for (std::size_t i = 0;
                         i < fine.size() && report.ok; ++i) {
                        for (std::size_t j = 0; j < fine.size(); ++j) {
                            if (fine[i][j] < 0 ||
                                coarse[i][j] >= fine[i][j])
                                continue;
                            std::ostringstream os;
                            os << "block " << b
                               << ": alias refinement violated, "
                               << aliasPolicyName(kChain[k - 1])
                               << " closure does not contain "
                               << aliasPolicyName(kChain[k]) << ": ("
                               << i << " -> " << j << ") delay "
                               << coarse[i][j] << " < " << fine[i][j];
                            fail(os.str());
                            break;
                        }
                    }
                }
            }
            if (!report.ok)
                break;

            // Property 2: path-class heuristics agree across builders
            // and across both pass implementations.
            if (opts.checkHeuristics) {
                for (Dag &dag : dags) {
                    runAllStaticPasses(dag, PassImpl::ReverseWalk, true);
                    computeRegisterPressure(dag);
                }
                auto rows0 = snapshotHeuristics(dags[0]);
                for (std::size_t k = 1; k < dags.size(); ++k) {
                    if (snapshotHeuristics(dags[k]) != rows0) {
                        fail(mismatch(b, kBuilders[0], kBuilders[k],
                                      "static heuristic mismatch"));
                        break;
                    }
                }
                if (report.ok) {
                    runAllStaticPasses(dags[0], PassImpl::LevelLists,
                                       true);
                    if (snapshotHeuristics(dags[0]) != rows0)
                        fail(mismatch(
                            b, kBuilders[0], kBuilders[0],
                            "ReverseWalk vs LevelLists heuristic "
                            "mismatch"));
                }
            } else {
                // Schedulers still need their inputs annotated.
                for (Dag &dag : dags) {
                    runAllStaticPasses(dag, PassImpl::ReverseWalk, true);
                    computeRegisterPressure(dag);
                }
            }
            if (!report.ok)
                break;

            // Property 3: every algorithm x builder schedule passes
            // the independent verifier.
            if (opts.checkSchedulers) {
                for (AlgorithmKind algo : allAlgorithms()) {
                    AlgorithmSpec spec = algorithmSpec(algo);
                    ListScheduler scheduler(spec.config, machine);
                    for (std::size_t k = 0; k < dags.size(); ++k) {
                        Schedule sched = scheduler.run(dags[k]);
                        ++report.schedulesChecked;
                        VerifyResult v =
                            verifySchedule(dags[k], sched, machine);
                        if (!v.ok()) {
                            std::ostringstream os;
                            os << "block " << b << ": "
                               << algorithmName(algo) << " over "
                               << builderLabel(kBuilders[k])
                               << ": verifier rejected: "
                               << v.summary();
                            fail(os.str());
                            break;
                        }
                    }
                    if (!report.ok)
                        break;
                }
            }
            ++report.blocksChecked;
        }
    } catch (const std::exception &e) {
        fail(std::string("exception escaped the pipeline: ") + e.what());
    }
    return report;
}

OracleReport
checkSource(const std::string &source, const MachineModel &machine,
            const OracleOptions &opts)
{
    DiagnosticEngine::Options dopts;
    dopts.maxErrors = 0; // unlimited: corrupted inputs are the point
    DiagnosticEngine diags(dopts);
    Program prog = parseAssembly(source, diags, "<fuzz>");
    return checkProgram(prog, machine, opts);
}

std::string
minimizeLines(const std::string &source,
              const std::function<bool(const std::string &)> &stillFails,
              int maxChecks, double maxSeconds)
{
    std::vector<std::string> lines;
    {
        std::istringstream in(source);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }

    auto join = [](const std::vector<std::string> &ls) {
        std::string out;
        for (const std::string &l : ls) {
            out += l;
            out += '\n';
        }
        return out;
    };

    const auto start = std::chrono::steady_clock::now();
    auto expired = [&] {
        if (maxSeconds <= 0.0)
            return false;
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count() >= maxSeconds;
    };

    int checks = 0;
    auto failsOn = [&](const std::vector<std::string> &ls) {
        ++checks;
        obs::ev::fuzzReducerSteps.inc();
        return stillFails(join(ls));
    };

    // ddmin-lite: drop windows of shrinking size while the predicate
    // keeps holding.  Both the check budget and the wall-clock cap
    // stop the search, never the result: `lines` always holds the
    // smallest reproducer confirmed so far.
    for (std::size_t chunk = std::max<std::size_t>(lines.size() / 2, 1);
         chunk >= 1; chunk /= 2) {
        bool any = true;
        while (any && checks < maxChecks && !expired()) {
            any = false;
            for (std::size_t i = 0;
                 i + 1 <= lines.size() && lines.size() > 1 &&
                 checks < maxChecks && !expired();) {
                std::vector<std::string> candidate;
                candidate.reserve(lines.size());
                for (std::size_t j = 0; j < lines.size(); ++j)
                    if (j < i || j >= i + chunk)
                        candidate.push_back(lines[j]);
                // Never try the empty candidate: an empty source is
                // vacuously ok, and the reproducer must stay runnable.
                if (!candidate.empty() &&
                    candidate.size() < lines.size() &&
                    failsOn(candidate)) {
                    lines = std::move(candidate);
                    any = true;
                } else {
                    ++i;
                }
            }
        }
        if (chunk == 1)
            break;
    }
    return join(lines);
}

std::string
minimizeOperands(const std::string &source,
                 const std::function<bool(const std::string &)> &stillFails,
                 int maxChecks, double maxSeconds)
{
    std::vector<std::string> lines;
    {
        std::istringstream in(source);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }

    auto join = [](const std::vector<std::string> &ls) {
        std::string out;
        for (const std::string &l : ls) {
            out += l;
            out += '\n';
        }
        return out;
    };

    int checks = 0;
    auto failsOn = [&](const std::vector<std::string> &ls) {
        ++checks;
        obs::ev::fuzzReducerSteps.inc();
        return stillFails(join(ls));
    };

    const auto start = std::chrono::steady_clock::now();
    auto expired = [&] {
        if (maxSeconds <= 0.0)
            return false;
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count() >= maxSeconds;
    };

    // Truncate one line at its last comma (dropping the trailing
    // operand), to a per-line fixpoint, sweeping until a whole pass
    // changes nothing.
    bool any = true;
    while (any && checks < maxChecks && !expired()) {
        any = false;
        for (std::size_t i = 0; i < lines.size() && checks < maxChecks;
             ++i) {
            for (;;) {
                std::size_t comma = lines[i].rfind(',');
                if (comma == std::string::npos ||
                    checks >= maxChecks || expired())
                    break;
                std::string truncated = lines[i].substr(0, comma);
                while (!truncated.empty() &&
                       (truncated.back() == ' ' ||
                        truncated.back() == '\t'))
                    truncated.pop_back();
                std::vector<std::string> candidate = lines;
                candidate[i] = truncated;
                if (failsOn(candidate)) {
                    lines[i] = std::move(truncated);
                    any = true;
                } else {
                    break;
                }
            }
        }
    }
    return join(lines);
}

std::string
minimizeSource(const std::string &source, const MachineModel &machine,
               const OracleOptions &opts, double maxSeconds)
{
    auto fails = [&](const std::string &candidate) {
        return !checkSource(candidate, machine, opts).ok;
    };
    if (maxSeconds <= 0.0)
        return minimizeOperands(minimizeLines(source, fails), fails);

    // One budget across both passes: whatever the line pass leaves
    // unspent goes to the operand pass.
    const auto start = std::chrono::steady_clock::now();
    std::string reduced = minimizeLines(source, fails, 512, maxSeconds);
    const double spent =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    const double left = maxSeconds - spent;
    if (left <= 0.0)
        return reduced;
    return minimizeOperands(reduced, fails, 256, left);
}

} // namespace sched91::fuzz
