#include "obs/emitter.hh"

#include <algorithm>

#include "obs/json.hh"
#include "support/string_util.hh"

namespace sched91::obs
{

namespace
{

void
writeMinMaxAvg(JsonWriter &w, const MinMaxAvg &s)
{
    w.beginObject()
        .key("max").value(s.max())
        .key("avg").value(s.avg())
        .endObject();
}

void
writeCounterSet(JsonWriter &w, const CounterSet &counters)
{
    // Bind the filtered set before iterating: items() references the
    // set's own storage, and a temporary would die before the loop.
    CounterSet nz = counters.nonzero();
    w.beginObject();
    for (const auto &[name, value] : nz.items())
        w.key(name).value(value);
    w.endObject();
}

void
writeHistogram(JsonWriter &w, const Histogram &h, bool zero_values)
{
    // zero_values: a duration histogram under zeroTimes — the event
    // *count* is deterministic, the nanosecond values are wall-clock
    // noise, so only the count survives.
    w.beginObject()
        .key("count").value(h.count())
        .key("sum").value(zero_values ? 0 : h.sum())
        .key("min").value(zero_values ? 0 : h.min())
        .key("max").value(zero_values ? 0 : h.max())
        .key("mean").value(zero_values ? 0.0 : h.mean())
        .key("p50").value(zero_values ? 0 : h.percentile(50))
        .key("p90").value(zero_values ? 0 : h.percentile(90))
        .key("p99").value(zero_values ? 0 : h.percentile(99));
    w.key("buckets").beginArray();
    if (!zero_values) {
        for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
            if (h.bucketCount(i) == 0)
                continue;
            w.beginObject()
                .key("lo").value(Histogram::bucketLo(i))
                .key("hi").value(Histogram::bucketHi(i))
                .key("count").value(h.bucketCount(i))
                .endObject();
        }
    }
    w.endArray().endObject();
}

/** Human name of a DecisionRecord's deciding rank. */
std::string_view
decidedByName(const DecisionTrace &trace, std::int32_t rank)
{
    if (rank == DecisionStats::kDecidedTrivial)
        return "trivial";
    if (rank == DecisionStats::kDecidedOriginalOrder)
        return "original-order";
    if (rank >= 0 &&
        static_cast<std::size_t>(rank) < trace.rankNames.size())
        return trace.rankNames[static_cast<std::size_t>(rank)];
    return "?";
}

void
writeDecisions(JsonWriter &w, const DecisionTrace &trace)
{
    const DecisionStats &s = trace.stats;
    w.beginObject()
        .key("block").value(trace.block)
        .key("algorithm").value(trace.algorithm)
        .key("total_picks").value(s.totalPicks)
        .key("trivial_picks").value(s.trivialPicks)
        .key("original_order_ties").value(s.originalOrderTies);
    w.key("ranks").beginArray();
    for (std::size_t r = 0; r < trace.rankNames.size(); ++r) {
        w.beginObject()
            .key("name").value(trace.rankNames[r])
            .key("decided")
            .value(r < s.decidedAtRank.size() ? s.decidedAtRank[r] : 0)
            .endObject();
    }
    w.endArray();
    w.key("log").beginArray();
    for (const DecisionRecord &rec : s.log) {
        w.beginObject()
            .key("pick").value(rec.pick)
            .key("node").value(rec.node)
            .key("ready").value(rec.readySize)
            .key("decided_by").value(decidedByName(trace, rec.decidedRank))
            .key("time").value(rec.time)
            .key("inst")
            .value(rec.node < trace.insts.size() ? trace.insts[rec.node]
                                                 : std::string{})
            .endObject();
    }
    w.endArray().endObject();
}

/** The outlier fields shared by the stats section and the bundle. */
void
writeOutlierBody(JsonWriter &w, const OutlierRecord &r,
                 const EmitOptions &opts, bool with_source)
{
    const double zt = opts.zeroTimes ? 0.0 : 1.0;
    w.key("block").value(static_cast<std::uint64_t>(r.block))
        .key("score").value(r.score)
        .key("begin").value(r.begin)
        .key("insts").value(r.size);
    w.key("dag").beginObject()
        .key("nodes").value(r.dagNodes)
        .key("arcs").value(r.dagArcs)
        .endObject();
    w.key("seconds").beginObject();
    for (Phase p : {Phase::Build, Phase::Heur, Phase::Sched, Phase::Verify})
        w.key(phaseNames(p).name).value(zt * r.phases.seconds(p));
    w.endObject();
    w.key("counters");
    writeCounterSet(w, r.counters.named());
    w.key("issue").beginObject()
        .key("stage").value(r.stage)
        .key("reason").value(r.reason)
        .key("degraded").value(r.degraded)
        .key("fallback").value(r.fallback)
        .endObject();
    if (with_source)
        w.key("source").value(r.source);
}

void
writePhaseTree(JsonWriter &w, const PhaseStats &node, bool zero_times)
{
    w.beginObject()
        .key("name").value(node.name)
        .key("entries").value(node.entries)
        .key("seconds").value(zero_times ? 0.0 : node.seconds);
    w.key("counters");
    writeCounterSet(w, node.counters.named());
    w.key("children").beginArray();
    for (const PhaseStats &child : node.children)
        writePhaseTree(w, child, zero_times);
    w.endArray().endObject();
}

} // namespace

std::string
programResultJson(const ProgramResult &result, const RunMeta &meta,
                  const CounterSet &counters, const PhaseStats *phases,
                  const EmitOptions &opts)
{
    JsonWriter w;
    w.beginObject();

    w.key("meta").beginObject()
        .key("tool").value("sched91")
        .key("command").value(meta.command)
        .key("input").value(meta.input)
        .key("builder").value(meta.builder)
        .key("algorithm").value(meta.algorithm)
        .key("machine").value(meta.machine);
    if (!meta.policy.empty())
        w.key("policy").value(meta.policy);
    if (!meta.traceId.empty())
        w.key("trace_id").value(meta.traceId);
    w.endObject();

    w.key("blocks").value(static_cast<std::uint64_t>(result.numBlocks))
        .key("instructions")
        .value(static_cast<std::uint64_t>(result.numInsts));

    const double zt = opts.zeroTimes ? 0.0 : 1.0;
    w.key("phases").beginObject()
        .key("build_seconds").value(zt * result.buildSeconds)
        .key("heur_seconds").value(zt * result.heurSeconds)
        .key("sched_seconds").value(zt * result.schedSeconds)
        .key("total_seconds").value(zt * result.totalSeconds())
        .endObject();

    const DagStructure &d = result.dagStats;
    w.key("dag").beginObject()
        .key("total_arcs").value(static_cast<std::uint64_t>(d.totalArcs))
        .key("total_nodes").value(static_cast<std::uint64_t>(d.totalNodes))
        .key("duplicate_arc_attempts")
        .value(static_cast<std::uint64_t>(d.duplicateArcAttempts))
        .key("suppressed_arcs")
        .value(static_cast<std::uint64_t>(d.suppressedArcs));
    w.key("arcs_per_block");
    writeMinMaxAvg(w, d.arcsPerBlock);
    w.key("children_per_inst");
    writeMinMaxAvg(w, d.childrenPerInst);
    w.key("trees_per_block");
    writeMinMaxAvg(w, d.treesPerBlock);
    w.endObject();

    if (result.cyclesOriginal != 0 || result.cyclesScheduled != 0) {
        w.key("cycles").beginObject()
            .key("original").value(result.cyclesOriginal)
            .key("scheduled").value(result.cyclesScheduled)
            .endObject();
    }

    w.key("robust").beginObject()
        .key("blocks_degraded")
        .value(static_cast<std::uint64_t>(result.blocksDegraded))
        .key("builder_fallbacks")
        .value(static_cast<std::uint64_t>(result.builderFallbacks))
        .key("verifier_rejections")
        .value(static_cast<std::uint64_t>(result.verifierRejections))
        .key("parse_errors")
        .value(static_cast<std::uint64_t>(result.parseErrors))
        .key("parse_warnings")
        .value(static_cast<std::uint64_t>(result.parseWarnings));
    w.key("block_issues").beginArray();
    for (const ProgramResult::BlockIssue &issue : result.blockIssues) {
        w.beginObject()
            .key("block").value(static_cast<std::uint64_t>(issue.block))
            .key("stage").value(issue.stage)
            .key("reason").value(issue.reason)
            .key("degraded").value(issue.degraded)
            .endObject();
    }
    w.endArray().endObject();

    if (!result.decisions.empty()) {
        w.key("decisions");
        writeDecisions(w, result.decisions);
    }

    if (!result.outliers.empty()) {
        w.key("outliers").beginArray();
        for (const OutlierRecord &r : result.outliers) {
            // No source text in the stats document — the per-block
            // bundles carry it; here it would dwarf everything else.
            w.beginObject();
            writeOutlierBody(w, r, opts, false);
            w.endObject();
        }
        w.endArray();
    }

    w.key("counters");
    writeCounterSet(w, counters);

    w.key("histograms").beginObject();
    for (const auto &[name, hist] : result.histograms.items()) {
        w.key(name);
        writeHistogram(w, hist,
                       opts.zeroTimes && isTimeHistogram(name));
    }
    w.endObject();

    // The deterministic/environmental split (obs/memory.hh): the
    // environmental gauges vary with lane assignment and process
    // history, so zeroTimes zeroes them the way it zeroes seconds.
    const MemoryStats &m = result.memory;
    w.key("memory").beginObject()
        .key("arena_bytes_allocated").value(m.arenaBytesAllocated)
        .key("arena_high_water_bytes").value(m.arenaHighWaterBytes)
        .key("dag_arcs").value(m.dagArcs)
        .key("dag_arc_bytes").value(m.dagArcBytes)
        .key("arena_reserved_bytes")
        .value(opts.zeroTimes ? 0 : m.arenaReservedBytes)
        .key("arena_chunks").value(opts.zeroTimes ? 0 : m.arenaChunks)
        .key("peak_rss_bytes")
        .value(opts.zeroTimes ? 0 : m.peakRssBytes)
        .endObject();

    if (phases) {
        w.key("phase_tree").beginArray();
        for (const PhaseStats &child : phases->children)
            writePhaseTree(w, child, opts.zeroTimes);
        w.endArray();
    }

    w.endObject();
    return w.take();
}

std::string
renderCounters(const CounterSet &counters)
{
    CounterSet nz = counters.nonzero();
    std::size_t width = 0;
    for (const auto &[name, value] : nz.items())
        width = std::max(width, name.size());
    std::string out;
    for (const auto &[name, value] : nz.items()) {
        out += padRight(name, width + 2);
        out += std::to_string(value);
        out += '\n';
    }
    return out;
}

std::string
outlierBundleJson(const OutlierRecord &record, const RunMeta &meta,
                  const EmitOptions &opts)
{
    JsonWriter w;
    w.beginObject().key("sched91_outlier").value(1);
    w.key("meta").beginObject()
        .key("tool").value("sched91")
        .key("command").value(meta.command)
        .key("input").value(meta.input)
        .key("builder").value(meta.builder)
        .key("algorithm").value(meta.algorithm)
        .key("machine").value(meta.machine);
    if (!meta.policy.empty())
        w.key("policy").value(meta.policy);
    if (!meta.traceId.empty())
        w.key("trace_id").value(meta.traceId);
    w.endObject();
    writeOutlierBody(w, record, opts, true);
    w.endObject();
    return w.take();
}

std::string
renderDecisionTrace(const DecisionTrace &trace)
{
    if (trace.empty())
        return {};
    const DecisionStats &s = trace.stats;
    std::string out;
    out += "block " + std::to_string(trace.block) + "  algorithm " +
           trace.algorithm + "  picks " + std::to_string(s.totalPicks) +
           "  (trivial " + std::to_string(s.trivialPicks) +
           ", original-order " + std::to_string(s.originalOrderTies) +
           ")\n";

    std::size_t name_width = std::string_view{"decided-by"}.size();
    for (const std::string &name : trace.rankNames)
        name_width = std::max(name_width, name.size());
    for (std::size_t r = 0; r < trace.rankNames.size(); ++r) {
        long long decided =
            r < s.decidedAtRank.size() ? s.decidedAtRank[r] : 0;
        out += "  rank " + std::to_string(r) + "  " +
               padRight(trace.rankNames[r], name_width + 2) +
               std::to_string(decided) + "\n";
    }

    out += padRight("pick", 6) + padRight("time", 6) +
           padRight("ready", 7) + padRight("decided-by", name_width + 2) +
           "inst\n";
    for (const DecisionRecord &rec : s.log) {
        out += padRight(std::to_string(rec.pick), 6);
        out += padRight(std::to_string(rec.time), 6);
        out += padRight(std::to_string(rec.readySize), 7);
        out += padRight(std::string(decidedByName(trace, rec.decidedRank)),
                        name_width + 2);
        out += rec.node < trace.insts.size() ? trace.insts[rec.node]
                                             : std::string{};
        out += '\n';
    }
    return out;
}

std::string
renderOutliers(const std::vector<OutlierRecord> &outliers)
{
    if (outliers.empty())
        return {};
    std::string out = padRight("block", 7) + padRight("score", 12) +
                      padRight("insts", 7) + padRight("arcs", 8) +
                      "issue\n";
    for (const OutlierRecord &r : outliers) {
        out += padRight(std::to_string(r.block), 7);
        out += padRight(std::to_string(r.score), 12);
        out += padRight(std::to_string(r.size), 7);
        out += padRight(std::to_string(r.dagArcs), 8);
        if (r.stage.empty())
            out += "-";
        else
            out += r.stage + (r.reason.empty() ? "" : ": " + r.reason);
        out += '\n';
    }
    return out;
}

} // namespace sched91::obs
