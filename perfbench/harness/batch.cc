/**
 * @file
 * The batch-table3 workload: a compiler driving the library, one
 * caller, closed loop.  Twelve Table 3 rows under three builder
 * settings, each parsed from text and scheduled by runPipeline at
 * nproc lanes with observability off.
 */

#include <algorithm>

#include <malloc.h>
#include <unistd.h>

#include "common.hh"
#include "machine/presets.hh"
#include "serve.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace perfbench
{

using namespace sched91;

namespace
{

constexpr int kSetupRepeats = 5;

/** Independent draws of each base Table 3 profile.  With one draw
 * the median compile falls in the gap between the sixth and seventh
 * smallest of twelve rows and jumps between them from run to run;
 * three draws of the small rows put it inside a cluster.  fpppp, which
 * already dominates the run time, is drawn once. */
constexpr int kDraws = 3;

constexpr AlgorithmKind kAlgorithm = AlgorithmKind::Krishnamurthy;
constexpr AliasPolicy kPolicy = AliasPolicy::SymbolicExpr;

/** Table 3: the eight base profiles (kDraws draws each), then fpppp
 * under windows 1000/2000/4000 and none.  Rendered to assembly text. */
std::vector<CorpusProgram>
makeTable3Corpus(std::uint64_t seed)
{
    std::vector<CorpusProgram> rows;
    for (int draw = 0; draw < kDraws; ++draw)
        for (WorkloadProfile profile : allProfiles()) {
            if (profile.name == "fpppp" && draw > 0)
                continue;
            profile.seed = mixSeed(seed, profile.seed * kDraws + draw);
            const std::string text = generateProgram(profile).toString();
            std::string name = profile.name;
            name += '#';
            name += std::to_string(draw);
            if (profile.name != "fpppp") {
                rows.push_back({name, text, 0});
                continue;
            }
            for (int window : {1000, 2000, 4000})
                rows.push_back(
                    {name + "/w" + std::to_string(window), text, window});
            rows.push_back({name, text, 0});
        }
    return rows;
}

PipelineOptions
pipelineOptions(const CorpusProgram &row, const BuilderSetting &set)
{
    PipelineOptions popts;
    popts.builder = set.kind;
    popts.algorithm = kAlgorithm;
    popts.build.memPolicy = kPolicy;
    popts.partition.window = row.window;
    popts.maxBlockInsts = set.maxBlockInsts;
    popts.threads = 0; // nproc lanes
    return popts;
}

std::uint64_t
scheduleDigest(const std::vector<Schedule> &schedules)
{
    std::uint64_t h = fnv1a("");
    for (const Schedule &s : schedules)
        h = fnv1a(std::string_view(
                      reinterpret_cast<const char *>(s.order.data()),
                      s.order.size() * sizeof(std::uint32_t)),
                  fnv1a("|", h));
    return h;
}

/** What one timed loop measured. */
struct Loop
{
    std::vector<double> latencyNs; ///< one per (row, setting) compile
    std::uint64_t insts = 0;
    std::uint64_t blocks = 0;
    std::uint64_t degradedBlocks = 0;
    std::uint64_t degradedRequests = 0;
    std::uint64_t digestMismatches = 0;
    std::uint64_t passes = 0;
    std::vector<double> passS;             ///< wall time of each pass
    std::vector<std::uint64_t> passInsts; ///< instructions of each pass
    std::vector<double> passSteal;        ///< host steal in each pass
    double windowS = 0;
    double cpuS = 0;
    double stealS = 0;
};

/**
 * Whole passes over rows x settings until @p seconds have elapsed.
 * Each compile is timed from the start of the parse to the return of
 * runPipeline.  With @p spans, every compile and its two layer calls
 * are recorded as spans (the traced variant).  Each cell's schedule
 * digest must equal @p digests' (filled on first use).
 */
Loop
timedLoop(const std::vector<CorpusProgram> &rows,
          const MachineModel &machine, double seconds,
          std::vector<std::uint64_t> &digests, SpanLog *spans)
{
    Loop loop;
    const double cpu0 = selfCpuSeconds();
    const double steal0 = hostStealSeconds();
    const Clock::time_point t0 = Clock::now();
    std::vector<Schedule> schedules;
    while (loop.passes == 0 || secondsSince(t0) < seconds) {
        const Clock::time_point pass0 = Clock::now();
        const std::uint64_t insts0 = loop.insts;
        const double passSteal0 = hostStealSeconds();
        std::size_t cell = 0;
        for (const CorpusProgram &row : rows)
            for (const BuilderSetting &set : kBuilderSettings) {
                int root = -1, id = -1;
                std::string trace;
                if (spans) {
                    trace = std::to_string(loop.passes);
                    trace += '/';
                    trace += row.name;
                    trace += '/';
                    trace += set.name;
                    root = spans->open("request", trace);
                    id = spans->open("ir.parse", trace, root);
                }
                const std::uint64_t start = nowNs();
                Program prog = parseLenient(row.text);
                if (spans) {
                    spans->close(id);
                    id = spans->open("core.runPipeline", trace, root);
                }
                PipelineOptions popts = pipelineOptions(row, set);
                popts.schedules = &schedules;
                const ProgramResult r = runPipeline(prog, machine, popts);
                loop.latencyNs.push_back(
                    static_cast<double>(nowNs() - start));
                if (spans) {
                    spans->close(id);
                    spans->close(root);
                }
                loop.insts += r.numInsts;
                loop.blocks += r.numBlocks;
                loop.degradedBlocks += r.blocksDegraded;
                loop.degradedRequests += r.blocksDegraded > 0;
                const std::uint64_t d = scheduleDigest(schedules);
                if (digests[cell] == 0)
                    digests[cell] = d;
                else if (digests[cell] != d)
                    ++loop.digestMismatches;
                ++cell;
            }
        ++loop.passes;
        loop.passS.push_back(secondsSince(pass0));
        loop.passInsts.push_back(loop.insts - insts0);
        loop.passSteal.push_back(hostStealSeconds() - passSteal0);
    }
    loop.windowS = secondsSince(t0);
    loop.cpuS = selfCpuSeconds() - cpu0;
    loop.stealS = hostStealSeconds() - steal0;
    return loop;
}

/**
 * Peak memory of one compile: VmHWM over one untimed pass, with the
 * heap trimmed and the high-water mark reset before each compile.
 * Within a timed run the mark mostly records which of malloc's
 * per-thread arenas the lanes happened to reuse, and moves by a fifth
 * between runs of the same code.
 */
std::uint64_t
footprintPass(const std::vector<CorpusProgram> &rows,
              const MachineModel &machine)
{
    std::uint64_t peak = 0;
    for (const CorpusProgram &row : rows)
        for (const BuilderSetting &set : kBuilderSettings) {
            ::malloc_trim(0);
            resetPeakRss(::getpid());
            Program prog = parseLenient(row.text);
            runPipeline(prog, machine, pipelineOptions(row, set));
            peak = std::max(peak, processHwmBytes(::getpid()));
        }
    return peak;
}

void
writeLoop(obs::JsonWriter &w, const Loop &loop)
{
    w.beginObject();
    w.key("window_s").value(loop.windowS);
    w.key("passes").value(loop.passes);
    w.key("pass_s").beginArray();
    for (double s : loop.passS)
        w.value(s);
    w.endArray();
    w.key("pass_insts").beginArray();
    for (std::uint64_t n : loop.passInsts)
        w.value(n);
    w.endArray();
    w.key("pass_steal_s").beginArray();
    for (double s : loop.passSteal)
        w.value(s);
    w.endArray();
    w.key("sent").value(static_cast<std::uint64_t>(loop.latencyNs.size()));
    w.key("ok").value(static_cast<std::uint64_t>(loop.latencyNs.size()) -
                      loop.degradedRequests);
    w.key("degraded").value(loop.degradedRequests);
    w.key("insts_ok").value(loop.insts);
    w.key("blocks").value(loop.blocks);
    w.key("degraded_blocks").value(loop.degradedBlocks);
    w.key("digest_mismatches").value(loop.digestMismatches);
    w.key("cpu_s").value(loop.cpuS);
    w.key("steal_s").value(loop.stealS);
    w.key("latency_ns").beginArray();
    for (double ns : loop.latencyNs)
        w.value(ns);
    w.endArray();
    w.endObject();
}

} // namespace

int
runBatch(const Options &opts)
{
    const MachineModel machine = presetByName("sparcstation2");
    obs::JsonWriter w;
    w.beginObject();
    w.key("workload").value(opts.workload);
    w.key("seed").value(opts.seed);
    w.key("stamp");
    writeStamp(w);

    // Set-up: generate and render the corpus, several times.
    std::vector<double> setupS;
    std::vector<CorpusProgram> rows;
    bool setupIdentical = true;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        const Clock::time_point t0 = Clock::now();
        std::vector<CorpusProgram> again = makeTable3Corpus(opts.seed);
        setupS.push_back(secondsSince(t0));
        if (!rows.empty())
            for (std::size_t i = 0; i < rows.size(); ++i)
                setupIdentical &= rows[i].text == again[i].text;
        rows = std::move(again);
    }
    w.key("setup_s").beginArray();
    for (double s : setupS)
        w.value(s);
    w.endArray();
    w.key("setup_identical").value(setupIdentical);

    std::vector<std::uint64_t> digests(rows.size() * kBuilderSettings.size(), 0);
    const Loop loop = timedLoop(rows, machine, opts.seconds, digests, nullptr);
    const std::uint64_t peakRss = footprintPass(rows, machine);

    // Untimed check pass: the same compiles with schedule evaluation;
    // every schedule is partitioned again, checked to be a permutation
    // and executed against the original order.
    std::uint64_t checkFailures = 0, checked = 0;
    long long cyclesOrig = 0, cyclesSched = 0;
    std::string firstFailure;
    std::uint64_t digest = fnv1a("");
    std::size_t cell = 0;
    for (const CorpusProgram &row : rows)
        for (const BuilderSetting &set : kBuilderSettings) {
            Program prog = parseLenient(row.text);
            std::vector<Schedule> schedules;
            PipelineOptions popts = pipelineOptions(row, set);
            popts.schedules = &schedules;
            popts.evaluate = true;
            const ProgramResult r = runPipeline(prog, machine, popts);
            cyclesOrig += r.cyclesOriginal;
            cyclesSched += r.cyclesScheduled;
            const std::uint64_t d = scheduleDigest(schedules);
            digest = fnv1a(std::to_string(d), digest);
            std::string why;
            if (d != digests[cell])
                why = "schedules differ from the timed loop's";
            else {
                PartitionOptions part;
                part.window = row.window;
                const std::vector<BasicBlock> blocks =
                    partitionBlocks(prog, part);
                why = checkSchedule(prog, blocks,
                                    scheduledLines(prog, blocks, schedules),
                                    mixSeed(opts.seed, cell));
            }
            if (!why.empty()) {
                ++checkFailures;
                if (firstFailure.empty())
                    firstFailure = row.name + "/" + set.name + ": " + why;
            }
            ++checked;
            ++cell;
        }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest));

    w.key("timed");
    writeLoop(w, loop);
    w.key("peak_rss_bytes").value(peakRss);
    w.key("check").beginObject();
    w.key("checked").value(checked);
    w.key("check_failures").value(checkFailures);
    w.key("first_failure").value(firstFailure);
    w.key("digest").value(hex);
    w.key("cycles_original").value(cyclesOrig);
    w.key("cycles_scheduled").value(cyclesSched);
    w.endObject();

    std::string error;
    if (opts.trace) {
        // Traced run: the loop again with spans around each layer
        // call, the serial layer replay, and the corpus through the
        // daemon in both isolation modes (the service layer's share
        // on batch-sized programs).
        SpanLog spans;
        const Loop traced =
            timedLoop(rows, machine, opts.seconds, digests, &spans);
        w.key("traced");
        writeLoop(w, traced);
        const ReplayResult rep = replayLayers(rows, kBuilderSettings, kAlgorithm,
                                              kPolicy, machine, spans);
        w.key("replay");
        writeReplay(w, rep, kBuilderSettings);
        obs::JsonWriter sw;
        spans.write(sw);
        writeFile("batch.spans.json", sw.take());

        std::vector<Payload> payloads;
        for (const CorpusProgram &row : rows) {
            if (row.window != 0 || row.name.back() != '0')
                continue; // one draw; a window is not a request field
            for (const BuilderSetting &set : kBuilderSettings) {
                Payload p;
                p.members = requestMembers(
                    row.text, {{"emit", "schedule"},
                               {"builder", set.name},
                               {"algorithm", "krishnamurthy"},
                               {"policy", "symbolic"}});
                p.insts = parseLenient(row.text).size();
                payloads.push_back(std::move(p));
            }
        }
        // `sched91 serve` already applies the 400-instruction n**2
        // fallback by default.
        ServicePass inproc, isolated;
        if (runServicePass(opts, false, payloads, 0, payloads.size(), 0.0,
                           inproc, error) &&
            runServicePass(opts, true, payloads, 0, payloads.size(), 0.0,
                           isolated, error)) {
            w.key("traced_pass");
            writeServicePass(w, inproc);
            w.key("other_pass");
            writeServicePass(w, isolated);
        }
    }
    w.key("error").value(error);
    w.endObject();
    if (!writeFile(opts.out, w.take()))
        return 1;
    return error.empty() ? 0 : 1;
}

} // namespace perfbench
