#include "common.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include <sys/resource.h>
#include <unistd.h>

#include "dag/builder.hh"
#include "heuristics/static_passes.hh"
#include "ir/parser.hh"
#include "sched/list_scheduler.hh"
#include "sched/registry.hh"
#include "sched/verifier.hh"
#include "sim/executor.hh"
#include "support/diagnostics.hh"
#include "support/thread_pool.hh"

namespace perfbench
{

using namespace sched91;

namespace
{
const Clock::time_point g_epoch = Clock::now();

double
nsBetween(std::uint64_t a, std::uint64_t b)
{
    return b > a ? static_cast<double>(b - a) : 0.0;
}
} // namespace

const std::vector<BuilderSetting> kBuilderSettings = {
    {"table-fwd", BuilderKind::TableForward, 0},
    {"table-bwd", BuilderKind::TableBackward, 0},
    // The paper's F1 window: n**2 building falls back to the table
    // builder above 400 instructions.
    {"n2-fwd", BuilderKind::N2Forward, 400},
};

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             g_epoch)
            .count());
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

double
processCpuSeconds(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    // Fields after the command name start at field 3 (state); utime
    // and stime are fields 14 and 15.
    std::istringstream fields(stat.substr(close + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 3; i <= 15 && (fields >> field); ++i) {
        if (i == 14)
            utime = std::stoull(field);
        else if (i == 15)
            stime = std::stoull(field);
    }
    return static_cast<double>(utime + stime) /
           static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::uint64_t
processHwmBytes(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoull(line.substr(6)) * 1024;
    return 0;
}

void
resetPeakRss(pid_t pid)
{
    std::ofstream("/proc/" + std::to_string(pid) + "/clear_refs") << "5";
}

std::vector<pid_t>
childPids(pid_t pid)
{
    std::vector<pid_t> out;
    std::error_code ec;
    const std::filesystem::path tasks =
        "/proc/" + std::to_string(pid) + "/task";
    for (const auto &task :
         std::filesystem::directory_iterator(tasks, ec)) {
        std::ifstream in(task.path() / "children");
        pid_t child = 0;
        while (in >> child)
            out.push_back(child);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

double
selfCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
hostStealSeconds()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    unsigned long long v[8] = {};
    in >> cpu;
    for (unsigned long long &x : v)
        in >> x;
    // user nice system idle iowait irq softirq steal
    return static_cast<double>(v[7]) /
           static_cast<double>(sysconf(_SC_CLK_TCK));
}

Program
parseLenient(std::string_view text)
{
    DiagnosticEngine::Options dopts;
    dopts.strict = false;
    dopts.echoToLog = false;
    dopts.maxErrors = 0;
    DiagnosticEngine diags(dopts);
    return parseAssembly(text, diags, "perfbench");
}

std::string
checkSchedule(const Program &original,
              const std::vector<BasicBlock> &blocks,
              const std::vector<std::string> &scheduledLines,
              std::uint64_t execSeed)
{
    std::string text;
    for (const std::string &line : scheduledLines) {
        text += line;
        text += '\n';
    }
    Program sched = parseLenient(text);
    if (sched.size() != original.size())
        return "scheduled program has " + std::to_string(sched.size()) +
               " instructions, original " +
               std::to_string(original.size());

    // Partition again, block by block: each original block must come
    // back as one block of the same size (a window-split block is
    // re-cut at the same sizes).
    std::uint32_t at = 0;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        const BasicBlock &bb = blocks[b];
        Program one;
        for (std::uint32_t i = 0; i < bb.size(); ++i)
            one.append(sched[at + i]);
        PartitionOptions po;
        po.window = static_cast<int>(bb.size());
        const std::vector<BasicBlock> again = partitionBlocks(one, po);
        if (again.size() != 1 || again[0].size() != bb.size())
            return "block " + std::to_string(b) +
                   " does not partition back into one block";

        std::unordered_map<std::string, std::vector<std::uint32_t>> slots;
        const BlockView view(original, bb);
        for (std::uint32_t i = view.size(); i-- > 0;)
            slots[view.inst(i).toString()].push_back(i);
        std::vector<std::uint32_t> order;
        order.reserve(bb.size());
        for (std::uint32_t i = 0; i < bb.size(); ++i) {
            auto it = slots.find(sched[at + i].toString());
            if (it == slots.end() || it->second.empty())
                return "block " + std::to_string(b) +
                       " is not a permutation of the original";
            order.push_back(it->second.back());
            it->second.pop_back();
        }
        std::vector<std::uint32_t> identity(bb.size());
        for (std::uint32_t i = 0; i < bb.size(); ++i)
            identity[i] = i;
        const std::uint64_t seed = mixSeed(execSeed, b);
        if (!(runBlock(view, identity, seed) ==
              runBlock(view, order, seed)))
            return "block " + std::to_string(b) +
                   " ends in a different state when scheduled";
        at += bb.size();
    }
    return {};
}

std::vector<std::string>
scheduledLines(const Program &prog, const std::vector<BasicBlock> &blocks,
               const std::vector<Schedule> &schedules)
{
    std::vector<std::string> lines;
    lines.reserve(prog.size());
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        const BlockView view(prog, blocks[b]);
        for (std::uint32_t pos : schedules[b].order)
            lines.push_back(view.inst(pos).toString());
    }
    return lines;
}

int
SpanLog::open(std::string name, std::string traceId, int parent)
{
    Span s;
    s.name = std::move(name);
    s.traceId = std::move(traceId);
    s.parent = parent;
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size() - 1);
}

void
SpanLog::close(int id)
{
    spans_[static_cast<std::size_t>(id)].endNs = nowNs();
}

void
SpanLog::write(obs::JsonWriter &w) const
{
    w.beginArray();
    for (const Span &s : spans_) {
        w.beginObject();
        w.key("name").value(s.name);
        w.key("trace_id").value(s.traceId);
        w.key("start_ns").value(s.startNs);
        w.key("end_ns").value(s.endNs);
        w.key("parent").value(s.parent);
        w.endObject();
    }
    w.endArray();
}

namespace
{

/** Time one runPipeline call over @p prog in nanoseconds. */
double
timedPipeline(Program &prog, const MachineModel &machine,
              const PipelineOptions &popts, ProgramResult *out = nullptr)
{
    const std::uint64_t t0 = nowNs();
    ProgramResult r = runPipeline(prog, machine, popts);
    const double ns = nsBetween(t0, nowNs());
    if (out)
        *out = std::move(r);
    return ns;
}

} // namespace

ReplayResult
replayLayers(const std::vector<CorpusProgram> &corpus,
             const std::vector<BuilderSetting> &settings,
             AlgorithmKind algorithm, AliasPolicy policy,
             const MachineModel &machine, SpanLog &spans)
{
    ReplayResult r;
    r.buildNs.assign(settings.size(), 0.0);
    const AlgorithmSpec spec = algorithmSpec(algorithm);
    const ListScheduler scheduler(spec.config, machine);
    BuildOptions bopts;
    bopts.memPolicy = policy;
    const std::unique_ptr<DagBuilder> table_fwd =
        makeBuilder(BuilderKind::TableForward);

    for (const CorpusProgram &p : corpus) {
        const int root = spans.open("program", p.name);
        int s = spans.open("ir.parse", p.name, root);
        Program prog = parseLenient(p.text);
        PartitionOptions part;
        part.window = p.window;
        const std::vector<BasicBlock> blocks = partitionBlocks(prog, part);
        spans.close(s);
        r.parseNs += nsBetween(spans.spans()[s].startNs,
                               spans.spans()[s].endNs);

        for (std::size_t si = 0; si < settings.size(); ++si) {
            const BuilderSetting &set = settings[si];
            r.insts += prog.size();
            const std::unique_ptr<DagBuilder> builder =
                makeBuilder(set.kind);
            const int sroot = spans.open(std::string("setting.") + set.name,
                                         p.name, root);
            // Per-layer time of this setting, summed over blocks.
            double layerNs[4] = {0, 0, 0, 0};
            for (const BasicBlock &bb : blocks) {
                const BlockView view(prog, bb);
                const DagBuilder &use =
                    set.maxBlockInsts > 0 &&
                            bb.size() > static_cast<std::uint32_t>(
                                            set.maxBlockInsts)
                        ? *table_fwd
                        : *builder;
                // The layer calls runPipeline makes per block
                // (core/pipeline.cc), in the same order.
                const auto layer = [&](int which, auto &&call) {
                    const std::uint64_t t0 = nowNs();
                    call();
                    layerNs[which] += nsBetween(t0, nowNs());
                };
                // Standalone builds allocate from the heap; inside
                // runPipeline they use a worker arena, which core.self
                // therefore accounts for.
                std::optional<Dag> built;
                layer(0,
                      [&] { built.emplace(use.build(view, machine, bopts)); });
                Dag &dag = *built;
                layer(1, [&] {
                    if (spec.config.needsForwardPass)
                        runForwardPass(dag);
                    if (spec.config.needsBackwardPass)
                        runBackwardPass(dag, PassImpl::ReverseWalk,
                                        spec.config.needsDescendants);
                    if (spec.config.needsForwardPass &&
                        spec.config.needsBackwardPass)
                        computeSlack(dag);
                });
                Schedule sched;
                layer(2, [&] { sched = scheduler.run(dag); });
                layer(3, [&] {
                    if (!verifySchedule(dag, sched, machine).ok())
                        throw std::runtime_error("replay: verifier "
                                                 "rejected a schedule");
                });
            }
            spans.close(sroot);
            // One child span per layer, laid out in sequence from the
            // setting's start with the layer's summed duration — the
            // convention the daemon uses for its phase spans; per-block
            // spans would run to hundreds of thousands on fpppp.
            static const char *const kLayerNames[4] = {
                "dag.build", "heuristics.pass", "sched.list", "sched.verify"};
            std::uint64_t at = spans.spans()[sroot].startNs;
            for (int l = 0; l < 4; ++l) {
                const auto ns = static_cast<std::uint64_t>(layerNs[l]);
                spans.add({kLayerNames[l], p.name, at, at + ns, sroot});
                at += ns;
                r.layersNs += layerNs[l];
            }
            r.buildNs[si] += layerNs[0];
            r.heurNs += layerNs[1];
            r.schedNs += layerNs[2];
            r.verifyNs += layerNs[3];

            PipelineOptions popts;
            popts.builder = set.kind;
            popts.algorithm = algorithm;
            popts.build.memPolicy = policy;
            popts.partition.window = p.window;
            popts.maxBlockInsts = set.maxBlockInsts;
            popts.threads = 1;
            s = spans.open("core.pipeline_1lane", p.name, root);
            r.pipeline1Ns += timedPipeline(prog, machine, popts);
            spans.close(s);
            popts.threads = 0;
            s = spans.open("core.pipeline_nlanes", p.name, root);
            const double off1 = timedPipeline(prog, machine, popts);
            spans.close(s);
            r.pipelineNNs += off1;

            // Observability on vs off; the faster of two runs off damps
            // scheduler noise (one run on suffices: it costs several
            // times more).  The counted run also yields the layer counts
            // (identical at every lane count).
            ProgramResult counted;
            obs::setEnabled(true);
            s = spans.open("obs.pipeline_observed", p.name, root);
            r.obsOnNs += timedPipeline(prog, machine, popts, &counted);
            spans.close(s);
            obs::setEnabled(false);
            const double off2 = timedPipeline(prog, machine, popts);
            r.obsOffNs += std::min(off1, off2);
            r.counters.merge(counted.counters);
            r.arenaHighWater = std::max(
                r.arenaHighWater, counted.memory.arenaHighWaterBytes);
        }
        spans.close(root);
    }
    return r;
}

void
writeReplay(obs::JsonWriter &w, const ReplayResult &r,
            const std::vector<BuilderSetting> &settings)
{
    w.beginObject();
    w.key("insts").value(r.insts);
    w.key("settings").value(static_cast<std::uint64_t>(settings.size()));
    w.key("parse_ns").value(r.parseNs);
    w.key("build_ns").beginObject();
    for (std::size_t i = 0; i < settings.size(); ++i)
        w.key(settings[i].name).value(r.buildNs[i]);
    w.endObject();
    w.key("heur_ns").value(r.heurNs);
    w.key("sched_ns").value(r.schedNs);
    w.key("verify_ns").value(r.verifyNs);
    w.key("layers_ns").value(r.layersNs);
    w.key("pipeline_1lane_ns").value(r.pipeline1Ns);
    w.key("pipeline_nlanes_ns").value(r.pipelineNNs);
    w.key("obs_off_ns").value(r.obsOffNs);
    w.key("obs_on_ns").value(r.obsOnNs);
    w.key("arena_high_water_bytes").value(r.arenaHighWater);
    w.key("counters").beginObject();
    for (const auto &[name, value] : r.counters.items())
        w.key(name).value(value);
    w.endObject();
    w.endObject();
}

bool
optimizedBuild()
{
#ifdef __OPTIMIZE__
    return true;
#else
    return false;
#endif
}

void
writeStamp(obs::JsonWriter &w)
{
    std::string cpu = "unknown";
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("model name", 0) == 0) {
            cpu = line.substr(line.find(':') + 2);
            break;
        }
    w.beginObject();
    w.key("nproc").value(ThreadPool::hardwareConcurrency());
    w.key("cpu_model").value(cpu);
    w.key("compiler").value(PERFBENCH_COMPILER);
    w.key("build_type").value(PERFBENCH_BUILD_TYPE);
    w.key("cxx_flags").value(PERFBENCH_CXX_FLAGS);
    w.key("optimized").value(optimizedBuild());
    w.endObject();
}

bool
writeFile(const std::string &path, const std::string &doc)
{
    std::ofstream out(path, std::ios::binary);
    out << doc;
    return static_cast<bool>(out);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

} // namespace perfbench
