/**
 * @file
 * Shared pieces of the benchmark harness: clocks, process accounting
 * read from /proc, the schedule checker, the serial layer replay, and
 * the raw-record writer that run.py turns into metrics.
 *
 * The harness only ever calls sched91's public entry points (parser,
 * builders, passes, scheduler, verifier, pipeline, executor) and the
 * shipped `sched91 serve` binary; it adds nothing to the library.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

#include "core/pipeline.hh"
#include "ir/basic_block.hh"
#include "ir/program.hh"
#include "obs/json.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock since the harness started. */
std::uint64_t nowNs();

double secondsSince(Clock::time_point t0);

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string sched91; ///< path of the `sched91` binary (serve)
    std::string out;     ///< raw record destination
    /** Test hook: SIGKILL the daemon this many ms into the timed
     * window (0 = never), to exercise the lost-response path. */
    int killDaemonAfterMs = 0;
};

/** splitmix64: derive independent per-item seeds from the run seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/** FNV-1a over @p bytes, continuing from @p h. */
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);

// --- Process accounting (/proc) ---------------------------------------

/** User+system CPU seconds of @p pid (all threads). */
double processCpuSeconds(pid_t pid);

/** VmHWM of @p pid in bytes (0 when the process is gone). */
std::uint64_t processHwmBytes(pid_t pid);

/** Reset the VmHWM of @p pid to its current RSS (clear_refs "5"). */
void resetPeakRss(pid_t pid);

/** Direct children of @p pid (the daemon's sandbox workers). */
std::vector<pid_t> childPids(pid_t pid);

/** CPU seconds of this process (getrusage). */
double selfCpuSeconds();

/** CPU seconds the hypervisor has stolen from this machine, all CPUs
 * (/proc/stat); a run that loses much of its window this way measured
 * the neighbours as much as sched91. */
double hostStealSeconds();

// --- Correctness ------------------------------------------------------

/** Parse leniently, as the daemon does. */
sched91::Program parseLenient(std::string_view text);

/**
 * Check one scheduled program against its original: the scheduled
 * text is partitioned again, every block must be a permutation of the
 * original block, and sim/executor's runBlock must end in the same
 * state for both orders.  Returns an empty string when it holds, else
 * the first violation.
 */
std::string checkSchedule(const sched91::Program &original,
                          const std::vector<sched91::BasicBlock> &blocks,
                          const std::vector<std::string> &scheduledLines,
                          std::uint64_t execSeed);

/** Scheduled instruction text of @p prog in the order @p schedules
 * give, block after block (the daemon's "schedule" array). */
std::vector<std::string>
scheduledLines(const sched91::Program &prog,
               const std::vector<sched91::BasicBlock> &blocks,
               const std::vector<sched91::Schedule> &schedules);

// --- Spans ------------------------------------------------------------

/** One harness-side span; parent is an index into the same log. */
struct Span
{
    std::string name;
    std::string traceId;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    int parent = -1;
};

/** In-memory span log, written out once at the end of the run. */
class SpanLog
{
  public:
    int open(std::string name, std::string traceId, int parent = -1);
    void close(int id);
    void add(Span s) { spans_.push_back(std::move(s)); }
    const std::vector<Span> &spans() const { return spans_; }
    void write(sched91::obs::JsonWriter &w) const;

  private:
    std::vector<Span> spans_;
};

// --- Layer replay -----------------------------------------------------

/** One program of a corpus, as the benchmark's caller sees it. */
struct CorpusProgram
{
    std::string name;
    std::string text;
    int window = 0; ///< PartitionOptions::window
};

/** One builder setting of the library configuration. */
struct BuilderSetting
{
    const char *name;
    sched91::BuilderKind kind;
    int maxBlockInsts;
};

/** The library's builder settings, used by batch and every layer
 * replay: table-fwd, table-bwd, and n2-fwd with the paper's
 * 400-instruction fallback to the table builder. */
extern const std::vector<BuilderSetting> kBuilderSettings;

/** Serial per-layer times and counts over a corpus (traced run). */
struct ReplayResult
{
    std::uint64_t insts = 0;    ///< summed over builder settings
    double parseNs = 0;
    std::vector<double> buildNs; ///< per builder setting
    double heurNs = 0;
    double schedNs = 0;
    double verifyNs = 0;
    double pipeline1Ns = 0;     ///< runPipeline at 1 lane
    double pipelineNNs = 0;     ///< runPipeline at nproc lanes
    double layersNs = 0;        ///< build+heur+sched+verify, serial
    double obsOffNs = 0;        ///< runPipeline, observability off
    double obsOnNs = 0;         ///< runPipeline, observability on
    sched91::obs::CounterSet counters;
    std::uint64_t arenaHighWater = 0;
};

/**
 * Replay every program of @p corpus serially through the layer calls
 * runPipeline makes (parse, build per builder setting, the heuristic
 * passes the algorithm needs, the list scheduler, the verifier), then
 * through runPipeline itself at 1 and nproc lanes, with observability
 * off and on.  Records one span per layer call into @p spans.
 */
ReplayResult replayLayers(const std::vector<CorpusProgram> &corpus,
                          const std::vector<BuilderSetting> &settings,
                          sched91::AlgorithmKind algorithm,
                          sched91::AliasPolicy policy,
                          const sched91::MachineModel &machine,
                          SpanLog &spans);

/** Write a replay result as the "replay" section of the raw record. */
void writeReplay(sched91::obs::JsonWriter &w, const ReplayResult &r,
                 const std::vector<BuilderSetting> &settings);

/** Host and build stamp (git describe is added by run.py). */
void writeStamp(sched91::obs::JsonWriter &w);

/** True when the harness was compiled with optimisation. */
bool optimizedBuild();

/** Write @p doc to @p path (whole file); false on failure. */
bool writeFile(const std::string &path, const std::string &doc);

/** Median of @p v (copied); 0 for an empty vector. */
double median(std::vector<double> v);

int runBatch(const Options &opts);
int runServe(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
