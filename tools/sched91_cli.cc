/**
 * @file
 * sched91 command-line driver.
 *
 *     sched91 schedule <file.s> [options]   schedule and print assembly
 *     sched91 dag      <file.s> [options]   print the dependence DAG
 *     sched91 dot      <file.s> [options]   DOT graph on stdout
 *     sched91 stats    <file.s>             Table-3-style structure
 *     sched91 profile  <name>               run a synthetic workload
 *     sched91 report   <file.s>             worst-scheduled blocks
 *     sched91 timeline <file.s> --block N   FU occupancy chart
 *     sched91 compile  <file.s>             prepass+allocate+postpass
 *     sched91 explain  <bundle.json>        replay an outlier bundle
 *     sched91 serve                         scheduling daemon (unix socket)
 *     sched91 top      [socket]             live daemon telemetry console
 *     sched91 reduce   <file.s>             shrink an oracle-failing source
 *     sched91 kernels                       list built-in kernels
 *
 * Common options:
 *     --kernel <name>       use a built-in kernel instead of a file
 *     --algorithm <name>    gibbons-muchnick | krishnamurthy |
 *                           schlansker | shieh-papachristou | tiemann |
 *                           warren | simple-forward   (default)
 *     --builder <name>      n2-fwd | n2-bwd | landskov | table-fwd |
 *                           table-bwd   (default table-fwd)
 *     --machine <name>      sparcstation2 | rs6000like | superscalar2
 *     --policy <name>       serialize | base-offset | storage |
 *                           symbolic
 *     --window <N>          instruction window (0 = none)
 *     --block <N>           operate on basic block N (default 0)
 *     --heuristics          annotate DOT nodes with heuristic values
 *
 * Observability options:
 *     --stats-json <path>   write the run result as JSON (per-phase
 *                           seconds, DAG structure, event counters,
 *                           phase tree); "-" for stdout.  schedule
 *                           and profile only.
 *     --trace <path>        write a trace with counter deltas
 *                           ("-" for stdout): one event per block per
 *                           phase
 *     --trace-format <f>    jsonl (default) | chrome (Trace Event
 *                           Format for about://tracing / Perfetto)
 *     --counters            print nonzero event counters to stderr
 *                           (any command)
 *     --histograms          print per-block latency/size histograms
 *                           to stderr
 *
 * Forensics options (docs/FORENSICS.md):
 *     --capture-outliers <K>  track the K most expensive blocks and
 *                           print a forensic table
 *     --outlier-dir <dir>   write one replayable JSON bundle per
 *                           captured outlier block into <dir>
 *     --explain-block <N>   print block N's per-pick decision trace
 *     --log-level <level>   error | warn (default) | info | debug
 *     --flight-recorder     per-worker ring of recent pipeline events,
 *                           dumped as JSON on crash
 *     --crash-dump <path>   crash-dump destination ("-" = stderr)
 *
 * Robustness options (docs/ROBUSTNESS.md):
 *     --strict              fail fast on parse errors / block faults
 *     --verify/--no-verify  schedule verifier (default on)
 *     --max-block-insts <N> n**2 -> table builder fallback threshold
 *     --max-block-seconds <S>  per-block wall-clock budget
 *     --max-run-seconds <S>    whole-run budget, fair-shared
 *     --fault-inject <spec> deterministic fault injection
 *     --reduce-seconds <S>  wall-clock cap for `reduce`
 *
 * Service options (sched91 serve, docs/ROBUSTNESS.md):
 *     --socket <path>       AF_UNIX socket (default /tmp/sched91.sock)
 *     --queue-capacity <N>  admission queue depth (default 64)
 *     --deadline-ms <ms>    default per-request deadline (0 = none)
 *     --isolate <mode>      none | process: sandboxed worker
 *                           subprocesses with supervisor respawn
 *     --isolate-hang-ms / --isolate-rlimit-cpu /
 *     --isolate-rlimit-as-mb   watchdog and rlimit bounds per worker
 *
 * Exit codes: 0 success (including lenient recovery), 1 runtime
 * error, 2 usage error.
 */

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include <unistd.h>

#include "core/sched91.hh"
#include "dag/dot_export.hh"
#include "fuzz/differential.hh"
#include "obs/chrome_trace.hh"
#include "obs/emitter.hh"
#include "obs/flight_recorder.hh"
#include "obs/histogram.hh"
#include "obs/json_parse.hh"
#include "sched/report.hh"
#include "core/backend.hh"
#include "sched/timeline.hh"
#include "service/daemon.hh"
#include "service/protocol.hh"
#include "service/sandbox_worker.hh"
#include "support/cancellation.hh"
#include "support/diagnostics.hh"
#include "support/fault_inject.hh"
#include "support/line_io.hh"
#include "support/log.hh"
#include "support/logging.hh"

using namespace sched91;

namespace
{

/** Bad invocation (unknown option/command, missing value): exit 2,
 * per the exit-code contract in docs/ROBUSTNESS.md. */
struct UsageError : FatalError
{
    using FatalError::FatalError;
};

template <typename... Args>
[[noreturn]] void
usageError(const Args &...args)
{
    std::ostringstream os;
    detail::appendAll(os, args...);
    throw UsageError(os.str());
}

struct CliOptions
{
    std::string command;
    std::string input;
    std::string kernel;
    AlgorithmKind algorithm = AlgorithmKind::SimpleForward;
    BuilderKind builder = BuilderKind::TableForward;
    std::string machineName = "sparcstation2";
    AliasPolicy policy = AliasPolicy::BaseOffset;
    int window = 0;
    int block = 0;
    bool heuristics = false;
    unsigned threads = 0;  ///< --threads (0 = hardware concurrency)
    std::string statsJson; ///< --stats-json path ("-" = stdout)
    std::string tracePath; ///< --trace path ("-" = stdout)
    std::string traceFormat = "jsonl"; ///< --trace-format=chrome|jsonl
    bool counters = false; ///< --counters
    bool histograms = false; ///< --histograms
    bool zeroTimes = false; ///< --zero-times

    // Robustness (docs/ROBUSTNESS.md).
    bool strict = false;      ///< --strict: fail fast, no recovery
    bool verify = true;       ///< --no-verify turns the checker off
    int maxBlockInsts = 400;  ///< --max-block-insts (0 = off)
    double maxBlockSeconds = 0.0; ///< --max-block-seconds (0 = off)
    double maxRunSeconds = 0.0;   ///< --max-run-seconds (0 = off)

    // Forensics (docs/FORENSICS.md).
    int captureOutliers = 0;     ///< --capture-outliers K (0 = off)
    std::string outlierDir;      ///< --outlier-dir: bundle files
    int explainBlock = -1;       ///< --explain-block N (-1 = off)
    bool flightRecorder = false; ///< --flight-recorder
    std::string crashDump;       ///< --crash-dump path ("-" = stderr)
    std::string injectPanic;     ///< --inject-panic run|abort (tests)

    // Fault injection and the reducer (docs/ROBUSTNESS.md).
    std::string faultInject;    ///< --fault-inject spec ("" = off)
    double reduceSeconds = 0.0; ///< --reduce-seconds cap (0 = off)

    // Service (sched91 serve).
    std::string socketPath = "/tmp/sched91.sock"; ///< --socket
    int queueCapacity = 64; ///< --queue-capacity
    double deadlineMs = 0.0; ///< --deadline-ms (0 = none)
    double snapshotSeconds = 0.0; ///< --snapshot-seconds (0 = off)
    std::string snapshotJson;     ///< --snapshot-json JSONL path
    std::string traceJson;        ///< --trace-json Chrome-trace path

    // Live console (sched91 top).
    int topIntervalMs = 1000; ///< --interval-ms between scrapes
    int topIterations = 0;    ///< --iterations (0 = until ^C)

    // Process isolation (sched91 serve --isolate=process).
    std::string isolate = "none"; ///< --isolate none|process
    int isolateHangMs = 10000;    ///< --isolate-hang-ms watchdog bound
    int isolateRlimitCpu = 0;     ///< --isolate-rlimit-cpu seconds
    int isolateRlimitAsMb = 0;    ///< --isolate-rlimit-as-mb MiB
    std::string isolateExe;       ///< --isolate-exe worker binary

    bool
    observing() const
    {
        return !statsJson.empty() || !tracePath.empty() || counters ||
               histograms || captureOutliers > 0 || explainBlock >= 0;
    }
};

/** An enum option's value, spelled as `service::*FromToken` accepts
 * it (the CLI token or the display name); a bad one is a usage
 * error. */
template <typename Kind>
Kind
parseToken(Kind (*fromToken)(const std::string &), const std::string &name)
{
    try {
        return fromToken(name);
    } catch (const FatalError &e) {
        usageError(e.what());
    }
}

/** The most lanes --threads may ask for. */
constexpr unsigned kMaxThreads = 1024;

/**
 * @p option's value @p text: the whole of it a decimal whole number
 * from @p min to @p max.  Anything else is a usage error naming the
 * option and the text.
 */
template <typename Int>
Int
parseWhole(const std::string &option, const std::string &text, Int min,
           Int max = std::numeric_limits<Int>::max())
{
    Int n = 0;
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, n);
    if (ec == std::errc{} && stop == end && n >= min && n <= max)
        return n;
    if (max == std::numeric_limits<Int>::max())
        usageError(option, " needs a whole number >= ", min, ", not '",
                   text, "'");
    usageError(option, " needs a whole number from ", min, " to ", max,
               ", not '", text, "'");
}

/**
 * @p option's value @p text: the whole of it a finite decimal number
 * (scientific notation too) of seconds or milliseconds, at least 0, or
 * above it when @p positive.  Anything else is a usage error naming
 * the option and the text.
 */
double
parseDuration(const std::string &option, const std::string &text,
              bool positive)
{
    double v = 0.0;
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    if (ec == std::errc{} && stop == end && std::isfinite(v) &&
        (positive ? v > 0.0 : v >= 0.0))
        return v;
    usageError(option, " needs a finite number ", positive ? ">" : ">=",
               " 0, not '", text, "'");
}

const char kUsage[] =
    "usage: sched91 <command> [input] [options]\n"
    "\n"
    "commands:\n"
    "  schedule <file.s>   schedule and print assembly\n"
    "  dag      <file.s>   print the dependence DAG\n"
    "  dot      <file.s>   DOT graph on stdout\n"
    "  stats    <file.s>   Table-3-style structure\n"
    "  profile  <name>     run a synthetic workload\n"
    "  report   <file.s>   worst-scheduled blocks\n"
    "  timeline <file.s>   FU occupancy chart (--block N)\n"
    "  compile  <file.s>   prepass+allocate+postpass\n"
    "  explain  <bundle>   replay an outlier bundle's decision trace\n"
    "  serve               scheduling daemon on an AF_UNIX socket;\n"
    "                      newline-delimited JSON requests/responses,\n"
    "                      SIGINT/SIGTERM drains gracefully\n"
    "  top      [socket]   live telemetry console: polls the daemon's\n"
    "                      in-band stats endpoint and renders RPS,\n"
    "                      queue depth/wait, latency percentiles, rung\n"
    "                      tallies, and worker health\n"
    "  reduce   <file.s>   ddmin-shrink a source that fails the\n"
    "                      differential oracle; reduced source on\n"
    "                      stdout\n"
    "  kernels             list built-in kernels\n"
    "\n"
    "options:\n"
    "  --kernel <name>      use a built-in kernel instead of a file\n"
    "  --algorithm <name>   gibbons-muchnick | krishnamurthy |\n"
    "                       schlansker | shieh-papachristou | tiemann |\n"
    "                       warren | simple-forward (default)\n"
    "  --builder <name>     n2-fwd | n2-bwd | landskov | table-fwd\n"
    "                       (default) | table-bwd\n"
    "  --machine <name>     sparcstation2 | rs6000like | superscalar2\n"
    "  --policy <name>      serialize | base-offset | storage | symbolic\n"
    "  --window <N>         instruction window (0 = none)\n"
    "  --block <N>          operate on basic block N (default 0)\n"
    "  --heuristics         annotate DOT nodes with heuristic values\n"
    "  --threads <N>        pipeline worker lanes, and the lanes a\n"
    "                       large input file parses on, 0 to 1024\n"
    "                       (0 = hardware concurrency, 1 = serial;\n"
    "                       output is identical either way)\n"
    "\n"
    "observability (docs/OBSERVABILITY.md):\n"
    "  --stats-json <path>  run result as JSON, \"-\" for stdout\n"
    "                       (schedule and profile)\n"
    "  --trace <path>       trace with per-block, per-phase counter\n"
    "                       deltas\n"
    "  --trace-format <f>   jsonl (default) | chrome: Trace Event\n"
    "                       Format JSON for about://tracing/Perfetto\n"
    "  --counters           nonzero event counters on stderr (any\n"
    "                       command)\n"
    "  --histograms         per-block latency/size histograms on\n"
    "                       stderr (p50/p90/p99/max)\n"
    "  --zero-times         write all seconds fields as 0 in\n"
    "                       --stats-json/--trace output (byte-\n"
    "                       comparable across runs and thread counts)\n"
    "\n"
    "forensics (docs/FORENSICS.md):\n"
    "  --capture-outliers <K>  track the K most expensive blocks\n"
    "                       (deterministic work score) and print a\n"
    "                       forensic table on stderr\n"
    "  --outlier-dir <dir>  also write one replayable JSON bundle per\n"
    "                       captured block into <dir> (sched91 explain\n"
    "                       re-runs one)\n"
    "  --explain-block <N>  record block N's per-pick decision trace,\n"
    "                       print it on stdout, and add a \"decisions\"\n"
    "                       section to --stats-json\n"
    "  --log-level <level>  stderr log threshold: error | warn\n"
    "                       (default) | info | debug\n"
    "  --flight-recorder    keep a per-worker ring of recent pipeline\n"
    "                       events, dumped as JSON if the run crashes\n"
    "  --crash-dump <path>  write the crash dump there instead of\n"
    "                       stderr (implies --flight-recorder)\n"
    "\n"
    "robustness (docs/ROBUSTNESS.md):\n"
    "  --strict             fail fast: parse errors and per-block\n"
    "                       faults abort the run (exit 1) instead of\n"
    "                       degrading the block\n"
    "  --verify             re-check every schedule against its DAG\n"
    "                       (default on)\n"
    "  --no-verify          skip the schedule verifier\n"
    "  --max-block-insts <N>  blocks above N insts fall back from an\n"
    "                       n**2 builder to table building (default\n"
    "                       400, 0 = off)\n"
    "  --max-block-seconds <S>  per-block wall-clock budget; overrun\n"
    "                       degrades the block to original order\n"
    "                       (default off)\n"
    "  --max-run-seconds <S>  whole-run wall-clock budget, divided\n"
    "                       fair-share across remaining blocks; once\n"
    "                       spent, remaining blocks degrade to\n"
    "                       original order (default off)\n"
    "  --fault-inject <spec>  deterministic fault injection at the\n"
    "                       pipeline's failure boundaries, e.g.\n"
    "                       \"seed=42,builder-throw=0.25,slow-ms=40\"\n"
    "                       (keys: seed, slow-ms, builder-throw,\n"
    "                       verifier-reject, slow-block, alloc-fail;\n"
    "                       rates in [0,1])\n"
    "  --reduce-seconds <S> wall-clock cap for reduce: return the\n"
    "                       best reduction found when it expires\n"
    "\n"
    "service (sched91 serve):\n"
    "  --socket <path>      AF_UNIX socket path (default\n"
    "                       /tmp/sched91.sock)\n"
    "  --queue-capacity <N> admission queue depth (default 64); a\n"
    "                       full queue answers rejected/overloaded\n"
    "  --deadline-ms <ms>   default per-request deadline; expired\n"
    "                       in queue = rejected/deadline, expired\n"
    "                       mid-run = degraded blocks (0 = none)\n"
    "  --threads <N>        worker lanes, 0 to 1024 (0 = hardware\n"
    "                       concurrency)\n"
    "  --stats-json <path>  final stats document at drain (default\n"
    "                       stdout)\n"
    "  --snapshot-seconds <S>  append one stats document (with delta\n"
    "                       counters) to --snapshot-json every S\n"
    "                       seconds, written temp-then-rename\n"
    "  --snapshot-json <path>  periodic snapshot JSONL destination\n"
    "  --trace-json <path>  merged Chrome-trace span stream at drain\n"
    "                       (\"-\" = stdout); `trace-dump` control\n"
    "                       lines serve the same stream live\n"
    "  --interval-ms <ms>   top: scrape period (default 1000)\n"
    "  --iterations <N>     top: render N frames then exit (0 = until\n"
    "                       interrupted; useful for scripts/CI)\n"
    "  --isolate <mode>     none (default) | process: run ladder\n"
    "                       attempts in pre-forked sandbox worker\n"
    "                       subprocesses; a worker killed by a signal,\n"
    "                       rlimit, or the hung-worker watchdog costs\n"
    "                       only its one request (answered degraded,\n"
    "                       payload quarantined) and is respawned\n"
    "  --isolate-hang-ms <ms>  watchdog SIGKILL bound for requests\n"
    "                       with no deadline (default 10000)\n"
    "  --isolate-rlimit-cpu <s>  per-worker RLIMIT_CPU seconds\n"
    "                       (0 = unlimited)\n"
    "  --isolate-rlimit-as-mb <MiB>  per-worker RLIMIT_AS (0 =\n"
    "                       unlimited; keep 0 under sanitizers)\n"
    "\n"
    "exit codes: 0 success (including lenient recovery and a clean\n"
    "drain), 1 runtime error, 2 usage error\n";

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opts;
    if (argc < 2) {
        std::fputs(kUsage, stderr);
        std::exit(2);
    }
    opts.command = argv[1];

    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--kernel")
            opts.kernel = next();
        else if (arg == "--algorithm")
            opts.algorithm =
                parseToken(service::algorithmFromToken, next());
        else if (arg == "--builder")
            opts.builder = parseToken(service::builderFromToken, next());
        else if (arg == "--machine")
            opts.machineName = next();
        else if (arg == "--policy")
            opts.policy = parseToken(service::policyFromToken, next());
        else if (arg == "--window")
            opts.window = parseWhole(arg, next(), 0);
        else if (arg == "--block")
            opts.block = parseWhole(arg, next(), 0);
        else if (arg == "--heuristics")
            opts.heuristics = true;
        else if (arg == "--threads")
            opts.threads = parseWhole(arg, next(), 0u, kMaxThreads);
        else if (arg == "--stats-json")
            opts.statsJson = next();
        else if (arg == "--trace")
            opts.tracePath = next();
        else if (arg == "--trace-format") {
            opts.traceFormat = next();
            if (opts.traceFormat != "jsonl" &&
                opts.traceFormat != "chrome")
                usageError("unknown trace format '", opts.traceFormat,
                           "' (expected jsonl or chrome)");
        } else if (arg == "--counters")
            opts.counters = true;
        else if (arg == "--histograms")
            opts.histograms = true;
        else if (arg == "--zero-times")
            opts.zeroTimes = true;
        else if (arg == "--strict")
            opts.strict = true;
        else if (arg == "--verify")
            opts.verify = true;
        else if (arg == "--no-verify")
            opts.verify = false;
        else if (arg == "--capture-outliers")
            opts.captureOutliers = parseWhole(arg, next(), 1);
        else if (arg == "--outlier-dir")
            opts.outlierDir = next();
        else if (arg == "--explain-block")
            opts.explainBlock = parseWhole(arg, next(), 0);
        else if (arg == "--log-level") {
            try {
                log::setThreshold(log::parseLevel(next()));
            } catch (const FatalError &e) {
                usageError(e.what());
            }
        } else if (arg == "--flight-recorder")
            opts.flightRecorder = true;
        else if (arg == "--crash-dump")
            opts.crashDump = next();
        else if (arg == "--inject-panic") {
            // Undocumented: CI's crash-dump self-test injects a
            // failure after the run so the dump path is exercised
            // without a real bug.
            opts.injectPanic = next();
            if (opts.injectPanic != "run" && opts.injectPanic != "abort")
                usageError("--inject-panic expects 'run' or 'abort'");
        } else if (arg == "--max-block-insts")
            opts.maxBlockInsts = parseWhole(arg, next(), 0);
        else if (arg == "--max-block-seconds")
            opts.maxBlockSeconds = parseDuration(arg, next(), false);
        else if (arg == "--max-run-seconds")
            opts.maxRunSeconds = parseDuration(arg, next(), false);
        else if (arg == "--fault-inject") {
            opts.faultInject = next();
            try {
                (void)fault::parseSpec(opts.faultInject);
            } catch (const FatalError &e) {
                usageError(e.what());
            }
        } else if (arg == "--reduce-seconds")
            opts.reduceSeconds = parseDuration(arg, next(), true);
        else if (arg == "--socket")
            opts.socketPath = next();
        else if (arg == "--queue-capacity")
            opts.queueCapacity = parseWhole(arg, next(), 1);
        else if (arg == "--deadline-ms")
            opts.deadlineMs = parseDuration(arg, next(), false);
        else if (arg == "--snapshot-seconds")
            opts.snapshotSeconds = parseDuration(arg, next(), true);
        else if (arg == "--snapshot-json")
            opts.snapshotJson = next();
        else if (arg == "--trace-json")
            opts.traceJson = next();
        else if (arg == "--interval-ms")
            opts.topIntervalMs = parseWhole(arg, next(), 1);
        else if (arg == "--iterations")
            opts.topIterations = parseWhole(arg, next(), 0);
        else if (arg == "--isolate") {
            opts.isolate = next();
            if (opts.isolate != "none" && opts.isolate != "process")
                usageError("--isolate expects 'none' or 'process'");
        } else if (arg == "--isolate-hang-ms")
            opts.isolateHangMs = parseWhole(arg, next(), 1);
        else if (arg == "--isolate-rlimit-cpu")
            opts.isolateRlimitCpu = parseWhole(arg, next(), 0);
        else if (arg == "--isolate-rlimit-as-mb")
            opts.isolateRlimitAsMb = parseWhole(arg, next(), 0);
        else if (arg == "--isolate-exe")
            opts.isolateExe = next();
        else if (!arg.empty() && arg[0] != '-')
            opts.input = arg;
        else
            usageError("unknown option '", arg,
                       "' (run sched91 with no arguments for usage)");
    }
    return opts;
}

/** Robustness knobs shared by every pipeline-driving command. */
void
applyRobustness(PipelineOptions &pipeline, const CliOptions &opts)
{
    pipeline.verify = opts.verify;
    pipeline.containFaults = !opts.strict;
    pipeline.maxBlockInsts = opts.maxBlockInsts;
    pipeline.maxBlockSeconds = opts.maxBlockSeconds;
    pipeline.maxRunSeconds = opts.maxRunSeconds;
}

// --- Graceful shutdown (docs/ROBUSTNESS.md) --------------------------
//
// Two commands share SIGINT/SIGTERM for graceful shutdown, and both
// handlers are async-signal-safe (a relaxed atomic store, plus one
// write(2) to the daemon's self-pipe):
//
//  - `serve` drains: stop admitting, answer everything already
//    accepted, emit the final stats document, exit 0;
//  - `schedule`/`profile` cancel an interrupt token the pipeline
//    checks at each block start, so remaining blocks degrade to their
//    original order and the run still finishes its accounting, stats
//    output, and exit-0 path.

CancellationToken g_interrupt;
service::Daemon *g_daemon = nullptr;

void
onInterruptSignal(int)
{
    g_interrupt.requestCancel();
}

void
onDaemonSignal(int)
{
    if (g_daemon != nullptr)
        g_daemon->requestDrain();
}

/** Route SIGINT/SIGTERM to @p handler for the scope's lifetime. */
class SignalScope
{
  public:
    explicit SignalScope(void (*handler)(int))
        : prevInt_(std::signal(SIGINT, handler)),
          prevTerm_(std::signal(SIGTERM, handler))
    {
    }
    ~SignalScope()
    {
        std::signal(SIGINT, prevInt_);
        std::signal(SIGTERM, prevTerm_);
    }

    SignalScope(const SignalScope &) = delete;
    SignalScope &operator=(const SignalScope &) = delete;

  private:
    void (*prevInt_)(int);
    void (*prevTerm_)(int);
};

/**
 * Observability bracket for one CLI run: when any obs option is
 * present, enables the layer and installs the session shard on this
 * thread, which every count of the command reaches (the pipeline adds
 * each run's totals to it); opens the trace sink; and on finish()
 * prints the counter table and/or writes the stats JSON.
 */
class ObsSession
{
  public:
    explicit ObsSession(const CliOptions &opts) : opts_(opts)
    {
        if (!opts.observing())
            return;
        obs::setEnabled(true);
        shardScope_.emplace(shard_);
        if (!opts.tracePath.empty()) {
            std::ostream *stream = &std::cout;
            if (opts.tracePath != "-") {
                traceFile_.open(opts.tracePath);
                if (!traceFile_)
                    fatal("cannot open '", opts.tracePath, "'");
                stream = &traceFile_;
            }
            if (opts.traceFormat == "chrome")
                sink_ = std::make_unique<obs::ChromeTraceSink>(
                    *stream, opts.zeroTimes);
            else
                sink_ = std::make_unique<obs::JsonlTraceSink>(
                    *stream, opts.zeroTimes);
        }
    }

    obs::TraceSink *trace() { return sink_.get(); }

    obs::RunMeta
    meta(const CliOptions &opts) const
    {
        obs::RunMeta m;
        m.command = opts.command;
        m.input = opts.kernel.empty() ? opts.input : opts.kernel;
        m.builder = builderKindName(opts.builder);
        m.algorithm = algorithmName(opts.algorithm);
        m.machine = opts.machineName;
        m.policy = aliasPolicyName(opts.policy);
        return m;
    }

    /** Every count made since the session opened. */
    obs::CounterSet counts() const { return shard_.named(); }

    /** Emit --counters and --stats-json output for a finished run. */
    void
    finish(const ProgramResult &result)
    {
        if (!opts_.observing())
            return;
        const obs::CounterSet counted = counts();
        if (opts_.counters)
            std::fputs(obs::renderCounters(counted).c_str(), stderr);
        if (opts_.histograms)
            std::fputs(obs::renderHistograms(result.histograms).c_str(),
                       stderr);
        if (opts_.statsJson.empty())
            return;
        obs::EmitOptions emit;
        emit.zeroTimes = opts_.zeroTimes;
        std::string json = obs::programResultJson(
            result, meta(opts_), counted, &result.phaseTree, emit);
        if (opts_.statsJson == "-") {
            std::fputs(json.c_str(), stdout);
            std::fputc('\n', stdout);
        } else {
            std::ofstream out(opts_.statsJson);
            if (!out)
                fatal("cannot open '", opts_.statsJson, "'");
            out << json << '\n';
        }
    }

    /** Counter table only (commands without a ProgramResult). */
    void
    finishCountersOnly()
    {
        if (opts_.counters)
            std::fputs(obs::renderCounters(counts()).c_str(), stderr);
    }

  private:
    const CliOptions &opts_;
    std::ofstream traceFile_;
    /** Declared after traceFile_ so it is destroyed first — the
     * Chrome sink writes its buffered document on destruction. */
    std::unique_ptr<obs::TraceSink> sink_;
    obs::CounterShard shard_;
    std::optional<obs::ScopedCounterShard> shardScope_;
};

Program
loadInput(const CliOptions &opts, std::size_t *parseErrors = nullptr,
          std::size_t *parseWarnings = nullptr)
{
    if (!opts.kernel.empty())
        return kernelProgram(opts.kernel);
    if (opts.input.empty())
        fatal("no input file; pass a .s file or --kernel <name>");
    std::ifstream in(opts.input);
    if (!in)
        fatal("cannot open '", opts.input, "'");
    std::ostringstream text;
    text << in.rdbuf();

    // Lenient by default: malformed lines become source-located
    // diagnostics on stderr (via the leveled logger, so --log-level
    // error can silence parse warnings) and the rest of the file
    // still schedules.  --strict restores fail-fast (the engine
    // throws on first error).
    DiagnosticEngine::Options dopts;
    dopts.strict = opts.strict;
    dopts.echoToLog = true;
    DiagnosticEngine diags(dopts);
    Program prog =
        parseAssembly(text.str(), diags, opts.input, opts.threads);
    if (diags.hasErrors())
        log::error("sched91: ", diags.errorCount(), " malformed line",
                   diags.errorCount() == 1 ? "" : "s",
                   " dropped; scheduling the rest");
    if (parseErrors)
        *parseErrors = diags.errorCount();
    if (parseWarnings)
        *parseWarnings = diags.warningCount();
    return prog;
}

BlockView
selectBlock(const Program &prog, const CliOptions &opts,
            std::vector<BasicBlock> &blocks)
{
    PartitionOptions popts;
    popts.window = opts.window;
    blocks = partitionBlocks(prog, popts);
    if (opts.block < 0 ||
        opts.block >= static_cast<int>(blocks.size())) {
        fatal("block ", opts.block, " out of range (program has ",
              blocks.size(), " blocks)");
    }
    return BlockView(prog, blocks[static_cast<std::size_t>(opts.block)]);
}

/** The scheduling configuration and robustness knobs of every
 * command that schedules blocks. */
PipelineOptions
blockOptions(const CliOptions &opts)
{
    PipelineOptions pipeline;
    pipeline.algorithm = opts.algorithm;
    pipeline.builder = opts.builder;
    pipeline.build.memPolicy = opts.policy;
    pipeline.partition.window = opts.window;
    applyRobustness(pipeline, opts);
    return pipeline;
}

/** A whole-program run for schedule and profile: evaluated, on
 * --threads lanes, drained by SIGINT/SIGTERM, traced into the
 * session's sink, with the forensics options. */
PipelineOptions
runOptions(const CliOptions &opts, ObsSession &session)
{
    PipelineOptions pipeline = blockOptions(opts);
    pipeline.evaluate = true;
    pipeline.threads = opts.threads;
    pipeline.interrupt = &g_interrupt;
    pipeline.trace = session.trace();
    pipeline.captureOutliers = opts.captureOutliers;
    pipeline.explainBlock = opts.explainBlock;
    return pipeline;
}

/** Cycles scheduling saved, as a percentage of original order. */
double
gainPercent(const ProgramResult &r)
{
    return r.cyclesOriginal ? 100.0 *
                                  (r.cyclesOriginal - r.cyclesScheduled) /
                                  r.cyclesOriginal
                            : 0.0;
}

/** One replayable JSON bundle per captured outlier, written into
 * --outlier-dir as outlier-block<id>.json. */
void
writeOutlierBundles(const std::vector<obs::OutlierRecord> &outliers,
                    const obs::RunMeta &meta, const CliOptions &opts)
{
    obs::EmitOptions emit;
    emit.zeroTimes = opts.zeroTimes;
    for (const obs::OutlierRecord &rec : outliers) {
        std::string path = opts.outlierDir + "/outlier-block" +
                           std::to_string(rec.block) + ".json";
        std::ofstream out(path);
        if (!out)
            fatal("cannot open '", path, "'");
        out << obs::outlierBundleJson(rec, meta, emit) << '\n';
        std::fprintf(stderr, "sched91: wrote %s\n", path.c_str());
    }
}

/** --explain-block's decision trace on stdout, and the
 * --capture-outliers table on stderr (plus --outlier-dir bundles). */
void
printForensics(const ProgramResult &r, const CliOptions &opts,
               const ObsSession &session)
{
    if (opts.explainBlock >= 0) {
        if (r.decisions.empty())
            std::fprintf(stderr,
                         "sched91: no decision trace for block %d "
                         "(out of range or degraded)\n",
                         opts.explainBlock);
        else
            std::fputs(obs::renderDecisionTrace(r.decisions).c_str(),
                       stdout);
    }
    if (opts.captureOutliers > 0) {
        std::fputs(obs::renderOutliers(r.outliers).c_str(), stderr);
        if (!opts.outlierDir.empty())
            writeOutlierBundles(r.outliers, session.meta(opts), opts);
    }
}

/** One block issue on stderr; @p lead (empty, or a pass name and a
 * space) follows the line's `!`. */
void
printIssue(const ProgramResult::BlockIssue &issue, const std::string &lead)
{
    std::fprintf(stderr, "!   %sblock %zu [%s]%s: %s\n", lead.c_str(),
                 issue.block, issue.stage.c_str(),
                 issue.degraded ? " degraded" : "", issue.reason.c_str());
}

/** The run's robustness tallies and block issues on stderr, each line
 * with @p lead as in printIssue. */
void
printIssues(const ProgramResult &r, const std::string &lead = "")
{
    if (r.blocksDegraded || r.builderFallbacks || r.verifierRejections)
        std::fprintf(stderr,
                     "! %srobustness: %zu degraded, %zu builder "
                     "fallbacks, %zu verifier rejections\n",
                     lead.c_str(), r.blocksDegraded, r.builderFallbacks,
                     r.verifierRejections);
    for (const ProgramResult::BlockIssue &issue : r.blockIssues)
        printIssue(issue, lead);
}

int
cmdSchedule(const CliOptions &opts)
{
    SignalScope signals(onInterruptSignal);
    ObsSession session(opts);
    std::size_t parse_errors = 0, parse_warnings = 0;
    const Program prog = loadInput(opts, &parse_errors, &parse_warnings);
    MachineModel machine = presetByName(opts.machineName);

    PipelineOptions pipeline = runOptions(opts, session);
    std::vector<Schedule> schedules;
    pipeline.schedules = &schedules;

    // Flushed before the run: the first byte tells a caller that
    // SIGINT will now drain the run rather than end the process.
    std::printf("! scheduled by sched91 (%s, %s)\n",
                std::string(algorithmName(opts.algorithm)).c_str(),
                std::string(builderKindName(opts.builder)).c_str());
    std::fflush(stdout);
    ProgramResult r = runPipeline(prog, machine, pipeline);
    r.parseErrors = parse_errors;
    r.parseWarnings = parse_warnings;

    const std::vector<BasicBlock> &blocks = r.blocks;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        BlockView block(prog, blocks[b]);
        std::printf(".B%u:\n", blocks[b].begin);
        for (std::uint32_t n : schedules[b].order)
            std::printf("    %s\n", block.inst(n).toString().c_str());
    }
    std::fprintf(stderr, "! %zu blocks, cycles %lld -> %lld (%.1f%%)\n",
                 r.numBlocks, r.cyclesOriginal, r.cyclesScheduled,
                 gainPercent(r));
    session.finish(r);
    printForensics(r, opts, session);
    printIssues(r);
    return 0;
}

int
cmdDag(const CliOptions &opts, bool dot)
{
    ObsSession session(opts);
    const Program prog = loadInput(opts);
    MachineModel machine = presetByName(opts.machineName);
    std::vector<BasicBlock> blocks;
    BlockView block = selectBlock(prog, opts, blocks);

    BuildOptions bopts;
    bopts.memPolicy = opts.policy;
    Dag dag = makeBuilder(opts.builder)->build(block, machine, bopts);
    runAllStaticPasses(dag, PassImpl::ReverseWalk, true);
    session.finishCountersOnly();

    if (dot) {
        DotOptions dopts;
        dopts.showHeuristics = opts.heuristics;
        std::fputs(toDot(dag, dopts).c_str(), stdout);
        return 0;
    }

    std::printf("block %d: %u nodes, %zu arcs (%zu duplicate "
                "attempts merged)\n",
                opts.block, dag.size(), dag.numArcs(),
                dag.duplicateCount());
    for (std::uint32_t i = 0; i < dag.size(); ++i) {
        std::printf("%3u: %-30s d2l=%-3d est=%-3d slack=%-3d "
                    "children=%d\n",
                    i, dag.inst(i).toString().c_str(),
                    dag.ann().maxDelayToLeaf[i],
                    dag.ann().earliestStart[i], dag.ann().slack[i],
                    dag.numChildren(i));
        for (std::uint32_t arc_id : dag.succs(i)) {
            const Arc &arc = dag.arc(arc_id);
            std::printf("       -> %u %s d=%d\n", arc.to,
                        std::string(depKindName(arc.kind)).c_str(),
                        arc.delay);
        }
    }
    return 0;
}

int
cmdCompile(const CliOptions &opts)
{
    ObsSession session(opts);
    const Program prog = loadInput(opts);
    MachineModel machine = presetByName(opts.machineName);
    BackendOptions bopts;
    bopts.pipeline = blockOptions(opts);
    bopts.pipeline.threads = opts.threads;
    BackendResult result = compileProgram(prog, machine, bopts);
    session.finishCountersOnly();
    std::fputs(result.program.toString().c_str(), stdout);
    std::fprintf(stderr,
                 "! %zu blocks (%zu allocated), %d spill stores, %d "
                 "reloads, %lld cycles\n",
                 result.prepass.numBlocks, result.allocatedBlocks,
                 result.spillStores, result.spillLoads,
                 result.postpass.cyclesScheduled);
    printIssues(result.prepass, "prepass ");
    for (const ProgramResult::BlockIssue &issue : result.alloc)
        printIssue(issue, "alloc ");
    printIssues(result.postpass, "postpass ");
    return 0;
}

int
cmdTimeline(const CliOptions &opts)
{
    ObsSession session(opts);
    const Program prog = loadInput(opts);
    MachineModel machine = presetByName(opts.machineName);
    std::vector<BasicBlock> blocks;
    BlockView block = selectBlock(prog, opts, blocks);

    auto result = scheduleBlock(block, machine, blockOptions(opts));
    session.finishCountersOnly();

    std::printf("original order:\n%s\n",
                renderTimeline(result.dag,
                               originalOrderSchedule(result.dag).order,
                               machine)
                    .c_str());
    std::printf("scheduled (%s):\n%s",
                std::string(algorithmName(opts.algorithm)).c_str(),
                renderTimeline(result.dag, result.sched.order, machine)
                    .c_str());
    return 0;
}

int
cmdStats(const CliOptions &opts)
{
    ObsSession session(opts);
    const Program prog = loadInput(opts);
    PartitionOptions popts;
    popts.window = opts.window;
    auto blocks = partitionBlocks(prog, popts);
    auto s = measureStructure(prog, blocks);
    session.finishCountersOnly();
    std::printf("blocks            %zu\n", s.numBlocks);
    std::printf("instructions      %zu\n", s.numInsts);
    std::printf("insts/block       max %d avg %.2f\n",
                static_cast<int>(s.instsPerBlock.max()),
                s.instsPerBlock.avg());
    std::printf("mem exprs/block   max %d avg %.2f\n",
                static_cast<int>(s.memExprsPerBlock.max()),
                s.memExprsPerBlock.avg());
    return 0;
}

int
cmdReport(const CliOptions &opts)
{
    ObsSession session(opts);
    const Program prog = loadInput(opts);
    MachineModel machine = presetByName(opts.machineName);
    PipelineOptions pipeline = blockOptions(opts);
    pipeline.threads = opts.threads;
    ProgramReport report = reportProgram(prog, machine, pipeline);
    std::fputs(report.render(15).c_str(), stdout);
    session.finishCountersOnly();
    printIssues(report.run);
    return 0;
}

int
cmdProfile(const CliOptions &opts)
{
    if (opts.input.empty())
        fatal("usage: sched91 profile <name>");
    SignalScope signals(onInterruptSignal);
    MachineModel machine = presetByName(opts.machineName);
    const Program &prog = cachedProgram(opts.input);

    ObsSession session(opts);
    ProgramResult r =
        runPipeline(prog, machine, runOptions(opts, session));
    session.finish(r);
    printForensics(r, opts, session);
    if (opts.injectPanic == "run")
        panic("injected failure (--inject-panic run)");
    if (opts.injectPanic == "abort")
        std::abort();

    std::printf("profile %s: %zu blocks, %zu insts\n",
                opts.input.c_str(), r.numBlocks, r.numInsts);
    std::printf("build %.2f ms, heuristics %.2f ms, schedule %.2f ms\n",
                r.buildSeconds * 1e3, r.heurSeconds * 1e3,
                r.schedSeconds * 1e3);
    std::printf("arcs/block max %d avg %.2f; children/inst max %d "
                "avg %.2f\n",
                static_cast<int>(r.dagStats.arcsPerBlock.max()),
                r.dagStats.arcsPerBlock.avg(),
                static_cast<int>(r.dagStats.childrenPerInst.max()),
                r.dagStats.childrenPerInst.avg());
    std::printf("cycles %lld -> %lld (%.1f%% gain)\n", r.cyclesOriginal,
                r.cyclesScheduled, gainPercent(r));
    printIssues(r);
    return 0;
}

/**
 * Replay a forensic bundle written by --outlier-dir: re-parse its
 * captured source, re-run the single block under the configuration
 * recorded in its meta section, and print the per-pick decision
 * trace.  The replay is deterministic, so the reconstructed schedule
 * is the one the original run emitted.
 */
int
cmdExplain(const CliOptions &opts)
{
    if (opts.input.empty())
        fatal("usage: sched91 explain <bundle.json>");
    std::ifstream in(opts.input);
    if (!in)
        fatal("cannot open '", opts.input, "'");
    std::ostringstream text;
    text << in.rdbuf();
    obs::JsonValue doc = obs::parseJson(text.str());
    if (!doc.has("sched91_outlier"))
        fatal("'", opts.input,
              "' is not a sched91 outlier bundle (missing "
              "sched91_outlier marker)");
    if (!doc.has("source") || !doc.at("source").isString())
        fatal("'", opts.input, "' carries no source text to replay");

    // Capture configuration: bundle meta wins; CLI options fill any
    // gaps (old bundles without a policy field, say).  Meta carries
    // display names, which the service's token parsers accept; a bad
    // one is a data error (exit 1), not a usage error.
    AlgorithmKind algorithm = opts.algorithm;
    BuilderKind builder = opts.builder;
    AliasPolicy policy = opts.policy;
    std::string machineName = opts.machineName;
    if (doc.has("meta")) {
        const obs::JsonValue &meta = doc.at("meta");
        std::string name = meta.strOr("algorithm", "");
        if (!name.empty())
            algorithm = service::algorithmFromToken(name);
        name = meta.strOr("builder", "");
        if (!name.empty())
            builder = service::builderFromToken(name);
        name = meta.strOr("policy", "");
        if (!name.empty())
            policy = service::policyFromToken(name);
        machineName = meta.strOr("machine", machineName);
    }

    const long long block =
        static_cast<long long>(doc.numberOr("block", -1));
    std::printf("bundle %s: block %lld, score %.0f, %.0f insts\n",
                opts.input.c_str(), block, doc.numberOr("score", 0),
                doc.numberOr("insts", 0));
    if (doc.has("meta")) {
        // Daemon-captured bundles carry the request's live trace id,
        // so a bundle cross-references its span tree in a
        // `trace-dump` / --trace-json stream.
        const std::string traceId =
            doc.at("meta").strOr("trace_id", "");
        if (!traceId.empty())
            std::printf("trace id: %s\n", traceId.c_str());
    }
    if (doc.has("issue")) {
        const obs::JsonValue &issue = doc.at("issue");
        std::string stage = issue.strOr("stage", "");
        if (!stage.empty())
            std::printf("issue: [%s] %s\n", stage.c_str(),
                        issue.strOr("reason", "").c_str());
    }

    // The captured source is one block's instructions (Inst::toString
    // round-trips through the parser); replay it as block 0.
    DiagnosticEngine diags;
    const Program prog =
        parseAssembly(doc.at("source").str(), diags, opts.input);
    if (diags.hasErrors())
        fatal("bundle source does not re-parse:\n", diags.render());
    MachineModel machine = presetByName(machineName);

    PipelineOptions pipeline;
    pipeline.algorithm = algorithm;
    pipeline.builder = builder;
    pipeline.build.memPolicy = policy;
    pipeline.threads = 1;
    pipeline.explainBlock = 0;
    applyRobustness(pipeline, opts);
    ProgramResult r = runPipeline(prog, machine, pipeline);
    if (r.decisions.empty())
        fatal("replay produced no decision trace (block degraded: ",
              r.blocksDegraded, ")");
    std::fputs(obs::renderDecisionTrace(r.decisions).c_str(), stdout);
    return 0;
}

/**
 * Long-lived scheduling daemon (service/daemon.hh): newline-delimited
 * JSON requests over an AF_UNIX socket, each run through the
 * admission-control + deadline + retry/degradation ladder.
 * SIGINT/SIGTERM drains gracefully and the final stats document (the
 * drain contract) goes to --stats-json, default stdout.
 */
int
cmdServe(const CliOptions &opts)
{
    // The daemon always observes: the per-request histograms and
    // counter deltas in the final stats document are part of the
    // drain contract, not an opt-in.
    obs::setEnabled(true);

    if (opts.snapshotSeconds > 0.0 && opts.snapshotJson.empty())
        fatal("serve: --snapshot-seconds needs --snapshot-json");

    service::DaemonConfig cfg;
    cfg.socketPath = opts.socketPath;
    cfg.workers = opts.threads;
    cfg.queueCapacity = static_cast<std::size_t>(opts.queueCapacity);
    cfg.statsPath = opts.statsJson.empty() ? "-" : opts.statsJson;
    cfg.zeroTimes = opts.zeroTimes;
    cfg.snapshotSeconds = opts.snapshotSeconds;
    cfg.snapshotPath = opts.snapshotJson;
    cfg.tracePath = opts.traceJson;
    cfg.engine.builder = opts.builder;
    cfg.engine.algorithm = opts.algorithm;
    cfg.engine.policy = opts.policy;
    cfg.engine.machineName = opts.machineName;
    cfg.engine.defaultDeadlineMs = opts.deadlineMs;
    cfg.engine.maxBlockInsts = opts.maxBlockInsts;
    cfg.engine.captureOutliers = opts.captureOutliers;
    cfg.engine.outlierDir = opts.outlierDir;
    cfg.isolateProcess = opts.isolate == "process";
    cfg.isolateHangMs = opts.isolateHangMs;
    cfg.isolateRlimitCpu = opts.isolateRlimitCpu;
    cfg.isolateRlimitAsMb =
        static_cast<std::size_t>(opts.isolateRlimitAsMb);
    cfg.sandboxWorkerExe = opts.isolateExe;

    service::Daemon daemon(cfg);
    g_daemon = &daemon;
    SignalScope signals(onDaemonSignal);
    int rc = daemon.run();
    g_daemon = nullptr;
    return rc;
}

/** Human-scaled duration from nanoseconds. */
std::string
fmtNs(double ns)
{
    char buf[64];
    if (ns >= 1e9)
        std::snprintf(buf, sizeof buf, "%.2fs", ns / 1e9);
    else if (ns >= 1e6)
        std::snprintf(buf, sizeof buf, "%.1fms", ns / 1e6);
    else if (ns >= 1e3)
        std::snprintf(buf, sizeof buf, "%.1fus", ns / 1e3);
    else
        std::snprintf(buf, sizeof buf, "%.0fns", ns);
    return buf;
}

/**
 * `sched91 top [socket]`: poll the daemon's in-band `stats` endpoint
 * and render a refreshing console frame — request rates, queue
 * pressure, latency percentiles, ladder tallies, worker health.  The
 * scrape path never enters the admission queue, so the console stays
 * live while the daemon sheds load.  With --iterations N the view
 * renders N frames without clearing the screen (scripts, CI).
 */
int
cmdTop(const CliOptions &opts)
{
    const std::string socket =
        !opts.input.empty() ? opts.input : opts.socketPath;
    const int fd = connectUnix(socket);
    if (fd < 0)
        fatal("top: connect('", socket, "'): ", std::strerror(errno),
              " (is the daemon running?)");
    LineReader reader(fd);
    const bool refresh =
        opts.topIterations == 0 && ::isatty(STDOUT_FILENO) != 0;

    double lastAccepted = -1.0;
    for (int frame = 0;
         opts.topIterations == 0 || frame < opts.topIterations;
         ++frame) {
        if (frame > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(opts.topIntervalMs));
        if (!writeLine(fd, R"({"type":"stats","id":"top"})"))
            fatal("top: send(): ", std::strerror(errno));
        std::string_view line;
        if (reader.read(line, -1) != LineReader::Status::Line)
            fatal("top: daemon closed the connection (draining?)");
        obs::JsonValue doc = obs::parseJson(std::string(line));
        if (!doc.has("sched91_serve_stats"))
            fatal("top: unexpected response (not a stats document): ",
                  line.substr(0, 120));

        const obs::JsonValue &svc = doc.at("service");
        const obs::JsonValue &meta = doc.at("meta");
        const double accepted = svc.numberOr("accepted", 0);
        const double rps =
            lastAccepted >= 0.0
                ? (accepted - lastAccepted) * 1000.0 /
                      static_cast<double>(opts.topIntervalMs)
                : 0.0;
        lastAccepted = accepted;

        auto pct = [&doc](const char *hist, const char *p) -> double {
            if (!doc.has("histograms"))
                return 0.0;
            const obs::JsonValue &hists = doc.at("histograms");
            if (!hists.has(hist))
                return 0.0;
            return hists.at(hist).numberOr(p, 0);
        };

        std::string frameText;
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "sched91 top — %s   uptime %.1fs   machine %s\n",
                      socket.c_str(),
                      meta.numberOr("uptime_seconds", 0),
                      meta.strOr("machine", "?").c_str());
        frameText += buf;
        std::snprintf(
            buf, sizeof buf,
            "requests  accepted %.0f  ok %.0f  degraded %.0f  "
            "error %.0f  rejected %.0f (after admit %.0f)\n",
            accepted, svc.numberOr("ok", 0),
            svc.numberOr("degraded", 0), svc.numberOr("error", 0),
            svc.numberOr("rejected", 0),
            svc.numberOr("rejected_after_admit", 0));
        frameText += buf;
        const obs::JsonValue &queue = doc.at("queue");
        std::snprintf(
            buf, sizeof buf,
            "load      rps %.1f   queue %.0f/%.0f   wait p50 %s "
            "p99 %s   latency p50 %s p99 %s\n",
            rps, queue.numberOr("depth", 0),
            queue.numberOr("capacity", 0),
            fmtNs(pct("svc.queue_wait_ns", "p50")).c_str(),
            fmtNs(pct("svc.queue_wait_ns", "p99")).c_str(),
            fmtNs(pct("svc.request_ns", "p50")).c_str(),
            fmtNs(pct("svc.request_ns", "p99")).c_str());
        frameText += buf;
        std::snprintf(
            buf, sizeof buf,
            "ladder    retries %.0f  fallbacks %.0f  quarantine %.0f "
            "(adds %.0f, hits %.0f)  deadline %.0f\n",
            svc.numberOr("retries", 0),
            svc.numberOr("degraded_fallbacks", 0),
            svc.numberOr("quarantine_size", 0),
            svc.numberOr("quarantine_adds", 0),
            svc.numberOr("quarantine_hits", 0),
            svc.numberOr("deadline_expired", 0));
        frameText += buf;
        if (meta.strOr("isolate", "") == "process") {
            std::snprintf(
                buf, sizeof buf,
                "workers   lanes %.0f  live %.0f  crashes %.0f  "
                "kills %.0f  respawns %.0f  spawn-failures %.0f\n",
                meta.numberOr("workers", 0),
                svc.numberOr("workers_live", 0),
                svc.numberOr("worker_crashes", 0),
                svc.numberOr("worker_kills", 0),
                svc.numberOr("worker_respawns", 0),
                svc.numberOr("worker_spawn_failures", 0));
            frameText += buf;
        }
        if (doc.has("trace")) {
            std::snprintf(buf, sizeof buf,
                          "trace     spans %.0f (dropped %.0f)\n",
                          doc.at("trace").numberOr("spans", 0),
                          doc.at("trace").numberOr("dropped", 0));
            frameText += buf;
        }

        if (refresh)
            std::fputs("\x1b[H\x1b[2J", stdout);
        else if (frame > 0)
            std::fputc('\n', stdout);
        std::fputs(frameText.c_str(), stdout);
        std::fflush(stdout);
    }
    ::close(fd);
    return 0;
}

/**
 * Shrink a source that fails the differential oracle to a near-
 * minimal reproducer (fuzz/differential.hh): whole lines first, then
 * trailing operands.  --reduce-seconds caps the search wall-clock and
 * returns the best reduction found so far.  An input that passes the
 * oracle is a data error (exit 1) — there is nothing to reduce.
 */
int
cmdReduce(const CliOptions &opts)
{
    std::string source;
    if (!opts.kernel.empty()) {
        source = kernelProgram(opts.kernel).toString();
    } else {
        if (opts.input.empty())
            fatal("usage: sched91 reduce <file.s> "
                  "[--reduce-seconds S]");
        std::ifstream in(opts.input);
        if (!in)
            fatal("cannot open '", opts.input, "'");
        std::ostringstream text;
        text << in.rdbuf();
        source = text.str();
    }

    MachineModel machine = presetByName(opts.machineName);
    fuzz::OracleOptions oopts;
    oopts.memPolicy = opts.policy;

    ObsSession session(opts);
    fuzz::OracleReport report =
        fuzz::checkSource(source, machine, oopts);
    if (report.ok)
        fatal("input passes the differential oracle (",
              report.blocksChecked, " blocks, ",
              report.schedulesChecked,
              " schedules checked); nothing to reduce");
    std::fprintf(stderr, "sched91: oracle failure: %s\n",
                 report.failure.c_str());

    std::string reduced = fuzz::minimizeSource(source, machine, oopts,
                                               opts.reduceSeconds);
    auto lineCount = [](const std::string &text) {
        return static_cast<std::size_t>(
            std::count(text.begin(), text.end(), '\n'));
    };
    std::fprintf(stderr, "sched91: reduced %zu -> %zu lines%s\n",
                 lineCount(source), lineCount(reduced),
                 opts.reduceSeconds > 0.0 ? " (wall-clock capped)"
                                          : "");
    session.finishCountersOnly();
    std::fputs(reduced.c_str(), stdout);
    return 0;
}

/**
 * Hidden command: the child side of `sched91 serve --isolate=process`
 * (service/sandbox_worker.hh).  Spawned only by the supervisor, which
 * generates exactly this flag set — so it parses its own argv (the
 * fd-plumbing flags are not part of the public CLI) and never prints
 * usage.
 */
int
cmdSandboxWorker(int argc, char **argv)
{
    service::SandboxWorkerConfig cfg;
    std::string faultSpec;
    try {
        for (int i = 2; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    fatal("missing value for ", arg);
                return argv[++i];
            };
            if (arg == "--fd")
                cfg.fd = parseWhole(arg, next(), 0);
            else if (arg == "--ring-fd")
                cfg.ringFd = parseWhole(arg, next(), 0);
            else if (arg == "--machine")
                cfg.engine.machineName = next();
            else if (arg == "--max-block-insts")
                cfg.engine.maxBlockInsts = parseWhole(arg, next(), 0);
            else if (arg == "--capture-outliers")
                cfg.engine.captureOutliers = parseWhole(arg, next(), 0);
            else if (arg == "--outlier-dir")
                cfg.engine.outlierDir = next();
            else if (arg == "--fault-inject")
                faultSpec = next();
            else
                fatal("unknown option '", arg, "'");
        }
        if (!faultSpec.empty())
            fault::configure(fault::parseSpec(faultSpec));
        return service::runSandboxWorker(cfg);
    } catch (const UsageError &e) {
        std::fprintf(stderr, "sched91 __sandbox-worker: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sched91 __sandbox-worker: %s\n",
                     e.what());
        return 1;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // Dispatched before parseArgs: the worker's fd-plumbing flags are
    // internal, not public CLI surface.
    if (argc >= 2 &&
        std::strcmp(argv[1], "__sandbox-worker") == 0)
        return cmdSandboxWorker(argc, argv);
    try {
        CliOptions opts = parseArgs(argc, argv);
        if (opts.flightRecorder || !opts.crashDump.empty()) {
            obs::flight::setEnabled(true);
            obs::flight::setCrashDump(opts.crashDump, opts.zeroTimes);
            obs::flight::installCrashHandlers();
        }
        if (!opts.faultInject.empty())
            fault::configure(fault::parseSpec(opts.faultInject));
        if (opts.command == "schedule")
            return cmdSchedule(opts);
        if (opts.command == "dag")
            return cmdDag(opts, /*dot=*/false);
        if (opts.command == "dot")
            return cmdDag(opts, /*dot=*/true);
        if (opts.command == "stats")
            return cmdStats(opts);
        if (opts.command == "profile")
            return cmdProfile(opts);
        if (opts.command == "report")
            return cmdReport(opts);
        if (opts.command == "timeline")
            return cmdTimeline(opts);
        if (opts.command == "compile")
            return cmdCompile(opts);
        if (opts.command == "explain")
            return cmdExplain(opts);
        if (opts.command == "serve")
            return cmdServe(opts);
        if (opts.command == "top")
            return cmdTop(opts);
        if (opts.command == "reduce")
            return cmdReduce(opts);
        if (opts.command == "kernels") {
            for (const std::string &name : kernelNames())
                std::printf("%s\n", name.c_str());
            return 0;
        }
        std::fprintf(stderr, "sched91: unknown command '%s'\n\n",
                     opts.command.c_str());
        std::fputs(kUsage, stderr);
        return 2;
    } catch (const UsageError &e) {
        std::fprintf(stderr, "sched91: %s\n\n", e.what());
        std::fputs(kUsage, stderr);
        return 2;
    } catch (const PanicError &e) {
        // Internal invariant violation — still a clean exit, never an
        // abort (docs/ROBUSTNESS.md exit-code contract).  With the
        // flight recorder on, the last-events dump lands first so the
        // forensics survive the exit.
        if (obs::flight::enabled())
            obs::flight::writeCrashDump(e.what());
        std::fprintf(stderr, "sched91: internal error: %s\n", e.what());
        return 1;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "sched91: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sched91: unexpected error: %s\n",
                     e.what());
        return 1;
    }
}
