/**
 * @file
 * perfbench_harness: the timed half of the benchmark.  run.py builds
 * it, runs it once per workload run, and turns the raw record it
 * writes into metrics.
 *
 *     perfbench_harness --workload batch-table3|serve-inproc|serve-isolated
 *                       --seed N --seconds S --trace 0|1
 *                       --sched91 PATH --out FILE
 *                       [--kill-daemon-after-ms MS]
 *
 * Exit codes: 0 run complete, 1 run failed (the record says why),
 * 2 usage or an unoptimised build.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include <sys/prctl.h>

#include "common.hh"

using namespace perfbench;

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string arg = argv[i];
        const char *val = argv[i + 1];
        if (arg == "--workload")
            opts.workload = val;
        else if (arg == "--seed")
            opts.seed = std::strtoull(val, nullptr, 10);
        else if (arg == "--seconds")
            opts.seconds = std::atof(val);
        else if (arg == "--trace")
            opts.trace = std::string(val) == "1";
        else if (arg == "--sched91")
            opts.sched91 = val;
        else if (arg == "--out")
            opts.out = val;
        else if (arg == "--kill-daemon-after-ms")
            opts.killDaemonAfterMs = std::atoi(val);
        else {
            std::fprintf(stderr, "perfbench_harness: unknown option %s\n",
                         arg.c_str());
            return 2;
        }
    }
    if (opts.out.empty() || opts.seconds <= 0.0) {
        std::fputs("perfbench_harness: --out and --seconds > 0 required\n",
                   stderr);
        return 2;
    }
    if (!optimizedBuild()) {
        std::fputs("perfbench_harness: refusing to time a build compiled "
                   "without optimisation\n",
                   stderr);
        return 2;
    }
    // Sandbox workers that outlive a killed daemon are re-parented
    // here, so the harness can wait for every process it caused.
    ::prctl(PR_SET_CHILD_SUBREAPER, 1);
    std::signal(SIGPIPE, SIG_IGN);

    try {
        if (opts.workload == "batch-table3")
            return runBatch(opts);
        if (opts.workload == "serve-inproc" ||
            opts.workload == "serve-isolated") {
            if (opts.sched91.empty()) {
                std::fputs("perfbench_harness: --sched91 required\n", stderr);
                return 2;
            }
            return runServe(opts);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "perfbench_harness: unknown workload '%s'\n",
                 opts.workload.c_str());
    return 2;
}
