/**
 * @file
 * Benchmark-regression gate: diffs two sets of BENCH_*.json records
 * (schema sched91.bench.v2, emitted by the bench/ targets via
 * bench_util.hh) and exits non-zero when a median regression exceeds
 * its threshold.
 *
 *   bench_compare BASELINE CURRENT [options]
 *
 * BASELINE and CURRENT are record files (one JSON object per line) or
 * directories of BENCH_*.json files.  Records pair up by
 * (bench, workload, threads); each shared metric's median is compared.
 *
 * Gating policy follows the two metric families bench_util.hh emits:
 *
 * - Noisy metrics (suffixes "_seconds", "_ns", "_ratio", "speedup",
 *   "iterations") depend on the host and the moment; they gate by
 *   default with a deliberately loose threshold (25%) and are only
 *   meaningful when baseline and current ran on the same machine.
 *   --no-time-gate demotes them to report-only — required when
 *   diffing against a baseline recorded elsewhere (the CI job).
 *
 * - Deterministic metrics (cycle counts, arc counts, structural
 *   data, decision tallies) are exactly reproducible, so any drift
 *   is reported; --gate-drift turns that drift into a failure, which
 *   is the committed-baseline CI gate.  An intentional change
 *   regenerates the baseline (tools/run_bench.sh --update-baseline).
 *   Each record's `counters` section is compared the same way, under
 *   the name "counters.<counter>", whatever the counter's suffix.
 *
 *   --threshold PCT            default threshold for noisy metrics
 *   --threshold NAME=PCT       per-metric threshold (enables gating
 *                              for a deterministic metric NAME)
 *   --no-time-gate             noisy metrics report, never fail
 *   --gate-drift               deterministic drift fails the run
 *   --list                     print every paired metric, not just
 *                              regressions
 *
 * Exit codes: 0 = no regression, 1 = at least one regression,
 * 2 = bad usage / unreadable or malformed input.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_parse.hh"
#include "support/logging.hh"

using sched91::fatal;
using sched91::FatalError;
using sched91::obs::JsonValue;
using sched91::obs::parseJson;

namespace
{

constexpr const char *kSchema = "sched91.bench.v2";
constexpr double kDefaultThreshold = 0.25; // 25%

struct Options
{
    std::string baseline;
    std::string current;
    double defaultThreshold = kDefaultThreshold;
    std::map<std::string, double> perMetric;
    bool listAll = false;
    bool noTimeGate = false;
    bool gateDrift = false;
};

/** One record: (bench, workload, threads) -> metric medians. */
struct Record
{
    std::map<std::string, double> medians;
    std::map<std::string, double> p90s;
};

using RecordMap = std::map<std::string, Record>;

/** Prefix under which a record's counters join its metrics. */
constexpr const char *kCounterPrefix = "counters.";

/** Host-dependent metrics: comparable only within one machine/run. */
bool
isNoisyMetric(const std::string &name)
{
    if (name.rfind(kCounterPrefix, 0) == 0)
        return false;
    auto ends = [&](const char *suffix) {
        std::size_t n = std::strlen(suffix);
        return name.size() >= n &&
               name.compare(name.size() - n, n, suffix) == 0;
    };
    return ends("_seconds") || ends("_ns") || ends("_ratio") ||
           ends("speedup") || ends("iterations");
}

void
loadFile(const std::filesystem::path &path, RecordMap &out)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open ", path.string());
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.find_first_not_of(" \t\r\n") == std::string::npos)
            continue;
        JsonValue v;
        try {
            v = parseJson(line);
        } catch (const FatalError &e) {
            fatal(path.string(), ":", lineno, ": ", e.what());
        }
        std::string schema = v.strOr("schema", "");
        if (schema != kSchema)
            fatal(path.string(), ":", lineno,
                  ": unsupported schema \"", schema, "\" (want ",
                  kSchema, ")");
        std::ostringstream key;
        key << v.strOr("bench", "?") << " / "
            << v.strOr("workload", "?") << " / t"
            << v.numberOr("threads", 0);
        Record &rec = out[key.str()];
        if (v.has("metrics") && v.at("metrics").isObject()) {
            for (const auto &[name, m] : v.at("metrics").object()) {
                rec.medians[name] = m.numberOr("median", 0.0);
                rec.p90s[name] = m.numberOr("p90", 0.0);
            }
        }
        if (v.has("counters") && v.at("counters").isObject())
            for (const auto &[name, c] : v.at("counters").object())
                if (c.isNumber())
                    rec.medians[kCounterPrefix + name] = c.number();
    }
}

/** Load a record file, or every BENCH_*.json inside a directory. */
RecordMap
load(const std::string &target)
{
    namespace fs = std::filesystem;
    RecordMap out;
    fs::path p(target);
    if (fs::is_directory(p)) {
        std::vector<fs::path> files;
        for (const auto &entry : fs::directory_iterator(p)) {
            const std::string name = entry.path().filename().string();
            if (entry.is_regular_file() &&
                name.rfind("BENCH_", 0) == 0 &&
                entry.path().extension() == ".json")
                files.push_back(entry.path());
        }
        if (files.empty())
            fatal("no BENCH_*.json files in ", target);
        std::sort(files.begin(), files.end());
        for (const fs::path &f : files)
            loadFile(f, out);
    } else {
        loadFile(p, out);
    }
    return out;
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--list") {
            opts.listAll = true;
        } else if (arg == "--no-time-gate") {
            opts.noTimeGate = true;
        } else if (arg == "--gate-drift") {
            opts.gateDrift = true;
        } else if (arg == "--threshold") {
            if (++i >= argc)
                fatal("--threshold needs a value");
            std::string val = argv[i];
            std::size_t eq = val.find('=');
            try {
                if (eq == std::string::npos)
                    opts.defaultThreshold = std::stod(val) / 100.0;
                else
                    opts.perMetric[val.substr(0, eq)] =
                        std::stod(val.substr(eq + 1)) / 100.0;
            } catch (const std::exception &) {
                fatal("bad --threshold value: ", val);
            }
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: bench_compare BASELINE CURRENT "
                "[--threshold PCT | --threshold NAME=PCT]... "
                "[--no-time-gate] [--gate-drift] [--list]\n");
            std::exit(0);
        } else if (!arg.empty() && arg[0] == '-') {
            fatal("unknown option ", arg);
        } else {
            positional.push_back(arg);
        }
    }
    if (positional.size() != 2)
        fatal("expected exactly two inputs (baseline, current), got ",
              positional.size());
    opts.baseline = positional[0];
    opts.current = positional[1];
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Options opts = parseArgs(argc, argv);
        RecordMap base = load(opts.baseline);
        RecordMap cur = load(opts.current);

        int regressions = 0;
        int compared = 0;
        int drifted = 0;
        std::vector<std::string> missing, added;

        for (const auto &[key, brec] : base) {
            auto it = cur.find(key);
            if (it == cur.end()) {
                missing.push_back(key);
                continue;
            }
            for (const auto &[name, bmed] : brec.medians) {
                auto mit = it->second.medians.find(name);
                if (mit == it->second.medians.end())
                    continue;
                double cmed = mit->second;
                ++compared;

                const bool noisy = isNoisyMetric(name);
                auto tit = opts.perMetric.find(name);
                bool gated;
                double threshold;
                if (tit != opts.perMetric.end()) {
                    gated = true;
                    threshold = tit->second;
                } else if (noisy) {
                    gated = !opts.noTimeGate;
                    threshold = opts.defaultThreshold;
                } else {
                    // Deterministic metric: exact match expected.
                    gated = opts.gateDrift;
                    threshold = 0.0;
                }

                double delta = cmed - bmed;
                double rel = bmed != 0.0 ? delta / bmed
                             : cmed != 0.0 ? 1.0
                                           : 0.0;
                // Deterministic metrics regress in either direction;
                // noisy ones only when slower.
                double excess = noisy ? rel : std::abs(rel);
                bool regressed = gated && excess > threshold;
                bool changed = delta != 0.0;
                if (regressed)
                    ++regressions;
                else if (changed && !noisy)
                    ++drifted;

                if (regressed || opts.listAll || (changed && !noisy)) {
                    std::string gate_label =
                        gated ? "[>" +
                                    std::to_string(static_cast<int>(
                                        threshold * 100)) +
                                    "%]"
                              : "[report]";
                    std::printf(
                        "%s  %-11s %s :: %s  %.6g -> %.6g  "
                        "(%+.1f%%%s)\n",
                        regressed ? "REGRESSION" : "          ",
                        gate_label.c_str(), key.c_str(), name.c_str(),
                        bmed, cmed, 100.0 * rel,
                        gated ? "" : ", not gated");
                }
            }
        }
        for (const auto &[key, crec] : cur)
            if (!base.count(key))
                added.push_back(key);

        for (const std::string &key : missing)
            std::printf("MISSING     %s (in baseline only)\n",
                        key.c_str());
        for (const std::string &key : added)
            std::printf("NEW         %s (in current only)\n",
                        key.c_str());

        std::printf("bench_compare: %d metric(s) compared, "
                    "%d regression(s), %d non-time drift(s), "
                    "%zu missing, %zu new\n",
                    compared, regressions, drifted, missing.size(),
                    added.size());
        return regressions > 0 ? 1 : 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "bench_compare: %s\n", e.what());
        return 2;
    }
}
