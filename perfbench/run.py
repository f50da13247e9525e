#!/usr/bin/env python3
"""sched91 benchmark: one command, three workloads (see README.md).

    python3 perfbench/run.py --workload batch-table3|serve-inproc|serve-isolated
                             --seed N --seconds S --trace 0|1

Builds the library, the `sched91` CLI and the harness from the sources
in this checkout (into $CARGO_TARGET_DIR or .bench_build/), runs one
workload, checks every output, and prints every metric by name with
its unit and sample count.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  Exits non-zero on any correctness or determinism
failure, and without a result line when the benchmark cannot run.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import metrics as M  # noqa: E402

WORKLOADS = ("batch-table3", "serve-inproc", "serve-isolated")
DEADLINE_S = 170  # the whole command must end within 180 s
START = time.monotonic()


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def die(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def build():
    """Configure (once) and build the harness and the CLI; return the
    build directory."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no sched91 sources beside perfbench/; run from a checkout")
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, base, "perfbench-release")
    jobs = str(os.cpu_count() or 2)
    cmds = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"] + gen)
    cmds.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                 "perfbench_harness", "sched91-cli"])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env, timeout=840).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return bdir


def git_describe():
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                              "--dirty"], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_harness(bdir, args, rundir):
    """Run the harness in @rundir (its daemons' sockets live there);
    return (exit code, raw record or None)."""
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    raw = os.path.join(rundir, "raw.json")
    cmd = [os.path.join(bdir, "perfbench_harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sched91", os.path.join(bdir, "tools", "sched91"),
           "--out", raw]
    budget = max(10.0, DEADLINE_S - (time.monotonic() - START))
    proc = subprocess.Popen(cmd, cwd=rundir, stdout=sys.stderr,
                            stderr=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        # Daemons die with the harness (PR_SET_PDEATHSIG in serve.cc).
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("perfbench: harness overran its %.0f s budget" % budget)
        return 1, None
    try:
        with open(raw) as f:
            return code, json.load(f)
    except (OSError, ValueError):
        return code, None


def load_json(path):
    with open(path) as f:
        return json.load(f)


# --- Metric assembly -------------------------------------------------

def end_to_end(rec):
    """End-to-end metrics and the failure tally of an untimed record."""
    t, c = rec["timed"], rec["check"]
    insts = t["insts_ok"]
    if rec["workload"] == "batch-table3":
        failures = (t["degraded"] + c["check_failures"] + t["digest_mismatches"]
                    + rec.get("traced", {}).get("digest_mismatches", 0))
        ratio = t["degraded_blocks"] / t["blocks"]
        ratio_note = "degraded blocks / blocks: %d/%d" % (
            t["degraded_blocks"], t["blocks"])
    else:
        failures = (t["degraded"] + t["rejected"] + t["error"] + t["lost"]
                    + t["strays"] + c["check_failures"] + c["unanswered"]
                    + c["oracle_mismatches"] + c["repeat_mismatches"])
        ratio = M.fail_ratio(t["sent"], t["degraded"], t["rejected"],
                             t["error"] + t["strays"], t["lost"],
                             c["check_failures"] + c["oracle_mismatches"]
                             + c["repeat_mismatches"] + c["unanswered"])
        ratio_note = "%d of %d requests" % (failures, t["sent"])
    if "processes" in t:
        rss = t["peak_rss_bytes"]
        rss_note = "VmHWM, daemon + %d workers" % (t["processes"] - 1)
    else:
        rss = rec["peak_rss_bytes"]
        rss_note = "VmHWM over one compile, heap trimmed before"
    # Timing metrics are taken per unit of the window (one-second
    # slices; batch: passes) and fitted to zero host steal.
    nproc = rec["stamp"]["nproc"]
    if "pass_s" in t:  # batch: one compile per cell and pass
        n = t["passes"]
        stolen = [s / (d * nproc) for s, d
                  in zip(t["pass_steal_s"], t["pass_s"])]
        cells = t["sent"] // n
        lat = [t["latency_ns"][p * cells:(p + 1) * cells] for p in range(n)]
        insts_rate = [i / d for i, d in zip(t["pass_insts"], t["pass_s"])]
        req_rate = [t["ok"] / n / d for d in t["pass_s"]]
        unit = "passes"
        # Percentiles of each pass's compiles rest on a fixed number of
        # samples, so they do not move up the tail when a faster
        # library fits more passes into the window.
        tails = [99.0] * n
        tail_note = "p99 of each pass's %d compiles (fixed n, no 10 beyond)" \
            % cells
    else:
        n = min(int(t["window_s"]), len(t["slice_steal_s"]))
        span = 1.0
        stolen = [s / nproc for s in t["slice_steal_s"][:n]]
        if n == 0:  # shorter than a slice: the window is one unit
            n, span = 1, t["window_s"] * (1 + 1e-9)
            stolen = [t["steal_s"] / (span * nproc)]
        lat = M.slice_groups(t["done_ns"], t["latency_ns"], n, span)
        ok_insts = M.slice_groups(t["done_ns"], t["insts"], n, span)
        insts_rate = [sum(g) / span for g in ok_insts]
        req_rate = [sum(1 for i in g if i) / span for g in ok_insts]
        unit = "one-second slices"
        tails = [M.tail_pct(len(g)) for g in lat]
        sizes = [len(g) for g, p in zip(lat, tails) if p]
        tail_note = ("per slice p%.2f-p%.2f of %d-%d samples, >= %d beyond"
                     % (min(p for p in tails if p), max(p for p in tails if p),
                        min(sizes), max(sizes), M.MIN_BEYOND)
                     if sizes else "too few samples")
    p50 = [(s, M.percentile(g, 50) / 1e6) for s, g in zip(stolen, lat) if g]
    p99 = [(s, M.percentile(g, p) / 1e6)
           for s, g, p in zip(stolen, lat, tails) if p and g]

    def fitted(pairs, rises):
        """Zero-steal value of (stolen, value) pairs, and its note."""
        if not pairs:
            return 0.0, "no samples"
        st = [s for s, _ in pairs]
        value, how = M.at_zero_steal(st, [v for _, v in pairs], rises)
        return value, "%s of %d %s, %.1f-%.1f%% stolen" % (
            "zero-steal fit" if how == "fit" else how, len(pairs), unit,
            100 * min(st), 100 * max(st))

    insts_value, insts_note = fitted(list(zip(stolen, insts_rate)), False)
    rps_value, rps_note = fitted(list(zip(stolen, req_rate)), False)
    p50_value, p50_note = fitted(p50, True)
    p99_value, p99_note = fitted(p99, True)
    values = {
        "setup_s": (statistics.median(rec["setup_s"]), "s",
                    "median of %d set-ups" % len(rec["setup_s"])),
        "throughput_insts_per_s": (insts_value, "insts/s",
                                   "%s; %d insts in %.3f s"
                                   % (insts_note, insts, t["window_s"])),
        "throughput_rps": (rps_value, "req/s",
                           "%s; %d ok" % (rps_note, t["ok"])),
        "latency_p50_ms": (p50_value, "ms", "%s; n=%d" % (
            p50_note, len(t["latency_ns"]))),
        "latency_p99_ms": (p99_value, "ms", "%s; %s" % (p99_note,
                                                        tail_note)),
        "peak_rss_mb": (rss / 2**20, "MiB", rss_note),
        "cpu_ms_per_kinst": (t["cpu_s"] * 1e3 / (insts / 1e3), "ms",
                             "%.2f CPU s" % t["cpu_s"]),
        "cycles_gain_pct": (100.0 * (c["cycles_original"]
                                     - c["cycles_scheduled"])
                            / c["cycles_original"], "%",
                            "%d -> %d cycles" % (c["cycles_original"],
                                                 c["cycles_scheduled"])),
    }
    return values, failures, t["sent"], (ratio, ratio_note)


def service_layers(rec, rundir):
    """service.* per-layer metrics from the traced passes."""
    passes = [rec["traced_pass"], rec["other_pass"]]
    out = {}
    for p in passes:
        dump = load_json(os.path.join(rundir, p["trace_dump_file"]))
        p["breakdown"] = M.service_breakdown(dump["trace"]["traceEvents"],
                                             p["client"])
    # Queue wait and transport come from the workload's own mode (the
    # in-process probe for batch); the rung self time from whichever
    # pass ran that mode.
    own = passes[0]["breakdown"]
    by_mode = {p["mode"]: p["breakdown"] for p in passes}
    q = own["queue_ns"]
    qt = M.tail_pct(len(q))
    out["service.queue_wait_ns.p50"] = (M.percentile(q, 50), "ns",
                                        "n=%d" % len(q))
    out["service.queue_wait_ns.p99"] = (
        M.percentile(q, qt), "ns",
        "n=%d, p%.2f, %d beyond" % (len(q), qt, M.beyond(len(q), qt)))
    for name, mode in (("service.engine_self_ns", "inproc"),
                       ("service.supervisor_ns", "isolated")):
        rs = by_mode[mode]["rung_self_ns"]
        out[name] = (M.mean(rs), "ns", "mean of %d rungs (%s daemon)"
                     % (len(rs), mode))
    tr = own["transport_ns"]
    out["service.transport_ns"] = (M.mean(tr), "ns",
                                   "mean of %d requests" % len(tr))
    return out


def per_layer(rec, rundir):
    r = rec["replay"]
    settings = r["settings"]
    insts = r["insts"]          # summed over builder settings
    prog_insts = insts / settings
    cnt = r["counters"]
    out = {}
    if rec["workload"] == "batch-table3":
        out["ir.parse_ns_per_inst"] = (r["parse_ns"] / prog_insts, "ns",
                                       "serial parseAssembly+partition")
    else:
        client = rec["traced_pass"]["client"]
        parse = sum(row[3] for row in client)
        n_insts = sum(row[4] for row in client)
        out["ir.parse_ns_per_inst"] = (parse / n_insts, "ns",
                                       "response spans.parse, %d requests"
                                       % len(client))
    for name, ns in r["build_ns"].items():
        out["dag.build_ns_per_inst." + name] = (ns / prog_insts, "ns",
                                                "makeBuilder()->build")
    for name in ("dag.arcs_added", "dag.alias_queries", "dag.table_probes",
                 "dag.pairwise_compares"):
        out[name] = (cnt.get(name, 0), "count", "all builder settings")
    out["mem.arena_high_water_bytes"] = (r["arena_high_water_bytes"],
                                         "bytes", "largest block")
    out["heuristics.pass_ns_per_inst"] = (r["heur_ns"] / insts, "ns",
                                          "fwd/bwd passes + slack")
    for name in ("heur.forward_visits", "heur.backward_visits",
                 "sched.node_visits", "sched.heuristic_evals",
                 "sched.dep_updates"):
        out[name] = (cnt.get(name, 0), "count", "all builder settings")
    out["sched.list_ns_per_inst"] = (r["sched_ns"] / insts, "ns",
                                     "ListScheduler::run")
    out["sched.verify_ns_per_inst"] = (r["verify_ns"] / insts, "ns",
                                       "verifySchedule")
    out["core.self_ns_per_inst"] = (
        (r["pipeline_1lane_ns"] - r["layers_ns"]) / insts, "ns",
        "runPipeline(1 lane) - serial layer calls")
    out["core.lane_speedup"] = (r["pipeline_1lane_ns"]
                                / r["pipeline_nlanes_ns"], "x",
                                "1 lane / nproc lanes")
    out["obs.enabled_overhead_pct"] = (
        100.0 * (r["obs_on_ns"] / r["obs_off_ns"] - 1.0), "%",
        "runPipeline, obs on vs off")
    out.update(service_layers(rec, rundir))
    if rec["workload"] == "batch-table3":
        out["service.response_bytes"] = (
            rec["traced_pass"]["response_bytes_mean"], "bytes",
            "mean, in-process probe")
        base = rec["timed"]
        traced = rec["traced"]
    else:
        out["service.response_bytes"] = (rec["check"]["response_bytes_mean"],
                                         "bytes", "mean over the corpus")
        base = rec["timed"]
        traced = rec["traced_pass"]
    untraced_rate = base["insts_ok"] / base["window_s"]
    traced_rate = traced["insts_ok"] / traced["window_s"]
    out["trace_overhead_pct"] = (100.0 * (untraced_rate / traced_rate - 1.0),
                                 "%", "untraced vs traced throughput")
    return out


# --- Determinism across runs -----------------------------------------

def build_id(bdir):
    """Digest of the binaries under test: determinism records are only
    compared between runs of the same build."""
    h = hashlib.sha1()
    for name in ("perfbench_harness", os.path.join("tools", "sched91")):
        with open(os.path.join(bdir, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def determinism(rec, layer_counts, build):
    """Compare this run's deterministic outputs with earlier runs of the
    same seed and build in this checkout; return the mismatches."""
    path = os.path.join(ROOT, ".bench_run", "determinism.json")
    try:
        seen = load_json(path)
    except (OSError, ValueError):
        seen = {}
    c = rec["check"]
    # Both serve modes must give the same responses: one key for both.
    family = "batch" if rec["workload"] == "batch-table3" else "serve"
    mine = {"digest": c["digest"],
            "cycles": [c["cycles_original"], c["cycles_scheduled"]]}
    if family == "serve":
        mine["response_bytes"] = c["response_bytes_mean"]
    entry = seen.setdefault("%s/%d" % (build, rec["seed"]), {})
    bad = []
    for key, value in mine.items():
        full = family + "." + key
        if full in entry and entry[full] != value:
            bad.append("%s: %r, earlier run %r" % (full, value, entry[full]))
        entry[full] = value
    if layer_counts is not None:
        full = rec["workload"] + ".counts"
        if full in entry and entry[full] != layer_counts:
            bad.append(full + " differ from an earlier traced run")
        entry[full] = layer_counts
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return bad


def report(args, rec, values, failures, attempted, ratio, problems):
    stamp = rec["stamp"]
    print("perfbench %s seed=%d seconds=%g trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("stamp: git=%s nproc=%d cpu=%s compiler=%s build=%s (%s)" %
          (git_describe(), stamp["nproc"], stamp["cpu_model"],
           stamp["compiler"], stamp["build_type"],
           stamp["cxx_flags"].strip()))
    for name, (value, unit, note) in values.items():
        print("  %-34s %16.6g %-8s %s" % (name, value, unit, note))
    print("  %-34s %16.6g %-8s %s" % ("fail_ratio", ratio[0], "ratio",
                                       ratio[1]))
    t = rec["timed"]
    print("attempted=%d failed=%d digest=%s host-steal=%.1f%% of the "
          "window's CPU" % (attempted, failures, rec["check"]["digest"],
                            100.0 * t["steal_s"]
                            / (t["window_s"] * stamp["nproc"])))
    for p in problems:
        print("FAIL: " + p)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build()
    rundir = os.path.join(ROOT, ".bench_run",
                          "%s-trace%d" % (args.workload, args.trace))
    code, rec = run_harness(bdir, args, rundir)
    if code == 2 or rec is None or "timed" not in rec:
        die("harness failed before producing measurements (exit %d)%s"
            % (code, ": " + rec["error"] if rec and rec.get("error")
               else ""))

    # Run-level problems count as failures on top of the per-request
    # ones; the first failed output check is only named.
    problems = []
    if rec.get("error"):
        problems.append(rec["error"])
    if not rec["setup_identical"]:
        problems.append("corpus generation is not deterministic")
    if rec["check"].get("drained") is False:
        problems.append("daemon did not drain cleanly")
    if rec["check"].get("stats"):
        # At quiesce the daemon's own tally must balance and cover every
        # answer the client counted.
        svc = json.loads(rec["check"]["stats"])["service"]
        if (svc["accepted"] != svc["ok"] + svc["degraded"] + svc["error"]
                + svc["rejected_after_admit"]
                or svc["ok"] < rec["timed"]["ok"]):
            problems.append("daemon stats do not balance: %r" % svc)
    values, failures, attempted, ratio = end_to_end(rec)
    layer_counts = None
    if args.trace and not rec.get("error"):
        values = per_layer(rec, rundir)
        layer_counts = {k: v[0] for k, v in values.items()
                        if v[1] in ("count", "bytes")}
    problems += determinism(rec, layer_counts, build_id(bdir))
    failures += len(problems)
    if rec["check"].get("first_failure"):
        problems.append(rec["check"]["first_failure"])

    report(args, rec, values, failures, attempted, ratio, problems)
    correct = failures == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failures,
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u, _) in values.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
