"""Arithmetic of the benchmark: percentiles, the zero-steal fit,
failure accounting and span self time.  Pure functions, tested by
tests/test_metrics.py."""

import math
import statistics

# A percentile is reported only when at least this many samples lie
# beyond it.
MIN_BEYOND = 10


def percentile(values, pct):
    """Percentile of @values by linear interpolation between the two
    closest ranks (numpy's default).  Interpolating keeps the median of
    a mix of a few distinct request sizes from jumping between them."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def beyond(n, pct):
    """How many of @n samples lie wholly beyond @pct: those above both
    ranks it interpolates between."""
    return n - 1 - min(math.floor((n - 1) * pct / 100.0) + 1, n - 1)


def tail_pct(n, want=99.0):
    """The highest percentile <= @want with at least MIN_BEYOND of @n
    samples beyond it, or None when n is too small for any."""
    if n <= MIN_BEYOND + 2:
        return None
    # beyond() = n - 2 - floor((n - 1) p / 100) >= MIN_BEYOND holds for
    # every p up to this one.
    return min(want, 100.0 * (n - 2 - MIN_BEYOND) / (n - 1))


def slice_groups(done_ns, values, slices, slice_s=1.0):
    """@values grouped by the whole @slice_s slice of the window their
    event completed in (@done_ns from the window's start); events after
    the last of @slices slices are dropped."""
    groups = [[] for _ in range(slices)]
    for t, v in zip(done_ns, values):
        i = int(t / 1e9 // slice_s)
        if i < slices:
            groups[i].append(v)
    return groups


# Steal that differs by less than this share of the CPU across a run's
# units cannot be told apart from other noise.
STEAL_SPAN = 0.02


def at_zero_steal(stolen, values, rises):
    """A timing metric as it would read on a host that steals nothing,
    and how it was found ("fit" or "median").

    @stolen[i] is the share of the machine's CPU the hypervisor gave to
    other machines during unit i of a run (a one-second slice; batch: a
    pass), @values[i] the metric over that unit, and @rises whether the
    metric grows with steal (a latency) or falls with it (a rate).

    Neighbours take CPU from the vCPUs for minutes at a time, so no
    part of such a run is calm, and a third of the CPU stolen doubles
    the serve p99.  Within a run the metric follows its units' steal
    about linearly, so it is fitted by least squares to a + b * stolen
    and a is returned.  When steal spans less than STEAL_SPAN, or the
    fit has a slope steal cannot cause or a value below zero, it says
    nothing, and the median of the units is returned."""
    if not values:
        raise ValueError("at_zero_steal of no units")
    median = statistics.median(values)
    if max(stolen) - min(stolen) < STEAL_SPAN:
        return median, "median"
    mx, my = statistics.fmean(stolen), statistics.fmean(values)
    sxx = sum((x - mx) ** 2 for x in stolen)
    b = sum((x - mx) * (y - my) for x, y in zip(stolen, values)) / sxx
    a = my - b * mx
    if (b > 0) != rises or b == 0 or a <= 0:
        return median, "median"
    return a, "fit"


def fail_ratio(attempted, degraded=0, rejected=0, error=0, lost=0,
               check_failures=0):
    """Failed share of @attempted requests: every request answered
    degraded, rejected or error, lost, or failing the output check."""
    if attempted <= 0:
        raise ValueError("fail_ratio needs at least one attempt")
    failed = degraded + rejected + error + lost + check_failures
    return failed / attempted


def covered(start, end, children):
    """Length of [start, end) covered by the union of @children
    intervals (each (start, end)), clipped to the parent."""
    spans = sorted((max(s, start), min(e, end)) for s, e in children)
    total = 0.0
    cur_s = cur_e = None
    for s, e in spans:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(start, end, children):
    """A span's self time: its duration minus the part of it its
    children cover."""
    return (end - start) - covered(start, end, children)


PHASES = ("parse", "build", "heur", "sched", "verify")


def service_breakdown(trace_events, client_rows):
    """Per-request service-layer times from a daemon trace dump.

    @trace_events: the Chrome trace events of `{"type":"trace-dump"}`
    (ts/dur in microseconds, args.trace_id/rung).  @client_rows:
    [k, send_ns, recv_ns, parse_ns, insts] for trace ids "t<k>".

    A rung's children are the phase spans of the same rung; its self
    time is the engine's own work in-process (ladder, encode,
    per-request observability) and the supervisor's under isolation
    (envelope, pipe round trip, re-parse).  Transport is the client
    round trip minus the daemon's request span.
    """
    rtt = {"t%d" % row[0]: (row[2] - row[1]) for row in client_rows}
    by_trace = {}
    for ev in trace_events:
        tid = ev.get("args", {}).get("trace_id")
        if tid in rtt:
            by_trace.setdefault(tid, []).append(ev)
    queue, rung_self, transport = [], [], []
    for tid, evs in by_trace.items():
        request = [e for e in evs if e["name"] == "request"]
        rungs = [e for e in evs if e["name"] == "rung"]
        if len(request) != 1 or not rungs:
            continue  # span log filled mid-request
        queue += [e["dur"] * 1e3 for e in evs if e["name"] == "queue"]
        for r in rungs:
            kids = [(e["ts"], e["ts"] + e["dur"]) for e in evs
                    if e["name"] in PHASES
                    and e["args"].get("rung") == r["args"].get("rung")]
            rung_self.append(
                self_time(r["ts"], r["ts"] + r["dur"], kids) * 1e3)
        transport.append(rtt[tid] - request[0]["dur"] * 1e3)
    return {"requests": len(by_trace), "queue_ns": queue,
            "rung_self_ns": rung_self, "transport_ns": transport}


def mean(values):
    return sum(values) / len(values) if values else 0.0
