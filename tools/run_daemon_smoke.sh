#!/usr/bin/env bash
# Daemon smoke test (docs/ROBUSTNESS.md): bring up `sched91 serve`
# with deterministic fault injection armed, replay a generated corpus
# through the soak client, then SIGINT the daemon and assert the
# graceful-drain contract:
#
#   - the soak client exits 0: zero lost responses, zero duplicated
#     ids, every status within the ladder (ok/degraded/rejected);
#   - the daemon exits 0 on SIGINT (drain is not a failure) and
#     leaves one valid final stats document with every answered
#     request accounted for (accepted == ok + degraded + error);
#   - the same (daemon seed, corpus seed) pair produces the same
#     ok/degraded/rejected tallies on a fresh daemon — fault decisions
#     are pure functions of (seed, block content), never of timing.
#
# A third cycle reruns the soak under `--isolate=process` with
# signal-grade faults armed (crash-segv, spin-forever): sandbox
# workers die mid-request and the supervisor must still answer every
# request exactly once (victims degraded), respawn the pool, and
# reproduce the same tallies on a same-seed replay.
#
# Telemetry rides every cycle (docs/OBSERVABILITY.md): the soak
# client interleaves `--scrape-every` stats reads with its own load,
# a separate connection scrapes health/stats/prometheus while the
# daemon is under fault-injected fire (exposition validated by
# tools/check_exposition.py), and the crash cycle pulls a trace-dump
# to assert a SIGKILLed worker's request still renders as one
# connected span tree.  A last cycle soaks with corrupted sources, so
# lanes count parse errors outside the pipeline, and asserts that a
# `stats` scrape taken once every request is answered carries exactly
# the drain document's counters.
#
# A fault-free isolated cycle kills the one sandbox worker while it is
# idle: the next dispatch must respawn it (`worker_respawns` 1,
# `worker_crashes` 0), both soaks must pass, and the drain must exit 0
# (a write to the dead worker's socket is an error return, not a
# SIGPIPE that kills the daemon).
#
# A malformed-line cycle sends, on one connection, requests with
# malformed JSON, a non-object line, a line without source, an unknown
# builder, a negative deadline_ms, unknown control types and formats
# and `health` lines between them; every line must get one answer with
# its expected status (the daemon decodes each line once and tells
# control from request lines by the decoded value).  It writes no
# `soak_client:` line.
#
# A stalled-reader cycle opens one connection that pipelines
# `emit:"schedule"` requests and reads nothing, until the daemon stops
# reading it; the soak then runs beside it and must lose nothing, and
# SIGINT must exit 0 within the drain deadline (2 s) plus a 3 s
# margin.  Its soak line is checked and reprinted as an `ok:` line, so
# the `soak_client:` lines above still compare one for one with an
# older script's.
#
# Runs the fault-injected matrix at two injection seeds.  Usage:
#
#   tools/run_daemon_smoke.sh [builddir]     # default: build
set -u

builddir=${1:-build}
cli=$builddir/tools/sched91
soak=$builddir/tools/soak_client
# AF_UNIX socket paths are capped near 108 bytes, so prefer a short
# /tmp base; honor TMPDIR only when it stays within budget.
tmpbase=${TMPDIR:-/tmp}
[ ${#tmpbase} -gt 60 ] && tmpbase=/tmp
workdir=$(mktemp -d "$tmpbase/sched91-smoke.XXXXXX")
fails=0

[ -x "$cli" ] || { echo "FAIL: $cli not built" >&2; exit 1; }
[ -x "$soak" ] || { echo "FAIL: $soak not built" >&2; exit 1; }

cleanup() {
    [ -n "${daemon_pid:-}" ] && kill "$daemon_pid" 2>/dev/null
    [ -n "${stall_pid:-}" ] && kill "$stall_pid" 2>/dev/null
    rm -rf "$workdir"
}
trap cleanup EXIT

check() {
    local desc=$1 want=$2 got=$3
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: $desc: exit $got, want $want" >&2
        fails=$((fails + 1))
    else
        echo "ok: $desc (exit $got)"
    fi
}

wait_for_socket() {
    local sock=$1 tries=100
    while [ "$tries" -gt 0 ] && [ ! -S "$sock" ]; do
        sleep 0.05
        tries=$((tries - 1))
    done
    [ -S "$sock" ]
}

# Scrape health + stats + prometheus over one fresh connection while
# the daemon serves load; writes the exposition text to $2.
scrape_live() {
    python3 - "$1" "$2" <<'EOF'
import json, socket, sys
sock, expo_path = sys.argv[1], sys.argv[2]
c = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
c.settimeout(30)
c.connect(sock)
f = c.makefile('rw')
f.write('{"type":"health","id":"h"}\n'
        '{"type":"stats","id":"s"}\n'
        '{"type":"stats","format":"prometheus","id":"p"}\n')
f.flush()
health = json.loads(f.readline())
stats = json.loads(f.readline())
prom = json.loads(f.readline())
c.close()

assert health['sched91_serve_health'] == 1
assert health['status'] in ('ok', 'draining'), health['status']
assert health['queue_depth'] <= health['queue_capacity']

assert stats['sched91_serve_stats'] == 1
assert stats['meta']['stats_schema'] == 1
s = stats['service']
answered = s['ok'] + s['degraded'] + s['error'] + \
    s['rejected_after_admit']
assert answered <= s['accepted'], \
    f"answered {answered} > accepted {s['accepted']} mid-flight"

assert prom['status'] == 'ok' and prom['format'] == 'prometheus'
expo = prom['exposition']
assert expo.startswith('# TYPE'), 'exposition missing TYPE header'
open(expo_path, 'w').write(expo)
print(f"ok: live scrape (accepted {s['accepted']}, "
      f"queue {health['queue_depth']}/{health['queue_capacity']}, "
      f"status {health['status']})")
EOF
}

# Pull a trace-dump from a live daemon and assert that a request
# whose sandbox worker was killed mid-flight still forms one
# connected span tree: its trace id must carry the request and queue
# parent spans AND a crash-annotated rung span.
assert_crash_trace() {
    python3 - "$1" <<'EOF'
import json, socket, sys
c = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
c.settimeout(30)
c.connect(sys.argv[1])
f = c.makefile('rw')
f.write('{"type":"trace-dump","id":"t"}\n')
f.flush()
d = json.loads(f.readline())
c.close()

assert d['sched91_serve_trace'] == 1
assert d['status'] == 'ok'
by_trace = {}
for ev in d['trace']['traceEvents']:
    tid = ev['args']['trace_id']
    by_trace.setdefault(tid, []).append(ev)

crashed = connected = 0
for tid, evs in by_trace.items():
    names = {ev['name'] for ev in evs}
    notes = [ev['args'].get('note', '') for ev in evs
             if ev['name'] == 'rung']
    if not any(n.startswith('crash') for n in notes):
        continue
    crashed += 1
    if {'request', 'queue', 'rung'} <= names:
        connected += 1
assert crashed > 0, 'no crash-annotated request in the trace dump'
assert connected == crashed, \
    f"{crashed - connected} killed-worker request(s) lost their " \
    f"request/queue parent spans: the span tree is disconnected"
print(f"ok: trace-dump ({len(by_trace)} traced requests, "
      f"{crashed} with killed workers, all connected)")
EOF
}

# One full cycle: serve (fault-injected) -> soak -> SIGINT drain.
# Prints the soak summary line so callers can diff runs.
run_cycle() {
    local seed=$1 tag=$2
    local sock=$workdir/serve-$tag.sock
    local stats=$workdir/stats-$tag.json
    local spec="seed=$seed,builder-throw=0.2,verifier-reject=0.15"
    spec="$spec,slow-block=0.1,alloc-fail=0.1,slow-ms=20"

    "$cli" serve --socket "$sock" --queue-capacity 32 \
        --fault-inject "$spec" --stats-json "$stats" \
        2>"$workdir/serve-$tag.err" &
    daemon_pid=$!

    if ! wait_for_socket "$sock"; then
        echo "FAIL: daemon (seed $seed) never bound $sock" >&2
        cat "$workdir/serve-$tag.err" >&2
        fails=$((fails + 1))
        kill "$daemon_pid" 2>/dev/null
        wait "$daemon_pid" 2>/dev/null
        daemon_pid=
        return
    fi

    "$soak" --socket "$sock" --requests 48 --connections 4 \
        --pipeline 4 --seed 7 --scrape-every 4 \
        >"$workdir/soak-$tag.out" &
    local soak_pid=$!

    # Scrape from a separate connection while the soak load (and the
    # fault injector) is live, then validate the exposition text.
    scrape_live "$sock" "$workdir/expo-$tag.txt"
    check "live scrape under load (seed $seed)" 0 $?
    python3 "$(dirname "$0")/check_exposition.py" \
        "$workdir/expo-$tag.txt"
    check "prometheus exposition (seed $seed)" 0 $?

    wait "$soak_pid"
    check "soak contract (daemon seed $seed)" 0 $?

    kill -INT "$daemon_pid"
    wait "$daemon_pid"
    check "daemon drain on SIGINT (seed $seed)" 0 $?
    daemon_pid=

    python3 - "$stats" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d['sched91_serve_stats'] == 1
assert 'fault_inject' in d['meta'], 'fault injection was not armed'
s = d['service']
assert s['accepted'] == s['ok'] + s['degraded'] + s['error'], \
    f"accepted {s['accepted']} != answered " \
    f"{s['ok'] + s['degraded'] + s['error']}: a request was lost"
assert s['error'] == 0, f"{s['error']} well-formed requests errored"
assert s['degraded'] > 0, 'fault injection degraded nothing'
assert d['histograms']['svc.request_ns']['count'] == s['accepted']
print(f"ok: stats document (accepted {s['accepted']}, "
      f"ok {s['ok']}, degraded {s['degraded']}, "
      f"rejected {s['rejected']}, retries {s['retries']}, "
      f"quarantined {s['quarantine_adds']})")
EOF
    check "stats document (seed $seed)" 0 $?

    grep '^soak_client:' "$workdir/soak-$tag.out"
}

# One crash cycle: serve --isolate=process with signal-grade faults
# armed, soak (victims must come back degraded, never lost), SIGINT
# drain, then assert the supervisor's isolation tallies.
run_crash_cycle() {
    local seed=$1 tag=$2
    local sock=$workdir/crash-$tag.sock
    local stats=$workdir/stats-crash-$tag.json
    local spec="seed=$seed,crash-segv=0.25,spin-forever=0.08"
    spec="$spec,alloc-fail=0.1"

    "$cli" serve --socket "$sock" --queue-capacity 32 --threads 2 \
        --isolate process --isolate-hang-ms 1500 \
        --fault-inject "$spec" --stats-json "$stats" \
        2>"$workdir/crash-$tag.err" &
    daemon_pid=$!

    if ! wait_for_socket "$sock"; then
        echo "FAIL: isolated daemon (seed $seed) never bound $sock" >&2
        cat "$workdir/crash-$tag.err" >&2
        fails=$((fails + 1))
        kill "$daemon_pid" 2>/dev/null
        wait "$daemon_pid" 2>/dev/null
        daemon_pid=
        return
    fi

    "$soak" --socket "$sock" --requests 32 --connections 4 \
        --pipeline 4 --seed 7 --expect-degraded \
        --timeout-ms 60000 --scrape-every 8 \
        >"$workdir/crash-soak-$tag.out"
    check "crash-soak contract (seed $seed)" 0 $?

    # Workers were SIGKILLed mid-request above; every such request
    # must still render as one connected span tree.
    assert_crash_trace "$sock"
    check "killed-worker span tree (seed $seed)" 0 $?

    kill -INT "$daemon_pid"
    wait "$daemon_pid"
    check "isolated daemon drain on SIGINT (seed $seed)" 0 $?
    daemon_pid=

    python3 - "$stats" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d['sched91_serve_stats'] == 1
assert d['meta'].get('isolate') == 'process', 'isolation was not armed'
s = d['service']
assert s['accepted'] == s['ok'] + s['degraded'] + s['error'], \
    f"accepted {s['accepted']} != answered " \
    f"{s['ok'] + s['degraded'] + s['error']}: a request was lost"
assert s['error'] == 0, f"{s['error']} well-formed requests errored"
assert s['worker_crashes'] > 0, 'no sandbox worker ever crashed'
assert s['worker_respawns'] > 0, 'crashed workers were not respawned'
assert s['degraded'] >= s['worker_crashes'] > 0, \
    'crash victims were not answered degraded'
print(f"ok: isolation stats (accepted {s['accepted']}, "
      f"degraded {s['degraded']}, crashes {s['worker_crashes']}, "
      f"kills {s['worker_kills']}, respawns {s['worker_respawns']})")
EOF
    check "isolation stats document (seed $seed)" 0 $?

    grep '^soak_client:' "$workdir/crash-soak-$tag.out"
}

# Live telemetry at quiesce: serve, soak corrupted sources, scrape
# `stats` after the last answer, SIGINT; the scrape's counters must
# equal the drain document's.
run_quiesce_cycle() {
    local sock=$workdir/quiesce.sock
    local stats=$workdir/stats-quiesce.json
    local scrape=$workdir/scrape-quiesce.json

    "$cli" serve --socket "$sock" --queue-capacity 32 \
        --stats-json "$stats" 2>"$workdir/quiesce.err" &
    daemon_pid=$!

    if ! wait_for_socket "$sock"; then
        echo "FAIL: quiesce daemon never bound $sock" >&2
        cat "$workdir/quiesce.err" >&2
        fails=$((fails + 1))
        kill "$daemon_pid" 2>/dev/null
        wait "$daemon_pid" 2>/dev/null
        daemon_pid=
        return
    fi

    "$soak" --socket "$sock" --requests 48 --connections 4 \
        --pipeline 4 --seed 7 --corrupt 0.05 \
        >"$workdir/quiesce-soak.out"
    check "corrupted-source soak contract" 0 $?

    python3 - "$sock" "$scrape" <<'EOF'
import socket, sys
c = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
c.settimeout(30)
c.connect(sys.argv[1])
f = c.makefile('rw')
f.write('{"type":"stats","id":"quiesce"}\n')
f.flush()
open(sys.argv[2], 'w').write(f.readline())
c.close()
EOF
    check "stats scrape at quiesce" 0 $?

    kill -INT "$daemon_pid"
    wait "$daemon_pid"
    check "quiesce daemon drain on SIGINT" 0 $?
    daemon_pid=

    python3 - "$scrape" "$stats" <<'EOF'
import json, sys
live = json.load(open(sys.argv[1]))['counters']
final = json.load(open(sys.argv[2]))['counters']
assert final.get('robust.parse_errors', 0) > 0, \
    'corrupted sources produced no parse errors'
diff = {k: (live.get(k), final.get(k))
        for k in sorted(set(live) | set(final))
        if live.get(k) != final.get(k)}
assert not diff, f"scrape at quiesce != drain document: {diff}"
print(f"ok: scrape at quiesce equals the drain document "
      f"({len(final)} counters, parse errors "
      f"{final['robust.parse_errors']})")
EOF
    check "live counters equal drain counters" 0 $?
}

# Idle-worker death: serve --isolate process on one lane without
# faults, soak, SIGKILL the idle sandbox worker, soak again, SIGINT;
# the lane must respawn the worker at its next dispatch.
run_idle_death_cycle() {
    local sock=$workdir/idle.sock
    local stats=$workdir/stats-idle.json

    "$cli" serve --socket "$sock" --threads 1 --isolate process \
        --stats-json "$stats" 2>"$workdir/idle.err" &
    daemon_pid=$!

    if ! wait_for_socket "$sock"; then
        echo "FAIL: idle-death daemon never bound $sock" >&2
        cat "$workdir/idle.err" >&2
        fails=$((fails + 1))
        kill "$daemon_pid" 2>/dev/null
        wait "$daemon_pid" 2>/dev/null
        daemon_pid=
        return
    fi

    "$soak" --socket "$sock" --requests 8 --connections 2 \
        --seed 7 >"$workdir/idle-soak-1.out"
    check "soak before the idle worker dies" 0 $?

    local worker tries=100
    worker=$(pgrep -P "$daemon_pid")
    kill -9 "$worker"
    # Unreaped, the worker stays a zombie; by then its socket is closed.
    while [ "$tries" -gt 0 ] &&
          [ "$(awk '{print $3}' "/proc/$worker/stat" 2>/dev/null)" != Z ]; do
        sleep 0.05
        tries=$((tries - 1))
    done

    "$soak" --socket "$sock" --requests 8 --connections 2 \
        --seed 107 >"$workdir/idle-soak-2.out"
    check "soak after the idle worker died" 0 $?

    kill -INT "$daemon_pid"
    wait "$daemon_pid"
    check "idle-death daemon drain on SIGINT" 0 $?
    daemon_pid=

    python3 - "$stats" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))['service']
assert s['worker_respawns'] == 1, \
    f"worker_respawns {s['worker_respawns']}, want 1"
assert s['worker_crashes'] == 0, \
    f"worker_crashes {s['worker_crashes']}, want 0"
print(f"ok: idle worker respawned (respawns {s['worker_respawns']}, "
      f"crashes {s['worker_crashes']}, ok {s['ok']})")
EOF
    check "idle-death stats document" 0 $?
}

# Malformed lines: one connection, one answer per line with the
# expected status, `health` answered between requests, then a clean
# drain that counted every refused request line.
run_malformed_cycle() {
    local sock=$workdir/malformed.sock
    local stats=$workdir/stats-malformed.json

    "$cli" serve --socket "$sock" --stats-json "$stats" \
        2>"$workdir/malformed.err" &
    daemon_pid=$!

    if ! wait_for_socket "$sock"; then
        echo "FAIL: malformed-line daemon never bound $sock" >&2
        cat "$workdir/malformed.err" >&2
        fails=$((fails + 1))
        kill "$daemon_pid" 2>/dev/null
        wait "$daemon_pid" 2>/dev/null
        daemon_pid=
        return
    fi

    python3 - "$sock" <<'EOF'
import json, socket, sys
source = "add %g1, %g2, %g3 ! a comment \\u2014 escaped\\nnop\\n"
lines = [
    ('{"id":"r1","source":"add %g1, %g2, %g3\\nnop\\n",'
     '"emit":"schedule"}', "r1", "ok"),
    ('{"id":"cut","source":"nop', "", "error"),
    ('{"type":"health","id":"h1"}', "h1", "ok"),
    ('[1,2,3]', "", "error"),
    ('{"id":"nosrc"}', "", "error"),
    ('{"id":"bad","source":"nop","builder":"bogus"}', "", "error"),
    ('{"id":"neg","source":"nop","deadline_ms":-5}', "", "error"),
    ('{"type":"reboot","id":"badtype"}', "badtype", "error"),
    ('{"type":"stats","format":"xml","id":"badformat"}', "badformat",
     "error"),
    ('{"type":"health","id":"h2"}', "h2", "ok"),
    ('{"id":"r2","source":"' + source + '","evaluate":true}', "r2", "ok"),
    ('{"type":"health","id":"h3"}', "h3", "ok"),
]
c = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
c.settimeout(30)
c.connect(sys.argv[1])
c.sendall("".join(line + "\n" for line, _, _ in lines).encode())
f = c.makefile("rb")
answers = [json.loads(f.readline()) for _ in lines]
c.close()
want = {}
for _, rid, status in lines:
    want.setdefault(rid, []).append(status)
got = {}
for a in answers:
    got.setdefault(a.get("id", ""), []).append(a.get("status"))
for rid in want:
    assert sorted(got.get(rid, [])) == sorted(want[rid]), \
        f"id {rid!r}: statuses {got.get(rid)}, want {want[rid]}"
assert set(got) == set(want), f"unexpected ids {set(got) - set(want)}"
print(f"ok: malformed lines ({len(answers)} lines, one answer each)")
EOF
    check "one answer per malformed line" 0 $?

    kill -INT "$daemon_pid"
    wait "$daemon_pid"
    check "malformed-line daemon drain on SIGINT" 0 $?
    daemon_pid=

    python3 - "$stats" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))['service']
assert s['accepted'] == 2 and s['ok'] == 2, \
    f"accepted {s['accepted']}, ok {s['ok']}: want 2 and 2"
assert s['error'] == 5, f"error {s['error']}, want 5"
print(f"ok: malformed-line stats (accepted {s['accepted']}, "
      f"error {s['error']})")
EOF
    check "malformed-line stats document" 0 $?
}

# A client that never reads: it stalls only its own connection.
run_stalled_cycle() {
    local sock=$workdir/stalled.sock
    local stats=$workdir/stats-stalled.json
    local ready=$workdir/stalled.ready

    "$cli" serve --socket "$sock" --threads 2 --stats-json "$stats" \
        2>"$workdir/stalled.err" &
    daemon_pid=$!

    if ! wait_for_socket "$sock"; then
        echo "FAIL: stalled-reader daemon never bound $sock" >&2
        cat "$workdir/stalled.err" >&2
        fails=$((fails + 1))
        kill "$daemon_pid" 2>/dev/null
        wait "$daemon_pid" 2>/dev/null
        daemon_pid=
        return
    fi

    # Pipeline until nothing goes out for half a second (the daemon
    # stopped reading this connection), then hold it open, unread.
    python3 - "$sock" "$ready" <<'EOF' &
import select, socket, sys, time
c = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
c.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
c.connect(sys.argv[1])
c.setblocking(False)
burst = b'{"id":"stall","source":"add %g1, %g2, %g3\\nnop\\n",' \
        b'"emit":"schedule"}\n' * 256
at = sent = 0
while sent < 256 << 20:
    try:
        n = c.send(burst[at:])
        sent += n
        at = (at + n) % len(burst)
        continue
    except BlockingIOError:
        pass
    if not select.select([], [c], [], 0.5)[1]:
        break
open(sys.argv[2], "w").write(f"{sent}\n")
time.sleep(120)
EOF
    stall_pid=$!
    local tries=600
    while [ "$tries" -gt 0 ] && [ ! -s "$ready" ]; do
        sleep 0.05
        tries=$((tries - 1))
    done
    if [ ! -s "$ready" ]; then
        echo "FAIL: the stalled client never stalled" >&2
        fails=$((fails + 1))
    else
        echo "ok: a client stalled after sending $(cat "$ready") bytes"
    fi

    "$soak" --socket "$sock" --requests 48 --connections 4 \
        --pipeline 4 --seed 7 --scrape-every 4 \
        >"$workdir/stalled-soak.out"
    local soak_rc=$?
    check "soak beside a client that never reads" 0 "$soak_rc"
    [ "$soak_rc" -eq 0 ] &&
        sed -n 's/^soak_client:/ok: soak beside a stalled client:/p' \
            "$workdir/stalled-soak.out"

    local t0 ms
    t0=$(date +%s%N)
    kill -INT "$daemon_pid"
    # A daemon that waited on the stalled client would still be up.
    timeout 10 tail --pid="$daemon_pid" -s 0.05 -f /dev/null ||
        kill -9 "$daemon_pid"
    wait "$daemon_pid"
    check "drain beside a client that never reads" 0 $?
    ms=$((($(date +%s%N) - t0) / 1000000))
    daemon_pid=
    kill "$stall_pid" 2>/dev/null
    wait "$stall_pid" 2>/dev/null
    stall_pid=
    if [ "$ms" -gt 5000 ]; then
        echo "FAIL: drain took $ms ms beside a stalled client" \
             "(deadline 2000 ms, margin 3000 ms)" >&2
        fails=$((fails + 1))
    else
        echo "ok: drained in $ms ms beside a stalled client"
    fi

    python3 - "$stats" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))['service']
assert s['accepted'] == s['ok'] + s['degraded'] + s['error'], \
    f"accepted {s['accepted']} != answered " \
    f"{s['ok'] + s['degraded'] + s['error']}: a request was lost"
print(f"ok: stalled-reader stats (accepted {s['accepted']}, "
      f"ok {s['ok']}, rejected {s['rejected']})")
EOF
    check "stalled-reader stats document" 0 $?
}

for seed in 42 1337; do
    run_cycle "$seed" "$seed"
done

# Determinism: a fresh daemon at seed 42 must reproduce the first
# run's tallies exactly.
run_cycle 42 42-replay
if ! diff <(grep '^soak_client:' "$workdir/soak-42.out") \
          <(grep '^soak_client:' "$workdir/soak-42-replay.out"); then
    echo "FAIL: seed 42 tallies differ between runs" >&2
    fails=$((fails + 1))
else
    echo "ok: seed 42 tallies reproduce exactly"
fi

# Crash isolation: the same contract must hold when the faults are
# signal-grade and the ladder runs in sandboxed subprocesses, and a
# same-seed replay must reproduce the tallies exactly even though
# workers are crashing and respawning throughout.
run_crash_cycle 42 42
run_crash_cycle 42 42-replay
if ! diff <(grep '^soak_client:' "$workdir/crash-soak-42.out") \
          <(grep '^soak_client:' "$workdir/crash-soak-42-replay.out"); then
    echo "FAIL: isolated seed 42 tallies differ between runs" >&2
    fails=$((fails + 1))
else
    echo "ok: isolated seed 42 tallies reproduce exactly"
fi

run_quiesce_cycle

run_idle_death_cycle

run_malformed_cycle

run_stalled_cycle

if [ "$fails" -ne 0 ]; then
    echo "daemon smoke: $fails failure(s)" >&2
    exit 1
fi
echo "daemon smoke: all checks passed"
