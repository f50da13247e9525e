#!/usr/bin/env bash
# Zero-drift check for a refactor: run two sched91 binaries (say, a
# build of the parent commit and one of the change) on the same
# commands and byte-compare everything they write under --zero-times.
#
# Usage:
#   tools/zero_drift.sh <parent sched91> <change sched91>
#
# profile: the stats document, JSONL trace and Chrome trace of the
# nine Table 3 profiles plus fpppp at --window 1000, for all seven
# algorithms, under table-fwd, table-bwd and n2-fwd with
# --max-block-insts 40, each under the default policy (base-offset)
# and --policy symbolic, at --threads 1 and 4.  Under symbolic the
# table builders' memory table may ask the alias oracle fewer
# questions without changing an arc (dag/memdep.hh), so those runs
# drop dag.alias_queries and dag.table_probes from both sides before
# comparing; everything else, and every base-offset run, is compared
# byte for byte.
# forensics: the stats document, stderr (the degraded-block notices,
# the outlier table and the block issues) and every outlier bundle of
# `profile` on the nine Table 3 profiles at --threads 1 and 4, with
# --capture-outliers 5 --outlier-dir, --log-level info and injected
# verifier-reject and builder-throw faults.
# schedule: stdout (the scheduled assembly), the stats document and
# the JSONL trace of every built-in kernel under all seven algorithms,
# at --threads 1 and 4 (schedule runs the block pipeline on lanes).
# compile: stdout (the compiled assembly) and stderr (the summary line
# and any issues) of every built-in kernel under all seven algorithms,
# under table-fwd, table-bwd and n2-fwd with --max-block-insts 40, each
# under base-offset and symbolic, at --threads 1 and 4 (both of its
# passes run the block pipeline on lanes).
# counters: the --counters table (stderr, with each command's summary
# lines) of dag, stats, timeline, report, compile and schedule on every
# built-in kernel, under the default algorithm and krishnamurthy, at
# --threads 1 and 4, and of profile on the nine Table 3 profiles at
# --threads 4.
# parse: stdout, stderr (the echoed diagnostics), the exit status and
# any stats document of stats, report, compile and schedule on two
# texts past the size at which parseAssembly parses on lanes
# (kLaneParseBytes, 16 KiB), at --threads 1 and 4, lenient and
# --strict.  malformed.s repeats tests/corpus/malformed/*.s: its
# lenient runs stop at the 64-error cap in a later chunk, its --strict
# runs at the first error.  warned.s repeats the two files of that
# corpus that only warn, so every run on it schedules.
# serve: the wire answers of `sched91 serve`, in-process and then
# under --isolate process, to one request file that a short python3
# client sends on one connection: every tests/corpus/malformed/*.s,
# malformed.s, warned.s and each kernel's `schedule` output, each
# under three algorithm/builder/policy triples with evaluate,
# emit "schedule" and a client-set trace_id (raw UTF-8, as the
# writer sends it), then malformed JSON, a non-object line, a line
# without source, an unknown builder, a negative deadline_ms, and
# unknown control types and formats.  Answers are matched by id,
# compared without their "spans" (wall clock), along with the
# daemon's --zero-times stats document at drain.
#
# Exits non-zero at the first difference and names the command and the
# output; otherwise prints how many outputs it compared.
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 <parent sched91> <change sched91>" >&2
    exit 2
fi
bins=("$(realpath "$1")" "$(realpath "$2")")
src=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/zero-drift.XXXXXX")
trap 'rm -rf "$work"' EXIT
compared=0

# drift [--status] [--no-query-counts] [--dir <dir>] <file>... --
# <sched91 args>: run both binaries on the args, each in a fresh
# directory where relative output paths land, and compare the named
# files (`stdout` and `stderr` are the command's) byte for byte.  Both
# runs must succeed; with --status they must only exit with the same
# status, and a file neither run wrote (a failed run's stats document)
# is skipped.  With --no-query-counts the dag.alias_queries and
# dag.table_probes keys are first removed from both sides' files.
# With --dir the directory is made before each run, both runs must
# write the same file names into it, and each of those files is
# compared too.
drift() {
    local any_status=false no_query_counts=false dir=
    if [ "$1" = --status ]; then
        any_status=true
        shift
    fi
    if [ "$1" = --no-query-counts ]; then
        no_query_counts=true
        shift
    fi
    if [ "$1" = --dir ]; then
        dir=$2
        shift 2
    fi
    local files=()
    while [ "$1" != -- ]; do
        files+=("$1")
        shift
    done
    shift
    local side status=()
    for side in 0 1; do
        rm -rf "${work:?}/$side"
        mkdir "$work/$side"
        if [ -n "$dir" ]; then
            mkdir "$work/$side/$dir"
        fi
        local rc=0
        (cd "$work/$side" &&
         "${bins[$side]}" "$@" > stdout 2> stderr) || rc=$?
        if [ "$rc" -ne 0 ] && ! $any_status; then
            echo "zero-drift: ${bins[$side]} failed: sched91 $*" >&2
            cat "$work/$side/stderr" >&2
            exit 1
        fi
        status+=("$rc")
    done
    if [ "${status[0]}" != "${status[1]}" ]; then
        echo "zero-drift: exit status ${status[0]} vs ${status[1]}:" \
             "sched91 $*" >&2
        exit 1
    fi
    local file
    if [ -n "$dir" ]; then
        if ! diff <(ls "$work/0/$dir") <(ls "$work/1/$dir") >&2; then
            echo "zero-drift: $dir/ holds other files: sched91 $*" >&2
            exit 1
        fi
        for file in "$work/0/$dir"/*; do
            if [ -e "$file" ]; then
                files+=("$dir/${file##*/}")
            fi
        done
    fi
    for file in "${files[@]}"; do
        if $any_status && [ ! -e "$work/0/$file" ] &&
           [ ! -e "$work/1/$file" ]; then
            continue
        fi
        local a="$work/0/$file" b="$work/1/$file"
        if $no_query_counts; then
            drop_query_counts "$a" > "$a.cmp"
            drop_query_counts "$b" > "$b.cmp"
            a="$a.cmp"
            b="$b.cmp"
        fi
        if ! cmp "$a" "$b" >&2; then
            echo "zero-drift: $file differs: sched91 $*" >&2
            exit 1
        fi
        compared=$((compared + 1))
    done
}

# drop_query_counts <file>: the file without its "dag.alias_queries"
# and "dag.table_probes" members (and the comma that joined each).
drop_query_counts() {
    local key='"dag\.\(alias_queries\|table_probes\)":[0-9]*'
    sed -e "s/$key,//g" -e "s/,$key}/}/g" -e "s/{$key}/{}/g" "$1"
}

algorithms="gibbons-muchnick krishnamurthy schlansker shieh-papachristou \
tiemann warren simple-forward"

for input in grep regex dfa cccp linpack lloops tomcatv nasa7 fpppp \
             fpppp-1000; do
    if [ "$input" = fpppp-1000 ]; then
        workload=(fpppp --window 1000)
    else
        workload=("$input")
    fi
    for algorithm in $algorithms; do
        for builder in table-fwd table-bwd "n2-fwd --max-block-insts 40"; do
            for policy in base-offset symbolic; do
                counts=()
                if [ "$policy" = symbolic ]; then
                    counts=(--no-query-counts)
                fi
                for threads in 1 4; do
                    # shellcheck disable=SC2206
                    args=(profile "${workload[@]}" --algorithm "$algorithm"
                          --builder $builder --policy "$policy"
                          --threads "$threads" --zero-times)
                    drift "${counts[@]}" stats.json trace.jsonl -- \
                        "${args[@]}" --stats-json stats.json \
                        --trace trace.jsonl
                    drift "${counts[@]}" trace.json -- "${args[@]}" \
                        --trace-format chrome --trace trace.json
                done
            done
        done
    done
done

for input in grep regex dfa cccp linpack lloops tomcatv nasa7 fpppp; do
    for threads in 1 4; do
        drift --dir outliers stats.json stderr -- profile "$input" \
            --threads "$threads" --capture-outliers 5 \
            --outlier-dir outliers \
            --fault-inject seed=3,verifier-reject=0.2,builder-throw=0.1 \
            --log-level info --zero-times --stats-json stats.json
    done
done

for kernel in $("${bins[0]}" kernels); do
    for algorithm in $algorithms; do
        for threads in 1 4; do
            drift stdout stats.json trace.jsonl -- schedule \
                --kernel "$kernel" --algorithm "$algorithm" \
                --threads "$threads" --zero-times \
                --stats-json stats.json --trace trace.jsonl
        done
        for builder in table-fwd table-bwd "n2-fwd --max-block-insts 40"; do
            for policy in base-offset symbolic; do
                for threads in 1 4; do
                    # shellcheck disable=SC2086
                    drift stdout stderr -- compile --kernel "$kernel" \
                        --algorithm "$algorithm" --builder $builder \
                        --policy "$policy" --threads "$threads"
                done
            done
        done
    done
done

for kernel in $("${bins[0]}" kernels); do
    for command in dag stats timeline report compile schedule; do
        for algorithm in "" "--algorithm krishnamurthy"; do
            for threads in 1 4; do
                # shellcheck disable=SC2086
                drift stderr -- "$command" --kernel "$kernel" $algorithm \
                    --threads "$threads" --counters
            done
        done
    done
done
for input in grep regex dfa cccp linpack lloops tomcatv nasa7 fpppp; do
    drift stderr -- profile "$input" --threads 4 --counters
done

# repeat <out> <file>...: the files, concatenated as often as it takes
# to reach 16 KiB.
repeat() {
    local out=$1
    shift
    : > "$out"
    while [ "$(wc -c < "$out")" -lt 16384 ]; do
        cat "$@" >> "$out"
    done
}

corpus="$src/tests/corpus/malformed"
repeat "$work/malformed.s" "$corpus"/*.s
repeat "$work/warned.s" "$corpus/suspicious.s" "$corpus/oversized_block.s"
for input in malformed.s warned.s; do
    for command in stats report compile schedule; do
        for threads in 1 4; do
            for strict in "" --strict; do
                # shellcheck disable=SC2086
                drift --status stdout stderr stats.json -- "$command" \
                    "$work/$input" --threads "$threads" $strict \
                    --zero-times --stats-json stats.json
            done
        done
    done
done

# The serve requests: every source under three triples, then the
# lines the daemon must refuse, one answer each.
serve_sources=("$corpus"/*.s "$work/malformed.s" "$work/warned.s")
for kernel in $("${bins[0]}" kernels); do
    "${bins[0]}" schedule --kernel "$kernel" > "$work/kernel-$kernel.s" \
        2> /dev/null
    serve_sources+=("$work/kernel-$kernel.s")
done
python3 - "$work/requests.jsonl" "${serve_sources[@]}" <<'EOF'
import json, os, sys
triples = [("krishnamurthy", "table-fwd", "base-offset"),
           ("warren", "n2-fwd", "symbolic"),
           ("simple-forward", "table-bwd", "storage")]
lines = []
for path in sys.argv[2:]:
    source = open(path, encoding="utf-8").read()
    name = os.path.basename(path)
    for algorithm, builder, policy in triples:
        rid = f"{name}/{algorithm}/{builder}/{policy}"
        lines.append(json.dumps(
            {"id": rid, "trace_id": rid, "source": source,
             "algorithm": algorithm, "builder": builder,
             "policy": policy, "evaluate": True, "emit": "schedule"},
            ensure_ascii=False))
lines += ['{"id":"cut","source":"nop',
          '[1,2,3]',
          '{"id":"nosrc"}',
          '{"id":"badbuilder","source":"nop","builder":"bogus"}',
          '{"id":"negdeadline","source":"nop","deadline_ms":-5}',
          '{"type":"reboot","id":"badtype"}',
          '{"type":"stats","format":"xml","id":"badformat"}']
open(sys.argv[1], "w", encoding="utf-8").write("\n".join(lines) + "\n")
EOF

# serve_drift [serve args]: both binaries serve the request file, one
# after the other on the same socket path; compare the answers, sorted
# by id without spans, and the drain's stats document.
serve_drift() {
    local side sock=$work/serve.sock
    # AF_UNIX paths are capped near 108 bytes.
    [ ${#sock} -gt 100 ] && sock=/tmp/sched91-zero-drift-$$.sock
    for side in 0 1; do
        rm -rf "${work:?}/$side"
        mkdir "$work/$side"
        (cd "$work/$side" &&
         exec "${bins[$side]}" serve --socket "$sock" --threads 2 \
             --zero-times --stats-json stats.json "$@" 2> stderr) &
        local pid=$! tries=100
        while [ "$tries" -gt 0 ] && [ ! -S "$sock" ]; do
            sleep 0.05
            tries=$((tries - 1))
        done
        if ! python3 - "$sock" "$work/requests.jsonl" \
                "$work/$side/answers" <<'EOF'
import json, socket, sys, threading
sock, requests, out = sys.argv[1:]
data = open(requests, "rb").read()
want = sum(1 for line in data.split(b"\n") if line)
c = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
c.settimeout(120)
c.connect(sock)
# Send while reading: answers may fill the socket before the last line
# is sent.
sender = threading.Thread(target=c.sendall, args=(data,))
sender.start()
f = c.makefile("rb")
answers = [f.readline().rstrip(b"\n") for _ in range(want)]
sender.join()
c.close()
assert all(answers), "the daemon closed the connection early"
keyed = []
for line in answers:
    doc = json.loads(line)
    cut = line.find(b',"spans":{')
    if cut >= 0:
        line = line[:cut] + line[line.index(b"}", cut) + 1:]
    keyed.append((doc.get("id", ""), line))
open(out, "wb").write(b"\n".join(l for _, l in sorted(keyed)) + b"\n")
EOF
        then
            echo "zero-drift: no full answer from ${bins[$side]}:" \
                 "sched91 serve $*" >&2
            kill "$pid" 2>/dev/null
            exit 1
        fi
        kill -INT "$pid"
        if ! wait "$pid"; then
            echo "zero-drift: ${bins[$side]} serve $* did not drain" >&2
            cat "$work/$side/stderr" >&2
            exit 1
        fi
    done
    local file
    for file in answers stats.json; do
        if ! cmp "$work/0/$file" "$work/1/$file" >&2; then
            echo "zero-drift: $file differs: sched91 serve $*" >&2
            exit 1
        fi
        compared=$((compared + 1))
    done
}

serve_drift
serve_drift --isolate process

echo "zero-drift: $compared outputs identical"
