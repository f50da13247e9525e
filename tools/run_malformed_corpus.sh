#!/usr/bin/env bash
# Drive the malformed-assembly corpus through the CLI and assert the
# exit-code contract from docs/ROBUSTNESS.md:
#
#   - lenient (default): every file schedules with exit 0, malformed
#     lines become file:line:col diagnostics on stderr;
#   - --strict: files with errors exit 1 (a clean FatalError, never an
#     abort), clean files still exit 0.
#
# Usage: tools/run_malformed_corpus.sh <path-to-sched91-binary>
set -u

bin=${1:?usage: $0 <path-to-sched91-binary>}
corpus=$(dirname "$0")/../tests/corpus/malformed
fails=0

check() {
    local desc=$1 want=$2 got=$3
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: $desc: exit $got, want $want" >&2
        fails=$((fails + 1))
    else
        echo "ok: $desc (exit $got)"
    fi
}

for f in "$corpus"/*.s; do
    name=$(basename "$f")

    "$bin" schedule "$f" >/dev/null 2>/tmp/corpus_stderr.$$
    check "lenient schedule $name" 0 $?
    # Error files must print at least one source-located diagnostic.
    if grep -q "error:" /tmp/corpus_stderr.$$; then
        if ! grep -Eq "$name:[0-9]+(:[0-9]+)?: error:" \
            /tmp/corpus_stderr.$$; then
            echo "FAIL: $name: diagnostics lack file:line locations" >&2
            fails=$((fails + 1))
        fi
    fi

    "$bin" schedule "$f" --strict >/dev/null 2>&1
    strict=$?
    if grep -q "error:" /tmp/corpus_stderr.$$; then
        check "strict schedule $name" 1 "$strict"
    else
        check "strict schedule $name (clean file)" 0 "$strict"
    fi

    # The oversized block must also survive an n**2 builder via the
    # table fallback (never exit nonzero, never abort): its counters
    # show the fallback and not one n**2 compare.
    "$bin" schedule "$f" --builder n2-fwd --counters >/dev/null \
        2>/tmp/corpus_stderr.$$
    check "lenient n2-fwd $name" 0 $?
    if [ "$name" = oversized_block.s ]; then
        if grep -Eq '^robust\.builder_fallbacks +1$' /tmp/corpus_stderr.$$ &&
            ! grep -q 'dag\.pairwise_compares' /tmp/corpus_stderr.$$; then
            echo "ok: n2-fwd $name fell back to table building"
        else
            echo "FAIL: $name: n2-fwd did not fall back to table" \
                "building" >&2
            fails=$((fails + 1))
        fi
    fi
done

rm -f /tmp/corpus_stderr.$$

# Usage errors exit 2, runtime errors exit 1.
"$bin" schedule --no-such-flag >/dev/null 2>&1
check "unknown option" 2 $?
"$bin" no-such-command >/dev/null 2>&1
check "unknown command" 2 $?
"$bin" schedule /nonexistent/input.s >/dev/null 2>&1
check "missing input" 1 $?

if [ "$fails" -ne 0 ]; then
    echo "$fails corpus check(s) failed" >&2
    exit 1
fi
echo "all corpus checks passed"
