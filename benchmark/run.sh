#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root.
#
#   benchmark/run.sh                         every workload, seed 1 (--all)
#   benchmark/run.sh --all --seed 7          every workload, seed 7
#   benchmark/run.sh --aa 10                 the A/A check, writes benchmark/AA.md
#   benchmark/run.sh --workload fabric-48k --seed 3 --seconds 10 --trace 0
#                                            one contract run; the last line of
#                                            standard output is the result object
#
# The collector logs every window to standard error, synchronously, so
# what standard error is attached to shows up in its window time. Here it
# always drains into a pipe; the last lines are kept in
# benchmark/out/stderr.log and shown when the run fails.
set -uo pipefail
cd "$(dirname "$0")/.."
mkdir -p benchmark/out
log=benchmark/out/stderr.log
[ $# -eq 0 ] && set -- --all
{
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@" \
        2>&1 1>&3 3>&- | tail -n 40 >"$log"
} 3>&1
status=$?
if [ $status -ne 0 ]; then
    cat "$log" >&2
fi
exit $status
