#!/bin/sh
# Run every example once, at a scale that finishes in about a second.
# trace_replay is the trace-format golden round trip: it records a
# workload, loads the file back, and exits 1 unless both replays
# produce equal RunStats.
#
# usage: tools/smoke_examples.sh <build-dir>
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 <build-dir>" >&2
    exit 2
fi
bin=$1
traces=$(mktemp -d)
trap 'rm -rf "$traces"' EXIT

set -x
"$bin/adversary"
# A zero-page adversary has nothing to measure: a usage error.
rc=0
"$bin/adversary" 0 2> /dev/null || rc=$?
[ "$rc" -eq 2 ]
"$bin/custom_sweep" ocean 0.1 2
"$bin/database_scan"
"$bin/protocol_explorer"
"$bin/quickstart" moldyn 0.1
"$bin/trace_replay" radix 0.1 "$traces/radix.strace"
"$bin/trace_replay" zipf-serve 0.1 "$traces/zipf.strace"
