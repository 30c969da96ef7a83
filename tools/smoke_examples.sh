#!/bin/sh
# Run every example once, at a scale that finishes in about a second.
#
# usage: tools/smoke_examples.sh <build-dir>
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 <build-dir>" >&2
    exit 2
fi
bin=$1

set -x
"$bin/adversary"
# A zero-page adversary has nothing to measure: a usage error.
rc=0
"$bin/adversary" 0 2> /dev/null || rc=$?
[ "$rc" -eq 2 ]
"$bin/custom_sweep" ocean 0.1 2
"$bin/protocol_explorer"
"$bin/quickstart" moldyn 0.1
