#!/usr/bin/env bash
# The exact live heap of one benchmark workload, by allocation site.
#
#   scripts/heap.sh WORKLOAD [REV]   (or: make heap W=<workload> [REV=<rev>])
#
# Copies benchmark/ of the working tree, or of REV exported with `git
# archive` into .heap/src as `make ab` exports its parent, into
# .heap/benchmark, and patches only that copy: runtime.MemProfileRate = 1
# from start-up, so every allocation is recorded, and the heap profile is
# written to .heap/<workload>.heap right after liveHeapMB(), the point where
# a run reads live_heap_mb (two collections, so the profile is exact). It
# runs the workload once at seed 1 with a 1 s window (the heap is read
# before the window) and prints in-use bytes by allocation site, largest
# first. benchmark/ itself is never touched.
set -euo pipefail
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
	echo "usage: $0 WORKLOAD [REV]" >&2
	exit 2
fi
workload=$1 rev=${2:-}
root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
heap="$root/.heap"
mkdir -p "$heap"
rm -rf "$heap/benchmark" "$heap/src"
src=$root
if [ -n "$rev" ]; then
	mkdir -p "$heap/src"
	git -C "$root" archive "$rev" | tar -x -C "$heap/src"
	src="$heap/src"
fi
tar -C "$src" --exclude=benchmark/out -c benchmark | tar -x -C "$heap"
cd "$heap/benchmark"

# The copy builds against the source tree it came from.
sed -i "s#^replace lambdastore => \.\./\$#replace lambdastore => $src#" go.mod
grep -q "^replace lambdastore => $src\$" go.mod || { echo "heap: go.mod has no 'replace lambdastore => ../' to patch" >&2; exit 1; }
sed -i 's/^\(\t*\)m\["live_heap_mb"\] = liveHeapMB()$/&\n\1writeHeapProfile()/' run.go
grep -q 'writeHeapProfile()' run.go || { echo "heap: run.go has no 'm[\"live_heap_mb\"] = liveHeapMB()' line to patch" >&2; exit 1; }
cat >heap_profile.go <<'EOF'
package main

import (
	"os"
	"runtime"
	"runtime/pprof"
)

func init() { runtime.MemProfileRate = 1 }

// writeHeapProfile writes the heap as of the last collection to
// $HEAP_PROFILE.
func writeHeapProfile() {
	f, err := os.Create(os.Getenv("HEAP_PROFILE"))
	if err == nil {
		err = pprof.Lookup("heap").WriteTo(f, 0)
		f.Close()
	}
	if err != nil {
		panic(err)
	}
}
EOF
GOFLAGS=-buildvcs=false GOWORK=off go build -o "$heap/lobench" .

cd "$heap"
profile="$heap/$workload.heap"
rm -f "$profile"
echo "== $workload (seed 1) from ${rev:-the working tree}; run log in .heap/$workload.log" >&2
HEAP_PROFILE="$profile" "$heap/lobench" --workload "$workload" --seed 1 --seconds 1 --trace 0 >"$heap/$workload.log" 2>&1
grep -m1 '^ *live_heap_mb' "$heap/$workload.log" || true
go tool pprof -sample_index=inuse_space -top -nodecount=40 -nodefraction=0.001 "$heap/lobench" "$profile" 2>/dev/null
