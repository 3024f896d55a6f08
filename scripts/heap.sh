#!/usr/bin/env bash
# The exact live heap of one benchmark workload, by allocation site, or
# with -allocs the allocations its measured window makes, by site.
#
#   scripts/heap.sh [-allocs] WORKLOAD [REV]
#   (or: make heap W=<workload> [REV=<rev>] [ALLOCS=1])
#
# Copies benchmark/ of the working tree, or of REV exported with `git
# archive` into .heap/src as `make ab` exports its parent, into
# .heap/benchmark, and patches only that copy: runtime.MemProfileRate = 1
# from start-up, so every allocation is recorded, and the heap profile is
# written to .heap/<workload>.heap right after liveHeapMB(), the point where
# a run reads live_heap_mb (two collections, so the profile is exact). It
# runs the workload once at seed 1 with a 1 s window (the heap is read
# before the window) and prints in-use bytes by allocation site, largest
# first. With -allocs the copy also writes the allocs profile right before
# and right after the measured window (each after a collection, which
# publishes the profile), to .heap/<workload>.allocs.{before,after}, and
# the script prints the window's allocations by site (pprof -base) instead.
# benchmark/ itself is never touched.
set -euo pipefail
allocs=
if [ "${1:-}" = -allocs ]; then
	allocs=1
	shift
fi
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
	echo "usage: $0 [-allocs] WORKLOAD [REV]" >&2
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
window='^\(\t*\)\(w := d\.runWindow(in, led, loadClients(), 0, .*\)$'
sed -i "s/$window/\1writeAllocsProfile(\"before\")\n&\n\1writeAllocsProfile(\"after\")/" run.go
grep -q 'writeAllocsProfile("after")' run.go || { echo "heap: run.go has no 'w := d.runWindow(..., 0, ...)' line to patch" >&2; exit 1; }
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
	writeTo(os.Getenv("HEAP_PROFILE"), "heap")
}

// writeAllocsProfile collects, which publishes every allocation so far,
// and writes the allocs profile to $ALLOCS_PROFILE.<edge>, if that is set.
func writeAllocsProfile(edge string) {
	if os.Getenv("ALLOCS_PROFILE") == "" {
		return
	}
	runtime.GC()
	writeTo(os.Getenv("ALLOCS_PROFILE")+"."+edge, "allocs")
}

func writeTo(path, profile string) {
	f, err := os.Create(path)
	if err == nil {
		err = pprof.Lookup(profile).WriteTo(f, 0)
		f.Close()
	}
	if err != nil {
		panic(err)
	}
}
EOF
GOFLAGS=-buildvcs=false GOWORK=off go build -o "$heap/lobench" .

cd "$heap"
profile="$heap/$workload.heap" allocsProfile=${allocs:+$heap/$workload.allocs}
rm -f "$profile" "$heap/$workload".allocs.*
echo "== $workload (seed 1) from ${rev:-the working tree}; run log in .heap/$workload.log" >&2
HEAP_PROFILE="$profile" ALLOCS_PROFILE="$allocsProfile" "$heap/lobench" --workload "$workload" --seed 1 --seconds 1 --trace 0 >"$heap/$workload.log" 2>&1
if [ -n "$allocsProfile" ]; then
	grep -m1 '^ *allocs_per_op' "$heap/$workload.log" || true
	go tool pprof -sample_index=alloc_objects -ignore='main\.writeAllocsProfile' -top -nodecount=40 -nodefraction=0.001 \
		-base "$allocsProfile.before" "$heap/lobench" "$allocsProfile.after" 2>/dev/null
	exit
fi
grep -m1 '^ *live_heap_mb' "$heap/$workload.log" || true
go tool pprof -sample_index=inuse_space -top -nodecount=40 -nodefraction=0.001 "$heap/lobench" "$profile" 2>/dev/null
