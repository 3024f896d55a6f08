package main

import (
	"runtime"
	"time"
)

// canarySink keeps the canary loop's result alive.
var canarySink uint64

// canaryNs times a fixed pure-CPU loop (xorshift, no memory traffic) and
// returns the best of five runs in ns per iteration: the host's speed at
// that moment, so a slow neighbour is visible next to the numbers it bent.
func canaryNs() float64 {
	const iters = 1 << 21
	best := time.Duration(1 << 62)
	for r := 0; r < 5; r++ {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		if d := time.Since(t0); d < best {
			best = d
		}
		canarySink += x
	}
	return float64(best) / iters
}

// allocsPer runs fn n times and returns the process's heap allocations per
// run. It is meant for a quiet process: the replay is single-client and
// only the nodes' idle timers allocate besides fn.
func allocsPer(n int, fn func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}
