//go:build race

package sched

// raceEnabled relaxes allocation guards that depend on sync.Pool, which
// the race detector makes drop a quarter of what is put into it.
const raceEnabled = true
