//go:build race

package core

// raceEnabled relaxes allocation guards that depend on sync.Pool, which
// the race detector makes drop a quarter of what is put into it.
const raceEnabled = true
