//go:build !race

package sched

const raceEnabled = false
