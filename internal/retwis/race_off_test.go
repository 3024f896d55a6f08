//go:build !race

package retwis

const raceEnabled = false
