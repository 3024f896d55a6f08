package main

import (
	"lambdastore/internal/cache"
	"lambdastore/internal/core"
)

// cacheReps is how many lookups one cache.lookup span covers.
const cacheReps = 16

// cacheProbe is the result cache alone: a benchmark-owned cache holding
// one get_timeline(40)-shaped entry — 41 read dependencies, the list
// length and 40 entries — looked up and validated against a constant
// value, so no store is behind it.
type cacheProbe struct {
	c        *cache.Cache
	argsHash uint64
	value    []byte
}

func newCacheProbe() *cacheProbe {
	p := &cacheProbe{c: cache.New(1024), value: make([]byte, 16+seedBodyLen)}
	args := [][]byte{core.I64Bytes(seedPosts)}
	p.argsHash = cache.HashArgs("get_timeline", args)
	deps := []cache.ReadDep{{Key: core.ListLenKey(1, "timeline"), ValueHash: cache.HashValue(p.value, true)}}
	for i := 0; i < seedPosts; i++ {
		deps = append(deps, cache.ReadDep{Key: core.ListEntryKey(1, "timeline", uint64(i)), ValueHash: cache.HashValue(p.value, true)})
	}
	p.c.Store(1, "get_timeline", p.argsHash, make([]byte, seedPosts*(8+16+seedBodyLen)), deps)
	return p
}

// lookups performs cacheReps validated hits and reports whether all hit.
func (p *cacheProbe) lookups() bool {
	readHash := func([]byte) uint64 { return cache.HashValue(p.value, true) }
	for i := 0; i < cacheReps; i++ {
		if _, ok := p.c.Lookup(1, "get_timeline", p.argsHash, readHash); !ok {
			return false
		}
	}
	return true
}
