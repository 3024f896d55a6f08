package main

// counts is a reading of the layers' public stats, summed over the three
// nodes. Two readings bracket the measured window; their difference is
// what the window did. Counters are exact, so these repeat far better
// than any timing.
type counts struct {
	reg map[string]uint64 // Node.Metrics() counters, by name

	cacheHits, cacheMisses, cacheValidations uint64
	poolWarm, poolCold                       uint64
	stateHits, stateMisses                   uint64
	blockHits, blockMisses                   uint64

	batchSizeSum, batchSizeN uint64 // repl.batch_size histogram
}

// regCounters are the registry counters the per-layer metrics read.
var regCounters = []string{
	"rpc.server.requests", "rpc.server.rx_bytes", "rpc.server.tx_bytes",
	"core.commits", "core.fuel_used",
	"store.wal_syncs", "store.wal_bytes", "store.flushes", "store.compactions",
	"repl.shipped",
	"reads.backup_served", "reads.primary_bounced",
}

func (d *deployment) readCounts() counts {
	c := counts{reg: make(map[string]uint64)}
	for _, name := range regCounters {
		c.reg[name] = 0
	}
	for _, n := range d.nodes {
		// Only instruments the program registered are read: the registry
		// is the program's, the benchmark just looks.
		reg := n.Metrics()
		for _, name := range reg.CounterNames() {
			if _, wanted := c.reg[name]; wanted {
				c.reg[name] += reg.Counter(name).Value()
			}
		}
		for _, name := range reg.HistogramNames() {
			if name == "repl.batch_size" {
				h := reg.Histogram(name).Data()
				c.batchSizeSum += h.SumUs
				c.batchSizeN += h.Count
			}
		}
		if rc := n.Runtime().Cache(); rc != nil {
			st := rc.Stats()
			c.cacheHits += st.Hits
			c.cacheMisses += st.Misses
			c.cacheValidations += st.Validations
		}
		warm, cold := n.Runtime().PoolStats()
		c.poolWarm += warm
		c.poolCold += cold
		sh, sm := n.DB().StateCacheStats()
		c.stateHits += sh
		c.stateMisses += sm
		bh, bm := n.DB().BlockCacheStats()
		c.blockHits += bh
		c.blockMisses += bm
	}
	return c
}

// sub returns c - prev, field by field.
func (c counts) sub(prev counts) counts {
	out := c
	out.reg = make(map[string]uint64, len(c.reg))
	for k, v := range c.reg {
		out.reg[k] = v - prev.reg[k]
	}
	out.cacheHits -= prev.cacheHits
	out.cacheMisses -= prev.cacheMisses
	out.cacheValidations -= prev.cacheValidations
	out.poolWarm -= prev.poolWarm
	out.poolCold -= prev.poolCold
	out.stateHits -= prev.stateHits
	out.stateMisses -= prev.stateMisses
	out.blockHits -= prev.blockHits
	out.blockMisses -= prev.blockMisses
	out.batchSizeSum -= prev.batchSizeSum
	out.batchSizeN -= prev.batchSizeN
	return out
}
