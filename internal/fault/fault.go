// Package fault is LambdaStore's deterministic fault-injection plane. Faults
// live in two places, the network and the disk, and each is decided at one
// seam: every message an rpc client sends (and every dial), and every WAL
// fsync. The chaos harness (internal/chaos), the node.faults operator
// method and the `lambdactl fault` subcommand all drive the same plane, so a failure
// scenario explored in a test can be replayed against a live cluster
// verbatim.
//
// A network rule is one shape: an RPC method (or Wildcard for every method
// and the dial), narrowed to one caller (From, the label of the caller's
// rpc pool: its node's address) and one peer (To). The disk's one site is
// SiteWALSync, narrowed to one database directory.
//
// Design constraints, in order:
//
//  1. Zero overhead when disarmed. Both seams are gated on one atomic load
//     (Enabled), mirroring the tracer's disabled-branch discipline; a
//     disarmed plane costs no allocation and no lock.
//  2. Determinism. Every probabilistic rule draws from its own splitmix64
//     stream seeded from (plane seed, site, endpoints, rule index), so a
//     given seed produces the same per-rule firing sequence run after run.
//     The assignment of draws to concurrent callers follows goroutine
//     interleaving; harnesses therefore assert safety invariants (nothing
//     acknowledged is lost, at most one primary per epoch), never exact
//     event orderings.
//  3. One plane per process. The in-process chaos cluster runs many nodes
//     in one address space; a process-global plane is what lets a single
//     schedule partition links between them. Rules tell nodes apart by
//     address (From, To) and by database directory.
package fault

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// SiteWALSync is the disk's injection site: every WAL fsync, narrowed by
// database directory. Every other site a rule names is an RPC method.
const SiteWALSync = "wal.sync"

// Wildcard, as a rule's site, matches every RPC method and the dial, but not
// the disk; as an endpoint it matches every endpoint, as "" does.
const Wildcard = "*"

// Action is what an armed rule does when it fires.
type Action uint8

const (
	// Drop loses the message: it is never written, and the caller waits
	// out its timeout.
	Drop Action = iota + 1
	// Delay holds the message (or the fsync) for the rule's Delay.
	Delay
	// Error fails the send (or the fsync, or the dial) at once.
	Error
	// Duplicate delivers the message twice: the handler runs twice, the
	// caller gets one reply.
	Duplicate
	// CrashConn tears down the caller's connection; the next call redials.
	CrashConn
)

var actionNames = [...]string{Drop: "drop", Delay: "delay", Error: "error", Duplicate: "dup", CrashConn: "crash"}

// String names the action in rule-grammar form.
func (a Action) String() string {
	if a == 0 || int(a) >= len(actionNames) {
		return fmt.Sprintf("action(%d)", a)
	}
	return actionNames[a]
}

// Errors surfaced by injected faults. The seams wrap them with context.
var (
	ErrInjected    = errors.New("fault: injected error")
	ErrPartitioned = errors.New("fault: link partitioned")
)

// partitioned is the Err of the rules Partition arms.
const partitioned = "partitioned"

// Rule arms one fault.
type Rule struct {
	// Site is the RPC method the rule fires on, Wildcard for every method
	// and the dial, or SiteWALSync.
	Site string
	// From narrows a network rule to one caller, by its pool's label; ""
	// matches every caller, unlabelled ones included.
	From string
	// To narrows the rule to one peer address (for SiteWALSync, one database
	// directory); "" matches all.
	To string
	// Action is what happens when the rule fires.
	Action Action
	// P is the firing probability per evaluation in (0,1]; 0 means 1
	// (always fire).
	P float64
	// Count caps total firings; 0 is unlimited.
	Count uint64
	// Delay is the injected latency for Delay rules.
	Delay time.Duration
	// Err overrides the injected error text for Error rules; "partitioned"
	// injects ErrPartitioned instead.
	Err string
}

// String renders the rule in the grammar ParseRule accepts.
func (r Rule) String() string {
	s := r.Site
	if r.To != "" {
		s += "@" + r.To
	}
	s += " " + r.Action.String()
	switch {
	case r.Action == Delay:
		s += ":" + r.Delay.String()
	case r.Action == Error && r.Err != "":
		s += ":" + r.Err
	}
	if r.From != "" {
		s += " from=" + r.From
	}
	if r.P > 0 && r.P < 1 {
		s += fmt.Sprintf(" p=%g", r.P)
	}
	if r.Count > 0 {
		s += fmt.Sprintf(" count=%d", r.Count)
	}
	return s
}

// matches reports whether the rule covers a message from → to on site.
func (r *Rule) matches(site, from, to string) bool {
	return (r.Site == site || r.Site == Wildcard && site != SiteWALSync) &&
		(r.From == "" || r.From == from) && (r.To == "" || r.To == to)
}

// err is the error an Error rule injects.
func (r *Rule) err() error {
	switch r.Err {
	case "":
		return ErrInjected
	case partitioned:
		return ErrPartitioned
	}
	return fmt.Errorf("%w: %s", ErrInjected, r.Err)
}

// Decision is the merged outcome of every rule that fired on one message.
type Decision struct {
	Drop      bool
	Duplicate bool
	CrashConn bool
	Delay     time.Duration
	Err       error
}

// activeRule pairs a rule with its deterministic draw stream and firing
// count. Mutated only under the plane mutex.
type activeRule struct {
	Rule
	rng   uint64 // splitmix64 state
	fired uint64
}

// fires draws the rule's firing decision for one evaluation and counts a
// firing.
func (r *activeRule) fires() bool {
	if r.Count > 0 && r.fired >= r.Count {
		return false
	}
	if r.P > 0 && r.P < 1 {
		r.rng = splitmix64(r.rng)
		// Uniform in [0,1) from the top 53 bits.
		if float64(r.rng>>11)/(1<<53) >= r.P {
			return false
		}
	}
	r.fired++
	return true
}

// plane is the process-global rule set; armed mirrors "it has rules" so that
// a seam's idle check is a single atomic load.
type plane struct {
	mu    sync.Mutex
	seed  uint64
	rules []*activeRule
	fired map[string]uint64 // "<site>.<action>" -> firings
}

var (
	armed  atomic.Bool
	global = &plane{fired: make(map[string]uint64)}
)

// Enabled reports whether any rule is armed. This is the one atomic load
// each seam pays when the plane is idle.
func Enabled() bool { return armed.Load() }

// SetSeed reseeds the plane and re-derives every armed rule's draw stream,
// so SetSeed(s) followed by the same evaluation sequence replays the same
// decisions.
func SetSeed(seed uint64) {
	global.mu.Lock()
	defer global.mu.Unlock()
	global.seed = seed
	for i, r := range global.rules {
		r.rng = ruleSeed(seed, r.Rule, i)
		r.fired = 0
	}
}

// Seed returns the plane's current seed.
func Seed() uint64 {
	global.mu.Lock()
	defer global.mu.Unlock()
	return global.seed
}

// splitmix64 is the draw stream generator (same mixer the tracer uses for
// IDs): tiny, seedable, and statistically fine for firing decisions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv1a hashes rule identity into the stream seed.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func ruleSeed(seed uint64, r Rule, idx int) uint64 {
	return splitmix64(seed ^ fnv1a(r.Site) ^ fnv1a(r.To)<<1 ^ fnv1a(r.From)<<2 ^ uint64(idx)<<32 | 1)
}

// endpoint normalizes a rule endpoint: Wildcard and "" both match all.
func endpoint(s string) string {
	if s == Wildcard {
		return ""
	}
	return s
}

// Add arms a rule. Rules stack: each is evaluated independently and their
// effects merge.
func Add(r Rule) {
	r.From, r.To = endpoint(r.From), endpoint(r.To)
	if r.P < 0 || r.P > 1 {
		r.P = 1
	}
	global.mu.Lock()
	defer global.mu.Unlock()
	global.rules = append(global.rules, &activeRule{Rule: r, rng: ruleSeed(global.seed, r, len(global.rules))})
	armed.Store(true)
}

// removeIf disarms every rule drop reports true for.
func removeIf(drop func(r *Rule) bool) {
	global.mu.Lock()
	defer global.mu.Unlock()
	kept := global.rules[:0]
	for _, r := range global.rules {
		if !drop(&r.Rule) {
			kept = append(kept, r)
		}
	}
	clear(global.rules[len(kept):])
	global.rules = kept
	armed.Store(len(kept) > 0)
}

// Remove disarms every rule at site toward to (every peer if to is ""/"*"),
// whoever the caller.
func Remove(site, to string) {
	to = endpoint(to)
	removeIf(func(r *Rule) bool { return r.Site == site && (to == "" || r.To == to) })
}

// partitionRules is the pair of rules that sever the link between a and b:
// every message from one to the other fails with ErrPartitioned.
func partitionRules(a, b string) [2]Rule {
	a, b = endpoint(a), endpoint(b)
	return [2]Rule{
		{Site: Wildcard, From: a, To: b, Action: Error, Err: partitioned},
		{Site: Wildcard, From: b, To: a, Action: Error, Err: partitioned},
	}
}

// Partition severs the link between a and b in both directions, at the dial
// and at every send. b may be Wildcard to isolate a from every peer.
func Partition(a, b string) {
	Heal(a, b)
	for _, r := range partitionRules(a, b) {
		Add(r)
	}
}

// Heal restores the link between a and b.
func Heal(a, b string) {
	pair := partitionRules(a, b)
	removeIf(func(r *Rule) bool { return *r == pair[0] || *r == pair[1] })
}

// Clear disarms every rule; firing counters and the seed are preserved
// (counters describe the finished experiment).
func Clear() { removeIf(func(*Rule) bool { return true }) }

// Reset is Clear plus zeroing the firing counters (test isolation).
func Reset() {
	Clear()
	global.mu.Lock()
	global.fired = make(map[string]uint64)
	global.mu.Unlock()
}

// Rules returns the armed rules in installation order.
func Rules() []Rule {
	global.mu.Lock()
	defer global.mu.Unlock()
	out := make([]Rule, len(global.rules))
	for i, r := range global.rules {
		out[i] = r.Rule
	}
	return out
}

// Eval is the plane's one decision: it evaluates every armed rule for a
// message on site from → to (for SiteWALSync, "" and the database
// directory) and merges the fired actions. With the plane disarmed it
// returns the zero Decision after one atomic load and performs no
// allocation.
func Eval(site, from, to string) Decision {
	if !armed.Load() {
		return Decision{}
	}
	return global.eval(site, from, to)
}

func (p *plane) eval(site, from, to string) (d Decision) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.rules {
		if !r.matches(site, from, to) || !r.fires() {
			continue
		}
		p.fired[site+"."+r.Action.String()]++
		switch r.Action {
		case Drop:
			d.Drop = true
		case Duplicate:
			d.Duplicate = true
		case CrashConn:
			d.CrashConn = true
		case Delay:
			d.Delay = max(d.Delay, r.Delay)
		case Error:
			if d.Err == nil {
				d.Err = r.err()
			}
		}
	}
	return d
}

// Counters snapshots cumulative firings as "<site>.<action>" -> count, the
// site being the method (or "*" for a dial) a message was evaluated on
// (what Describe reports; zeroed by Reset).
func Counters() map[string]uint64 {
	global.mu.Lock()
	defer global.mu.Unlock()
	out := make(map[string]uint64, len(global.fired))
	for k, v := range global.fired {
		out[k] = v
	}
	return out
}
