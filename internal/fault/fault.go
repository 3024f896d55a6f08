// Package fault is LambdaStore's deterministic fault-injection plane: a
// process-wide set of named injection points threaded through the network
// substrate (rpc), the storage engine's WAL sync, the replication shipper
// and the coordinator's heartbeat path. The chaos harness (internal/chaos),
// the /faults debug endpoint and the `lambdactl fault` subcommand all drive
// the same plane, so a failure scenario explored in a test can be replayed
// against a live cluster verbatim.
//
// Design constraints, in order:
//
//  1. Zero overhead when disarmed. Every injection site is gated on one
//     atomic load (Enabled), mirroring the tracer's disabled-branch
//     discipline; a disarmed plane costs no allocation and no lock.
//  2. Determinism. Every probabilistic rule draws from its own splitmix64
//     stream seeded from (plane seed, site, key, rule index), so a given
//     seed produces the same per-rule firing sequence run after run. The
//     assignment of draws to concurrent callers follows goroutine
//     interleaving; harnesses therefore assert safety invariants (nothing
//     acknowledged is lost, at most one primary per epoch), never exact
//     event orderings.
//  3. One plane per process. The in-process chaos cluster runs many nodes
//     in one address space; a process-global plane is what lets a single
//     schedule partition links between them. Sites disambiguate nodes by
//     key: the peer address at rpc sites, the database directory at
//     wal.sync, the backup address at repl.ship.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lambdastore/internal/telemetry"
)

// Injection site names. Sites are plain strings so subsystems can add their
// own without touching this package; these are the ones wired today.
const (
	SiteRPCDial        = "rpc.dial"        // key: target address
	SiteRPCSend        = "rpc.send"        // key: target address
	SiteRPCRecv        = "rpc.recv"        // key: receiving server's address
	SiteWALSync        = "wal.sync"        // key: database directory
	SiteReplShip       = "repl.ship"       // key: backup address
	SiteCoordHeartbeat = "coord.heartbeat" // key: heartbeating node's address
	// State-transfer sites (internal/recovery; rejoin and live moves alike):
	// digest and chunk pulls are evaluated on the receiver of state before
	// each call, forwards on the sender before relaying a committed
	// write-set into a session.
	SiteRecoveryFetch   = "recovery.fetch"   // key: sender (donor / move source) address
	SiteRecoveryForward = "recovery.forward" // key: receiver (joiner / move target) address
	// Read-lease renewal sends (internal/replication): delaying or
	// dropping them models clock skew / renewal loss — the backup's lease
	// expires and reads bounce to the primary until renewals resume.
	SiteLeaseRenew = "lease.renew" // key: backup address
)

// Action is what an armed rule does when it fires.
type Action uint8

const (
	// Drop loses the message: an rpc.send request is never written (the
	// caller observes a timeout), an rpc.recv request is silently ignored,
	// a repl.ship write-set is reported shipped without being delivered
	// (divergence injection), a heartbeat is not sent.
	Drop Action = iota + 1
	// Delay sleeps the site for the rule's Delay before proceeding.
	Delay
	// Error fails the site with ErrInjected (or the rule's message).
	Error
	// Duplicate delivers the message twice (at-least-once probing).
	Duplicate
	// CrashConn tears down the underlying connection mid-operation.
	CrashConn
)

// String names the action in rule-grammar form.
func (a Action) String() string {
	switch a {
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Error:
		return "error"
	case Duplicate:
		return "dup"
	case CrashConn:
		return "crash"
	default:
		return fmt.Sprintf("action(%d)", a)
	}
}

// Errors surfaced by injected faults. Sites wrap them with context.
var (
	ErrInjected    = errors.New("fault: injected error")
	ErrPartitioned = errors.New("fault: link partitioned")
)

// Wildcard matches every key (rules) or every peer (partitions).
const Wildcard = "*"

// Rule arms one fault at one site.
type Rule struct {
	// Site is the injection point name (SiteRPCSend, ...).
	Site string
	// Key narrows the rule to one key at the site; "" or "*" match all.
	Key string
	// Action is what happens when the rule fires.
	Action Action
	// P is the firing probability per evaluation in (0,1]; 0 means 1
	// (always fire).
	P float64
	// Count caps total firings; 0 is unlimited.
	Count uint64
	// Delay is the injected latency for Delay rules.
	Delay time.Duration
	// Err overrides the injected error text for Error rules.
	Err string
}

// String renders the rule in the grammar Parse accepts.
func (r Rule) String() string {
	s := r.Site
	if r.Key != "" && r.Key != Wildcard {
		s += "@" + r.Key
	}
	s += " " + r.Action.String()
	switch r.Action {
	case Delay:
		s += ":" + r.Delay.String()
	case Error:
		if r.Err != "" {
			s += ":" + r.Err
		}
	}
	if r.P > 0 && r.P < 1 {
		s += fmt.Sprintf(" p=%g", r.P)
	}
	if r.Count > 0 {
		s += fmt.Sprintf(" count=%d", r.Count)
	}
	return s
}

// Decision is the merged outcome of every rule that fired at a site.
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

// plane is the process-global rule set. armed counts installed rules plus
// partitioned pairs so the hot path is a single atomic load.
type plane struct {
	mu    sync.Mutex
	seed  uint64
	rules []*activeRule
	parts map[[2]string]struct{}
	fired map[string]uint64 // "<site>.<action>" -> firings
}

var (
	armed  atomic.Int64
	global = &plane{parts: make(map[[2]string]struct{}), fired: make(map[string]uint64)}
	// registry mirrors firing counts into a telemetry registry when set.
	registry atomic.Pointer[telemetry.Registry]
)

// Enabled reports whether any rule or partition is armed. This is the one
// atomic load every injection site pays when the plane is idle.
func Enabled() bool { return armed.Load() != 0 }

// SetRegistry mirrors fault firings into reg as counters: per site
// ("fault.<site>.<action>"), per action ("fault.injected.<action>") and
// "fault.injected.total". They are cumulative; Reset zeroes only the counts
// Describe reports.
func SetRegistry(reg *telemetry.Registry) { registry.Store(reg) }

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
	return splitmix64(seed ^ fnv1a(r.Site) ^ fnv1a(r.Key)<<1 ^ uint64(idx)<<32 | 1)
}

// Add arms a rule. Rules at the same site stack: each is evaluated
// independently and their effects merge.
func Add(r Rule) {
	if r.Key == Wildcard {
		r.Key = ""
	}
	if r.P < 0 || r.P > 1 {
		r.P = 1
	}
	global.mu.Lock()
	global.rules = append(global.rules, &activeRule{Rule: r, rng: ruleSeed(global.seed, r, len(global.rules))})
	global.mu.Unlock()
	armed.Add(1)
}

// Remove disarms every rule at site (all keys if key is ""/"*").
func Remove(site, key string) {
	if key == Wildcard {
		key = ""
	}
	global.mu.Lock()
	kept := global.rules[:0]
	removed := int64(0)
	for _, r := range global.rules {
		if r.Site == site && (key == "" || r.Key == key) {
			removed++
			continue
		}
		kept = append(kept, r)
	}
	global.rules = kept
	global.mu.Unlock()
	armed.Add(-removed)
}

// Clear disarms every rule and heals every partition; firing counters and
// the seed are preserved (counters describe the finished experiment).
func Clear() {
	global.mu.Lock()
	n := int64(len(global.rules) + len(global.parts))
	global.rules = nil
	global.parts = make(map[[2]string]struct{})
	global.mu.Unlock()
	armed.Add(-n)
}

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

// pairKey normalizes an unordered address pair.
func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Partition blocks the link between a and b in both directions (checked at
// rpc.dial and rpc.send). b may be Wildcard to isolate a from every peer.
func Partition(a, b string) {
	global.mu.Lock()
	k := pairKey(a, b)
	_, dup := global.parts[k]
	global.parts[k] = struct{}{}
	global.mu.Unlock()
	if !dup {
		armed.Add(1)
	}
}

// Heal unblocks the link between a and b.
func Heal(a, b string) {
	global.mu.Lock()
	k := pairKey(a, b)
	_, ok := global.parts[k]
	delete(global.parts, k)
	global.mu.Unlock()
	if ok {
		armed.Add(-1)
	}
}

// HealAll removes every partition.
func HealAll() {
	global.mu.Lock()
	n := int64(len(global.parts))
	global.parts = make(map[[2]string]struct{})
	global.mu.Unlock()
	armed.Add(-n)
}

// Partitions returns the partitioned pairs, sorted.
func Partitions() [][2]string {
	global.mu.Lock()
	out := make([][2]string, 0, len(global.parts))
	for k := range global.parts {
		out = append(out, k)
	}
	global.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Partitioned reports whether the from->to link is severed, honoring
// wildcard partitions on either endpoint. Callers gate on Enabled.
func Partitioned(from, to string) bool {
	if armed.Load() == 0 {
		return false
	}
	global.mu.Lock()
	defer global.mu.Unlock()
	if len(global.parts) == 0 {
		return false
	}
	if _, ok := global.parts[pairKey(from, to)]; ok {
		return true
	}
	if _, ok := global.parts[pairKey(from, Wildcard)]; ok && from != "" {
		return true
	}
	if _, ok := global.parts[pairKey(to, Wildcard)]; ok && to != "" {
		return true
	}
	return false
}

// Eval evaluates every armed rule for site/key and merges the fired
// actions. With the plane disarmed it returns the zero Decision after one
// atomic load and performs no allocation.
func Eval(site, key string) Decision {
	if armed.Load() == 0 {
		return Decision{}
	}
	return global.eval(site, key)
}

func (p *plane) eval(site, key string) Decision {
	var d Decision
	p.mu.Lock()
	for _, r := range p.rules {
		if r.Site != site || (r.Key != "" && r.Key != key) {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		if r.P > 0 && r.P < 1 {
			r.rng = splitmix64(r.rng)
			// Uniform in [0,1) from the top 53 bits.
			if float64(r.rng>>11)/(1<<53) >= r.P {
				continue
			}
		}
		r.fired++
		p.fired[site+"."+r.Action.String()]++
		switch r.Action {
		case Drop:
			d.Drop = true
		case Duplicate:
			d.Duplicate = true
		case CrashConn:
			d.CrashConn = true
		case Delay:
			if r.Delay > d.Delay {
				d.Delay = r.Delay
			}
		case Error:
			if d.Err == nil {
				if r.Err != "" {
					d.Err = fmt.Errorf("%w: %s", ErrInjected, r.Err)
				} else {
					d.Err = ErrInjected
				}
			}
		}
		reg := registry.Load()
		reg.Counter("fault." + site + "." + r.Action.String()).Inc()
		reg.Counter("fault.injected." + r.Action.String()).Inc()
		reg.Counter("fault.injected.total").Inc()
	}
	p.mu.Unlock()
	return d
}

// Counters snapshots cumulative firings as "<site>.<action>" -> count
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
