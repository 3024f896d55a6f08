// Package rebalance is the coordinator-side placement brain: it watches
// per-group load (windowed hot-object counters sampled from each
// primary, enriched with the metrics aggregator's tail-latency rollups)
// and moves individual microshards between replica groups through the
// cluster's zero-downtime live-migration machinery (DESIGN.md §13).
//
// The paper's division of labor puts exactly this decision on the
// platform: objects define what data belongs together; where a
// microshard lives is the platform's problem, and because objects
// migrate individually, fixing a hot spot never reshuffles key ranges
// wholesale. The policy is deliberately conservative — hysteresis
// (minimum gain, per-object cooldown, bounded moves per cycle) keeps a
// Zipf-skewed workload converging to a plateau instead of oscillating
// objects between groups.
package rebalance

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"lambdastore/internal/cluster"
	"lambdastore/internal/core"
	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
	"lambdastore/internal/telemetry"
)

// GroupLoad is one replica group's observed load for a window.
type GroupLoad struct {
	ID      uint64           `json:"id"`
	Primary string           `json:"primary"`
	Ops     uint64           `json:"ops"` // invocations completed this window
	Hot     []core.HotObject `json:"-"`
	// Aggregator enrichment (zero when the rollup plane is off).
	P99Us      uint64 `json:"p99_us,omitempty"`
	QueueDepth int64  `json:"queue_depth,omitempty"`
}

// Move is one planned migration.
type Move struct {
	Object uint64 `json:"object"`
	From   uint64 `json:"from"`
	To     uint64 `json:"to"`
	Count  uint64 `json:"count"` // the object's window ops
	Reason string `json:"reason"`
}

// The policy's thresholds, as fractions of the cluster's mean window ops.
const (
	// imbalanceRatio is the trigger: a group is overloaded when its
	// window ops exceed the mean by this factor.
	imbalanceRatio = 1.25
	// minGainFraction is the hysteresis margin: a move must leave the
	// source at least this far above the target. Without it, an object
	// whose load roughly equals the imbalance ping-pongs between two
	// groups forever.
	minGainFraction = 0.1
	// homeSlack prefers the object's default hash placement as the target
	// when its load is within this much of the best target's — going home
	// clears a directory override instead of recording one.
	homeSlack = 0.1
	// topK bounds the per-group hot sample.
	topK = 32
	// cooldown is how long a just-moved object is immune to further moves.
	// It also brackets failed moves, so a flapping target cannot be
	// hammered.
	cooldown = 10 * time.Second
)

// PolicyConfig tunes the hysteresis placement policy.
type PolicyConfig struct {
	// MaxMovesPerTick bounds migrations planned per observation window
	// (default 2) — the in-flight cap; moves execute before the next
	// window is sampled.
	MaxMovesPerTick int
	// MinWindowOps mutes the policy on idle clusters: no group below
	// this many window ops is ever a source (default 50).
	MinWindowOps uint64
}

func (c *PolicyConfig) fill() {
	if c.MaxMovesPerTick <= 0 {
		c.MaxMovesPerTick = 2
	}
	if c.MinWindowOps == 0 {
		c.MinWindowOps = 50
	}
}

// Plan computes the migrations for one observation window. It is a pure
// function of the inputs: loads are the per-group windows, home maps an
// object to its default hash placement, cooling reports whether an
// object is inside its post-move cooldown. Planned moves are simulated
// onto the load vector as they are chosen, so one call never overshoots
// the balance it is chasing.
func Plan(cfg PolicyConfig, loads []GroupLoad, home func(object uint64) (uint64, bool), cooling func(object uint64) bool) []Move {
	cfg.fill()
	if len(loads) < 2 {
		return nil
	}
	sim := make(map[uint64]float64, len(loads))
	byID := make(map[uint64]*GroupLoad, len(loads))
	var total float64
	for i := range loads {
		g := &loads[i]
		sim[g.ID] = float64(g.Ops)
		byID[g.ID] = g
		total += float64(g.Ops)
	}
	mean := total / float64(len(loads))
	margin := minGainFraction * mean

	// Hottest groups first: the worst outlier is fixed before budget is
	// spent on milder ones.
	order := make([]uint64, 0, len(loads))
	for i := range loads {
		order = append(order, loads[i].ID)
	}
	sort.Slice(order, func(i, j int) bool {
		if sim[order[i]] != sim[order[j]] {
			return sim[order[i]] > sim[order[j]]
		}
		return order[i] < order[j]
	})

	var plan []Move
	for _, srcID := range order {
		if len(plan) >= cfg.MaxMovesPerTick {
			break
		}
		src := byID[srcID]
		if src.Primary == "" || src.Ops < cfg.MinWindowOps {
			continue
		}
		if sim[srcID] <= mean*imbalanceRatio {
			continue
		}
		for _, h := range src.Hot {
			if len(plan) >= cfg.MaxMovesPerTick {
				break
			}
			if sim[srcID] <= mean*imbalanceRatio {
				break // this source is balanced now
			}
			c := float64(h.Count)
			if c == 0 || cooling(uint64(h.ID)) {
				continue
			}
			// Least-loaded candidate target with a primary to receive.
			var best *GroupLoad
			for i := range loads {
				t := &loads[i]
				if t.ID == srcID || t.Primary == "" {
					continue
				}
				if best == nil || sim[t.ID] < sim[best.ID] {
					best = t
				}
			}
			if best == nil {
				break
			}
			target := best
			reason := "imbalance"
			if hid, ok := home(uint64(h.ID)); ok && hid != srcID && hid != best.ID {
				if hg, exists := byID[hid]; exists && hg.Primary != "" &&
					sim[hid] <= sim[best.ID]+homeSlack*mean {
					target = hg
					reason = "imbalance,prefer-home"
				}
			} else if ok && hid == best.ID {
				reason = "imbalance,home"
			}
			// Hysteresis: the move must leave the source above the target
			// by the margin, or it is not worth a migration (and might
			// oscillate right back).
			if sim[srcID]-c < sim[target.ID]+c+margin {
				continue // try a colder object — a smaller move may fit
			}
			plan = append(plan, Move{
				Object: uint64(h.ID),
				From:   srcID,
				To:     target.ID,
				Count:  h.Count,
				Reason: reason,
			})
			sim[srcID] -= c
			sim[target.ID] += c
		}
	}
	return plan
}

// Options wires a Rebalancer.
type Options struct {
	// Pool carries hot-window samples and move commands to primaries.
	Pool *rpc.Pool
	// Config returns the current placement view (a coordinator client's
	// GetConfig, or the shared directory in static deployments).
	Config func() (*shard.Directory, error)
	// Rollup, if set, returns the aggregator's per-group tail-latency
	// and queue-depth rollups, folded into the load view for status and
	// observability.
	Rollup func() map[uint64]GroupLoad
	// Interval is the observation window (default 2s). Each tick
	// samples-and-resets every primary's hot counters, so the interval
	// is also the averaging horizon.
	Interval time.Duration
	// DryRun plans and records decisions without executing moves.
	DryRun bool
	// Metrics, if set, publishes the rebalancer's counters.
	Metrics *telemetry.Registry
	// Log, if set, receives decision lines.
	Log func(format string, args ...any)
}

// Decision is one recorded planning outcome (the status surface keeps a
// short ring of these).
type Decision struct {
	UnixNano int64  `json:"unix_nano"`
	Move     Move   `json:"move"`
	Executed bool   `json:"executed"`
	Error    string `json:"error,omitempty"`
}

// Status is the rebalancer's state as served by /rebalance and
// lambdactl rebalance.
type Status struct {
	Ticks       uint64      `json:"ticks"`
	Moves       uint64      `json:"moves"`
	MoveErrors  uint64      `json:"move_errors"`
	LastWindow  []GroupLoad `json:"last_window,omitempty"`
	Cooling     int         `json:"cooling"`
	Decisions   []Decision  `json:"recent_decisions,omitempty"`
	IntervalSec float64     `json:"interval_seconds"`
}

const decisionRing = 32

// Rebalancer periodically samples per-group load and executes the
// planner's moves through the live-migration machinery.
type Rebalancer struct {
	opts Options

	mu       sync.Mutex
	started  bool
	cool     map[uint64]time.Time
	window   []GroupLoad
	history  []Decision
	ticks    uint64
	moves    uint64
	moveErrs uint64

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	movesCtr *telemetry.Counter
	errsCtr  *telemetry.Counter
	ticksCtr *telemetry.Counter
}

// New builds a Rebalancer; Start launches its loop.
func New(opts Options) *Rebalancer {
	if opts.Interval <= 0 {
		opts.Interval = 2 * time.Second
	}
	if opts.Log == nil {
		opts.Log = func(string, ...any) {}
	}
	r := &Rebalancer{
		opts: opts,
		cool: make(map[uint64]time.Time),
		stop: make(chan struct{}),
		done: make(chan struct{}),

		movesCtr: opts.Metrics.Counter("rebalance.moves"),
		errsCtr:  opts.Metrics.Counter("rebalance.move_errors"),
		ticksCtr: opts.Metrics.Counter("rebalance.ticks"),
	}
	return r
}

// Start launches the observation loop. Callers that drive Tick
// themselves never call Start; Close works either way.
func (r *Rebalancer) Start() {
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return
	}
	r.started = true
	r.mu.Unlock()
	go func() {
		defer close(r.done)
		ticker := time.NewTicker(r.opts.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-ticker.C:
			}
			r.Tick()
		}
	}()
}

// Close stops the loop (a no-op wait when Start was never called).
func (r *Rebalancer) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.mu.Lock()
	started := r.started
	r.mu.Unlock()
	if started {
		<-r.done
	}
}

// Moves returns how many migrations the rebalancer has executed.
func (r *Rebalancer) Moves() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.moves
}

// Tick runs one observe→plan→execute cycle (exported for tests and
// benches that drive the cadence themselves).
func (r *Rebalancer) Tick() {
	r.ticksCtr.Inc()
	r.mu.Lock()
	r.ticks++
	r.mu.Unlock()

	d, err := r.opts.Config()
	if err != nil || d == nil {
		return
	}
	loads := r.sample(d)
	r.mu.Lock()
	r.window = loads
	now := time.Now()
	for obj, until := range r.cool {
		if now.After(until) {
			delete(r.cool, obj)
		}
	}
	cooling := make(map[uint64]bool, len(r.cool))
	for obj := range r.cool {
		cooling[obj] = true
	}
	r.mu.Unlock()

	plan := Plan(PolicyConfig{}, loads,
		func(object uint64) (uint64, bool) {
			gid, err := d.DefaultGroupID(object)
			return gid, err == nil
		},
		func(object uint64) bool { return cooling[object] })

	byID := make(map[uint64]*GroupLoad, len(loads))
	for i := range loads {
		byID[loads[i].ID] = &loads[i]
	}
	for _, mv := range plan {
		dec := Decision{UnixNano: time.Now().UnixNano(), Move: mv}
		if !r.opts.DryRun {
			err := r.execute(byID, mv)
			dec.Executed = err == nil
			if err != nil {
				dec.Error = err.Error()
			}
		}
		r.record(dec)
	}
}

// execute runs one move synchronously; the per-tick plan bound is the
// in-flight bound.
func (r *Rebalancer) execute(byID map[uint64]*GroupLoad, mv Move) error {
	src, dst := byID[mv.From], byID[mv.To]
	if src == nil || dst == nil || src.Primary == "" || dst.Primary == "" {
		return fmt.Errorf("rebalance: groups %d→%d not addressable", mv.From, mv.To)
	}
	// Cooldown starts at attempt time: failures back off too.
	r.mu.Lock()
	r.cool[mv.Object] = time.Now().Add(cooldown)
	r.mu.Unlock()
	err := cluster.MoveObject(r.opts.Pool, src.Primary, mv.Object, dst.Primary, mv.To)
	r.mu.Lock()
	if err != nil {
		r.moveErrs++
	} else {
		r.moves++
	}
	r.mu.Unlock()
	if err != nil {
		r.errsCtr.Inc()
		r.opts.Log("rebalance: move object %d %d→%d (%s): %v", mv.Object, mv.From, mv.To, mv.Reason, err)
		return err
	}
	r.movesCtr.Inc()
	r.opts.Log("rebalance: moved object %d %d→%d (%d window ops, %s)", mv.Object, mv.From, mv.To, mv.Count, mv.Reason)
	return nil
}

// sample collects one window: each group primary's hot counters are
// read-and-reset; group ops is the sum over the sample (the tracker's
// capacity far exceeds any plausible per-window working set, so the sum
// is exact for the window). The aggregator rollup, when wired, fills in
// tail latency and queue depth.
func (r *Rebalancer) sample(d *shard.Directory) []GroupLoad {
	var rollup map[uint64]GroupLoad
	if r.opts.Rollup != nil {
		rollup = r.opts.Rollup()
	}
	groups := d.Groups()
	out := make([]GroupLoad, 0, len(groups))
	for _, g := range groups {
		gl := GroupLoad{ID: g.ID, Primary: g.Primary}
		if g.Primary != "" {
			if hot, err := cluster.HotWindow(r.opts.Pool, g.Primary, topK); err == nil {
				gl.Hot = hot
				for _, h := range hot {
					gl.Ops += h.Count
				}
			}
		}
		if ru, ok := rollup[g.ID]; ok {
			gl.P99Us = ru.P99Us
			gl.QueueDepth = ru.QueueDepth
		}
		out = append(out, gl)
	}
	return out
}

// record appends one decision to the status ring.
func (r *Rebalancer) record(dec Decision) {
	r.mu.Lock()
	r.history = append(r.history, dec)
	if len(r.history) > decisionRing {
		r.history = r.history[len(r.history)-decisionRing:]
	}
	r.mu.Unlock()
}

// Status snapshots the rebalancer for /rebalance and lambdactl.
func (r *Rebalancer) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{
		Ticks:       r.ticks,
		Moves:       r.moves,
		MoveErrors:  r.moveErrs,
		Cooling:     len(r.cool),
		IntervalSec: r.opts.Interval.Seconds(),
	}
	st.LastWindow = append(st.LastWindow, r.window...)
	st.Decisions = append(st.Decisions, r.history...)
	return st
}
