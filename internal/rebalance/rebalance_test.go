package rebalance

import (
	"testing"
	"time"

	"lambdastore/internal/cluster"
	"lambdastore/internal/core"
	"lambdastore/internal/retwis"
	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
)

func noHome(object uint64) (uint64, bool) { return 0, false }
func noCool(object uint64) bool           { return false }

func hot(pairs ...uint64) []core.HotObject {
	var out []core.HotObject
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, core.HotObject{ID: core.ObjectID(pairs[i]), Count: pairs[i+1]})
	}
	return out
}

func TestPlanMovesHottestToColdest(t *testing.T) {
	loads := []GroupLoad{
		{ID: 0, Primary: "a", Ops: 1000, Hot: hot(7, 300, 8, 200, 9, 100)},
		{ID: 1, Primary: "b", Ops: 100, Hot: hot(11, 100)},
		{ID: 2, Primary: "c", Ops: 200, Hot: hot(12, 200)},
	}
	plan := Plan(PolicyConfig{}, loads, noHome, noCool)
	if len(plan) == 0 {
		t.Fatal("expected at least one move")
	}
	if plan[0].Object != 7 || plan[0].From != 0 || plan[0].To != 1 {
		t.Fatalf("expected hottest object 7 to move 0→1, got %+v", plan[0])
	}
}

func TestPlanBalancedIsQuiet(t *testing.T) {
	loads := []GroupLoad{
		{ID: 0, Primary: "a", Ops: 500, Hot: hot(1, 500)},
		{ID: 1, Primary: "b", Ops: 480, Hot: hot(2, 480)},
		{ID: 2, Primary: "c", Ops: 510, Hot: hot(3, 510)},
	}
	if plan := Plan(PolicyConfig{}, loads, noHome, noCool); len(plan) != 0 {
		t.Fatalf("balanced cluster planned moves: %+v", plan)
	}
}

func TestPlanHysteresisBlocksOscillation(t *testing.T) {
	// One object carries all the source's load: moving it would just
	// relocate the hot spot, so the min-gain check must reject it.
	loads := []GroupLoad{
		{ID: 0, Primary: "a", Ops: 1000, Hot: hot(7, 1000)},
		{ID: 1, Primary: "b", Ops: 0},
	}
	if plan := Plan(PolicyConfig{}, loads, noHome, noCool); len(plan) != 0 {
		t.Fatalf("whole-load move should be rejected, got %+v", plan)
	}
}

func TestPlanSkipsCoolingObjects(t *testing.T) {
	loads := []GroupLoad{
		{ID: 0, Primary: "a", Ops: 1000, Hot: hot(7, 400, 8, 300)},
		{ID: 1, Primary: "b", Ops: 100},
	}
	cooling := func(object uint64) bool { return object == 7 }
	plan := Plan(PolicyConfig{}, loads, noHome, cooling)
	if len(plan) == 0 {
		t.Fatal("expected a move of the non-cooling object")
	}
	for _, mv := range plan {
		if mv.Object == 7 {
			t.Fatalf("cooling object 7 was planned: %+v", plan)
		}
	}
}

func TestPlanBoundsMovesPerTick(t *testing.T) {
	loads := []GroupLoad{
		{ID: 0, Primary: "a", Ops: 4000, Hot: hot(1, 900, 2, 900, 3, 900, 4, 900, 5, 400)},
		{ID: 1, Primary: "b", Ops: 100},
		{ID: 2, Primary: "c", Ops: 100},
		{ID: 3, Primary: "d", Ops: 100},
	}
	plan := Plan(PolicyConfig{MaxMovesPerTick: 2}, loads, noHome, noCool)
	if len(plan) != 2 {
		t.Fatalf("expected exactly 2 moves, got %d: %+v", len(plan), plan)
	}
}

func TestPlanPrefersHome(t *testing.T) {
	// Groups 1 and 2 are nearly equally idle; object 7's hash home is
	// group 2, so it should go home (clearing an override) rather than
	// to the marginally colder group 1.
	loads := []GroupLoad{
		{ID: 0, Primary: "a", Ops: 1000, Hot: hot(7, 400, 8, 200)},
		{ID: 1, Primary: "b", Ops: 90},
		{ID: 2, Primary: "c", Ops: 110},
	}
	home := func(object uint64) (uint64, bool) {
		if object == 7 {
			return 2, true
		}
		return 0, true
	}
	plan := Plan(PolicyConfig{}, loads, home, noCool)
	if len(plan) == 0 {
		t.Fatal("expected a move")
	}
	if plan[0].Object != 7 || plan[0].To != 2 {
		t.Fatalf("expected object 7 to prefer home group 2, got %+v", plan[0])
	}
}

func TestPlanMutesIdleClusters(t *testing.T) {
	loads := []GroupLoad{
		{ID: 0, Primary: "a", Ops: 20, Hot: hot(7, 20)},
		{ID: 1, Primary: "b", Ops: 1},
	}
	if plan := Plan(PolicyConfig{MinWindowOps: 50}, loads, noHome, noCool); len(plan) != 0 {
		t.Fatalf("idle cluster planned moves: %+v", plan)
	}
}

func TestPlanSimulatesChosenMoves(t *testing.T) {
	// After moving the hottest object to the coldest group, the next
	// move must account for the target's new load — both moves landing
	// on group 1 would overshoot.
	loads := []GroupLoad{
		{ID: 0, Primary: "a", Ops: 1200, Hot: hot(1, 500, 2, 200)},
		{ID: 1, Primary: "b", Ops: 100},
		{ID: 2, Primary: "c", Ops: 200},
	}
	plan := Plan(PolicyConfig{MaxMovesPerTick: 4}, loads, noHome, noCool)
	if len(plan) < 2 {
		t.Fatalf("expected two moves, got %+v", plan)
	}
	if plan[0].To == plan[1].To {
		t.Fatalf("both moves landed on group %d: %+v", plan[0].To, plan)
	}
}

func TestPolicyDefaults(t *testing.T) {
	var cfg PolicyConfig
	cfg.fill()
	if imbalanceRatio <= 1 || minGainFraction <= 0 || homeSlack <= 0 || topK <= 0 || cfg.MaxMovesPerTick <= 0 ||
		cooldown < time.Second || cfg.MinWindowOps == 0 {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
}

// TestTickMovesHotObjects is the end-to-end check that observed load moves
// objects between live groups: two single-node groups, a hot spot on group
// 0, and one Tick of a Rebalancer wired the way cmd/lambdacoord wires it
// (hot windows sampled from, and moves sent to, the primaries over RPC).
func TestTickMovesHotObjects(t *testing.T) {
	l, err := cluster.StartLocal(cluster.LocalOptions{Groups: []int{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	dir, c := l.Dir, l.Client
	if err := c.RegisterType(retwis.MustType()); err != nil {
		t.Fatal(err)
	}
	// Even IDs land in group 0. Hammer 2 and 4; 6..12 stay lukewarm, and
	// carry enough load that group 0 is still the busier group after both
	// hot objects left — the planner's hysteresis refuses a move that only
	// relocates the hot spot.
	hammer := func(id core.ObjectID, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := c.Invoke(id, "add_follower", [][]byte{core.I64Bytes(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range []core.ObjectID{2, 4, 6, 8, 10, 12, 3} {
		if err := c.CreateObject(retwis.TypeName, id); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []core.ObjectID{2, 4} {
		hammer(id, 50)
	}
	for _, id := range []core.ObjectID{6, 8, 10, 12} {
		hammer(id, 30)
	}

	pool := rpc.NewPool(nil)
	t.Cleanup(pool.Close)
	r := New(Options{
		Pool:   pool,
		Config: func() (*shard.Directory, error) { return dir, nil },
	})
	r.Tick()
	if got := r.Moves(); got != 2 {
		t.Fatalf("moved %d objects, want 2 (status %+v)", got, r.Status())
	}
	// The hot objects now live in group 1 with state intact.
	for _, id := range []core.ObjectID{2, 4} {
		g, err := dir.Lookup(uint64(id))
		if err != nil || g.ID != 1 {
			t.Fatalf("object %d in group %d, %v", id, g.ID, err)
		}
		res, err := c.Invoke(id, "follower_count", nil)
		if err != nil || core.BytesI64(res) != 50 {
			t.Fatalf("object %d count after move = %d, %v", id, core.BytesI64(res), err)
		}
	}
	// Cold objects stayed put.
	if g, _ := dir.Lookup(6); g.ID != 0 {
		t.Fatalf("cold object moved to group %d", g.ID)
	}
}
