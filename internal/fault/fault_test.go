package fault

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestDisabledPlaneIsFree pins the acceptance bar: a disarmed plane costs
// no allocation at a seam.
func TestDisabledPlaneIsFree(t *testing.T) {
	Reset()
	if Enabled() {
		t.Fatal("plane armed after Reset")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if d := Eval("obj.invoke", "a", "127.0.0.1:1"); d.Drop || d.Err != nil {
			t.Fatal("disarmed plane fired")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled plane allocates: %v allocs/op", allocs)
	}
}

func TestRuleFiresAndCounts(t *testing.T) {
	Reset()
	defer Reset()
	Add(Rule{Site: SiteWALSync, To: "dir1", Action: Error, Err: "disk gone", Count: 2})

	if d := Eval(SiteWALSync, "", "other"); d.Err != nil {
		t.Fatal("directory-scoped rule fired for another directory")
	}
	for i := 0; i < 2; i++ {
		d := Eval(SiteWALSync, "", "dir1")
		if !errors.Is(d.Err, ErrInjected) {
			t.Fatalf("firing %d: err = %v", i, d.Err)
		}
		if !strings.Contains(d.Err.Error(), "disk gone") {
			t.Fatalf("err text lost: %v", d.Err)
		}
	}
	if d := Eval(SiteWALSync, "", "dir1"); d.Err != nil {
		t.Fatal("rule fired beyond its count cap")
	}
	if got := Counters()["wal.sync.error"]; got != 2 {
		t.Fatalf("counter = %d, want 2", got)
	}
}

// TestRuleNarrowing pins the one rule shape: a method rule fires only for
// its method, Wildcard for every method but never for the disk, a from rule
// only for that caller (never an unlabelled one), a to rule only toward that
// peer.
func TestRuleNarrowing(t *testing.T) {
	Reset()
	defer Reset()
	fired := func(site, from, to string) bool { return Eval(site, from, to).Drop }
	Add(Rule{Site: "m.a", Action: Drop})
	if !fired("m.a", "", "x") || fired("m.b", "", "x") || fired(Wildcard, "", "x") {
		t.Fatal("method rule fired off its method (or at the dial)")
	}
	Clear()
	Add(Rule{Site: Wildcard, Action: Drop})
	if !fired("m.a", "", "x") || !fired(Wildcard, "", "x") || fired(SiteWALSync, "", "x") {
		t.Fatal("wildcard rule missed a method or the dial, or reached the disk")
	}
	Clear()
	Add(Rule{Site: Wildcard, From: "n1", To: "c3", Action: Drop})
	if !fired("m.a", "n1", "c3") || fired("m.a", "", "c3") || fired("m.a", "n2", "c3") || fired("m.a", "n1", "c2") {
		t.Fatal("from/to rule fired for another link")
	}
}

// TestSeededDeterminism checks that a probabilistic rule replays the same
// firing sequence for the same seed and diverges for another.
func TestSeededDeterminism(t *testing.T) {
	Reset()
	defer Reset()
	run := func(seed uint64) []bool {
		Clear()
		SetSeed(seed)
		Add(Rule{Site: Wildcard, Action: Drop, P: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = Eval("m", "", "x").Drop
		}
		return out
	}
	a1, a2, b := run(7), run(7), run(8)
	same := true
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("seed 7 diverged at draw %d", i)
		}
		if a1[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical streams")
	}
	fired := 0
	for _, f := range a1 {
		if f {
			fired++
		}
	}
	if fired == 0 || fired == len(a1) {
		t.Fatalf("p=0.5 fired %d/%d times", fired, len(a1))
	}
}

// TestPartitionMatrix pins partitions as rules: symmetric, wildcard-capable,
// failing with ErrPartitioned, and healed by removing exactly their rules.
func TestPartitionMatrix(t *testing.T) {
	Reset()
	defer Reset()
	cut := func(from, to string) bool { return errors.Is(Eval("m", from, to).Err, ErrPartitioned) }
	Partition("a", "b")
	if !cut("a", "b") || !cut("b", "a") {
		t.Fatal("partition is not symmetric")
	}
	if cut("a", "c") || cut("", "b") {
		t.Fatal("unrelated link partitioned")
	}
	Partition("c", Wildcard)
	if !cut("c", "z") || !cut("z", "c") || !cut("", "c") {
		t.Fatal("wildcard partition did not isolate c")
	}
	Heal("b", "a")
	if cut("a", "b") || !cut("c", "z") {
		t.Fatal("heal restored the wrong link")
	}
	Heal(Wildcard, "c")
	if cut("c", "z") || Enabled() {
		t.Fatal("plane armed with every link healed")
	}
}

func TestDelayAndMerge(t *testing.T) {
	Reset()
	defer Reset()
	Add(Rule{Site: Wildcard, Action: Delay, Delay: 3 * time.Millisecond})
	Add(Rule{Site: "m", Action: Delay, Delay: time.Millisecond})
	Add(Rule{Site: "m", Action: Drop})
	d := Eval("m", "", "n")
	if d.Delay != 3*time.Millisecond || !d.Drop {
		t.Fatalf("merged decision = %+v", d)
	}
}

func TestGrammarRoundTrip(t *testing.T) {
	Reset()
	defer Reset()
	script := `
# a comment
seed 42
rule *@127.0.0.1:9 drop p=0.25 count=10
rule wal.sync error:enospc
rule coord.heartbeat delay:5ms from=127.0.0.1:8
partition 127.0.0.1:9 *
`
	if err := ApplyAll(script); err != nil {
		t.Fatal(err)
	}
	if Seed() != 42 {
		t.Fatalf("seed = %d", Seed())
	}
	rules := Rules()
	if len(rules) != 5 {
		t.Fatalf("rules = %d, want 3 + a partition's 2", len(rules))
	}
	if rules[0].P != 0.25 || rules[0].Count != 10 || rules[0].To != "127.0.0.1:9" || rules[0].Site != Wildcard {
		t.Fatalf("rule 0 = %+v", rules[0])
	}
	if rules[2].Delay != 5*time.Millisecond || rules[2].From != "127.0.0.1:8" {
		t.Fatalf("rule 2 = %+v", rules[2])
	}
	// Describe output must re-apply cleanly onto a fresh plane.
	desc := Describe()
	Reset()
	if err := ApplyAll(desc); err != nil {
		t.Fatalf("describe output not re-appliable: %v\n%s", err, desc)
	}
	if got := Rules(); len(got) != len(rules) || got[4] != rules[4] {
		t.Fatalf("round trip lost state: %+v", got)
	}
	if err := ApplyAll("heal * 127.0.0.1:9\nremove coord.heartbeat"); err != nil || len(Rules()) != 2 {
		t.Fatalf("heal + remove left %d rules (%v)", len(Rules()), err)
	}
	for _, bad := range []string{"rule rpc.send explode", "rule @x drop", "rule * drop p=NaN", "bogus", "heal *"} {
		if err := ApplyAll(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

// TestScriptAllOrNothing: a script with a bad line arms nothing, not the
// lines before it, so re-sending the corrected script arms each rule once;
// the error names the bad line by number and text.
func TestScriptAllOrNothing(t *testing.T) {
	Reset()
	defer Reset()
	err := ApplyAll("rule a drop\nbogus")
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("error = %v, want one naming line 2 and its text", err)
	}
	if rules := Rules(); len(rules) != 0 {
		t.Fatalf("a refused script armed %d rule(s): %+v", len(rules), rules)
	}
	if err := ApplyAll("rule a drop\nrule b drop"); err != nil {
		t.Fatal(err)
	}
	if rules := Rules(); len(rules) != 2 {
		t.Fatalf("the corrected script armed %d rules, want 2: %+v", len(rules), rules)
	}
}

// FuzzFaultGrammar: the grammar node.faults applies never panics, and a
// parsed rule's String re-parses to an equal rule.
func FuzzFaultGrammar(f *testing.F) {
	for _, s := range []string{
		"rule *@127.0.0.1:9 drop p=0.25 count=10",
		"rule wal.sync@/data/n0 error:enospc",
		"rule repl.applyBatch delay:1.5ms from=a p=1",
		"partition a *\nheal * a",
		"remove *@b",
		"seed 0x2a\nclear\nreset",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script string) {
		defer Reset()
		_ = ApplyAll(script)
		for _, line := range strings.Split(script, "\n") {
			r, err := ParseRule(strings.TrimPrefix(strings.TrimSpace(line), "rule "))
			if err != nil {
				continue
			}
			again, err := ParseRule(r.String())
			if err != nil || again != r {
				t.Fatalf("%q parsed to %+v, whose String %q re-parsed to %+v, %v", line, r, r.String(), again, err)
			}
		}
	})
}

// BenchmarkDisabledSite must report 0 allocs/op: the per-message cost of an
// idle plane on every RPC and WAL sync.
func BenchmarkDisabledSite(b *testing.B) {
	Reset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Enabled() {
			_ = Eval("obj.invoke", "", "127.0.0.1:1")
		}
	}
}

// BenchmarkArmedOtherSite measures the cost when the plane is armed but the
// rule targets a different site (the common case during an experiment).
func BenchmarkArmedOtherSite(b *testing.B) {
	Reset()
	Add(Rule{Site: SiteWALSync, Action: Delay, Delay: time.Millisecond})
	defer Reset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Enabled() {
			_ = Eval("obj.invoke", "", "127.0.0.1:1")
		}
	}
}
