package core_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"lambdastore/internal/chaos"
	"lambdastore/internal/core"
	"lambdastore/internal/retwis"
	"lambdastore/internal/vm"
)

// recorder is a Backend that notes which of its methods a guest reached.
type recorder struct {
	mu      sync.Mutex
	reached map[string]bool
}

func (r *recorder) note(method string) {
	r.mu.Lock()
	r.reached[method] = true
	r.mu.Unlock()
}

func (r *recorder) Now() int64  { r.note("Now"); return 1 }
func (r *recorder) Rand() int64 { r.note("Rand"); return 4 }
func (r *recorder) Get(*core.FieldDef, []byte, uint64) ([]byte, bool, error) {
	r.note("Get")
	return []byte("v"), true, nil
}
func (r *recorder) Put(*core.FieldDef, []byte, []byte) error { r.note("Put"); return nil }
func (r *recorder) Del(*core.FieldDef, []byte) error         { r.note("Del"); return nil }
func (r *recorder) Count(*core.FieldDef) (int64, error)      { r.note("Count"); return 1, nil }
func (r *recorder) ListLen(*core.FieldDef) (int64, error)    { r.note("ListLen"); return 1, nil }
func (r *recorder) ListPush(*core.FieldDef, []byte) error    { r.note("ListPush"); return nil }
func (r *recorder) BeginCall() error                         { r.note("BeginCall"); return nil }
func (r *recorder) Dispatch(core.ObjectID, string, [][]byte) ([]byte, error) {
	return nil, nil
}

// oneCallType is a type whose one method m calls import h once: a field
// import gets a field of its kind, every other argument is 0.
func oneCallType(t *testing.T, h core.HostImport) *core.ObjectType {
	t.Helper()
	var src strings.Builder
	src.WriteString("func m params=0 export\n")
	args := h.NArgs
	for prefix, field := range map[string]string{"val_": "v", "map_": "m", "list_": "l"} {
		if strings.HasPrefix(h.Name, prefix) {
			fmt.Fprintf(&src, "  str %q\n", field)
			args -= 2
		}
	}
	for i := 0; i < args; i++ {
		src.WriteString("  push 0\n")
	}
	fmt.Fprintf(&src, "  hostcall %s\n", h.Name)
	if h.HasRet {
		src.WriteString("  pop\n")
	}
	src.WriteString("  ret\nend\n")
	typ, err := core.NewObjectType("Probe", []core.FieldDef{
		{Name: "v", Kind: core.FieldValue},
		{Name: "m", Kind: core.FieldMap},
		{Name: "l", Kind: core.FieldList},
	}, []core.MethodInfo{{Name: "m"}}, vm.MustAssemble(src.String()))
	if err != nil {
		t.Fatalf("%s: %v", h.Name, err)
	}
	return typ
}

// TestHostEffectClasses pins the table every admission, route and cache
// decision rests on. Each host import runs once against a recording
// Backend: one classed a read never reaches a write or a nested call, and
// one classed deterministic never reaches the clock or randomness. A method
// calling only it gets exactly its class. Then the shipped guests' methods
// are pinned to the classes they were once declared with.
func TestHostEffectClasses(t *testing.T) {
	pool := core.NewInstancePool(core.DefaultFuel, nil, nil)
	seen := map[string]bool{}
	for _, h := range core.HostImports() {
		typ := oneCallType(t, h)
		rec := &recorder{reached: map[string]bool{}}
		_, err := pool.Run(nil, rec, 1, typ, "m", [][]byte{[]byte("a")})
		// A read must run to the end, or it could pass by trapping first.
		if err != nil && h.Effects.ReadOnly() {
			t.Fatalf("%s: %v", h.Name, err)
		}
		for method := range rec.reached {
			seen[method] = true
		}
		if h.Effects.ReadOnly() {
			for _, w := range []string{"Put", "Del", "ListPush", "BeginCall"} {
				if rec.reached[w] {
					t.Errorf("%s is classed a read but reached %s", h.Name, w)
				}
			}
		}
		if h.Effects&core.Nondet == 0 && (rec.reached["Now"] || rec.reached["Rand"]) {
			t.Errorf("%s is classed deterministic but reached %v", h.Name, rec.reached)
		}
		if m, _ := typ.Method("m"); m.ReadOnly() != h.Effects.ReadOnly() || m.Cacheable() != h.Effects.Cacheable() {
			t.Errorf("%s: a method calling only it is read-only %v, cacheable %v; its class is %v",
				h.Name, m.ReadOnly(), m.Cacheable(), h.Effects)
		}
	}
	// The recorder saw every Backend method the classes are about, so the
	// runs above did drive the backend.
	for _, method := range []string{"Get", "Count", "ListLen", "Put", "Del", "ListPush", "BeginCall", "Now", "Rand"} {
		if !seen[method] {
			t.Errorf("no host import reached Backend.%s", method)
		}
	}

	reads := map[string]bool{"get_name": true, "follower_count": true, "timeline_len": true, "get_timeline": true, "list": true}
	pinned := 0
	for _, newType := range []func() (*core.ObjectType, error){retwis.NewType, chaos.LedgerType} {
		typ, err := newType()
		if err != nil {
			t.Fatal(err)
		}
		for i := range typ.Methods {
			m := &typ.Methods[i]
			if m.ReadOnly() != reads[m.Name] || m.Cacheable() != reads[m.Name] {
				t.Errorf("%s.%s: read-only %v, cacheable %v; want both %v", typ.Name, m.Name, m.ReadOnly(), m.Cacheable(), reads[m.Name])
			}
			pinned++
		}
	}
	if pinned != 12 {
		t.Fatalf("pinned %d methods of retwis.User and chaos.Ledger, want 12", pinned)
	}
}
