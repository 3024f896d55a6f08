package lambdastore_test

// TestNothingUnreached is the "one generation" guard: product code that no
// product code reaches is a superseded generation somebody forgot to
// delete. It is by-name and therefore conservative — a name counts as
// reached when any non-test file mentions it outside its own declaration.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnly lists functions no product code names, each with the test for
// which it is the only observation point (or the contract that calls it
// without naming it).
var testOnly = map[string]string{
	"Unwrap": "vm.HostError: errors.Is/As call it through the error chain, never by name",

	"EWMALatency":       "admission: TestObserveFeedsEWMA reads the service-time estimate",
	"Dispatched":        "baseline: baseline_test counts jobs the load balancer spread",
	"InvokeTraced":      "cluster: observability_test fetches one request's spans by trace ID",
	"RejoinCounts":      "coordinator: coordinator_test counts effective re-admissions",
	"ObjectExists":      "core: core_test checks create/delete took effect",
	"ObjectVersion":     "core: core_test and transaction_test check one version bump per commit",
	"GetMapEntry":       "core: hostboundary_test reads committed map state past the guest",
	"ListGet":           "core: hostboundary_test reads committed list state past the guest",
	"NewLocalTransport": "paxos: in-process transport of paxos_test and coordinator_test",
	"Disconnect":        "paxos: paxos_test partitions a replica",
	"Reconnect":         "paxos: paxos_test heals the partition",
	"CatchUp":           "paxos: paxos_test drives catch-up without waiting for the ticker",
	"NumChosen":         "paxos: paxos_test waits for a replica's applied prefix",
	"Dial":              "rpc: rpc_test talks to a server without a pool",
	"Len":               "cache_test, sched_test (lock-table leak check) and store's groupcommit_test count entries",
	"LastSequence":      "store: store_test checks sequence numbers survive reopen",
	"TableCount":        "store and retwis tests assert the table layout they set up",
	"AsHostError":       "vm: vm_test and core_test tell a host failure from a guest trap",
	"MemSize":           "vm: compile_test and diff_test compare the tiers' memory growth",
	"EffectiveTier":     "vm: compile_test observes which tier a module compiled to",
	"SetTier":           "vm: diff_test runs both tiers over the same programs",
	"MustAssemble":      "vm and core tests assemble fixture modules",
}

// source is one parsed non-test file.
type source struct {
	dir  string // slash-separated, relative to the repo root
	file *ast.File
}

func parseTree(t *testing.T, fset *token.FileSet, roots ...string) []source {
	t.Helper()
	var out []source
	for _, root := range roots {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			out = append(out, source{dir: filepath.ToSlash(filepath.Dir(p)), file: f})
			return nil
		})
		if err != nil {
			t.Fatalf("parse %s: %v", root, err)
		}
	}
	return out
}

func isProduct(dir string) bool {
	return strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")
}

func TestNothingUnreached(t *testing.T) {
	fset := token.NewFileSet()
	srcs := parseTree(t, fset, "internal", "cmd", "examples", "benchmark")

	t.Run("funcs", func(t *testing.T) {
		declared := map[string]token.Pos{}
		used := map[string]bool{}
		for _, s := range srcs {
			for _, d := range s.file.Decls {
				self := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = fd.Name.Name
					if isProduct(s.dir) && self != "main" && self != "init" {
						declared[self] = fd.Pos()
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					// A function naming itself (its declaration, recursion)
					// does not reach itself.
					if id, ok := n.(*ast.Ident); ok && id.Name != self {
						used[id.Name] = true
					}
					return true
				})
			}
		}
		var dead []string
		for name, pos := range declared {
			if _, ok := testOnly[name]; !ok && !used[name] {
				dead = append(dead, fset.Position(pos).String()+": "+name)
			}
		}
		sort.Strings(dead)
		for _, d := range dead {
			t.Errorf("%s has no non-test caller: delete it, or list it in testOnly with the test that needs it", d)
		}
		for name := range testOnly {
			if _, ok := declared[name]; !ok || used[name] {
				t.Errorf("testOnly entry %q is stale (not declared, or product code reaches it now)", name)
			}
		}
	})

	// An RPC method is live when somebody sends it. Constants are keyed by
	// package: several packages declare a MethodMigrate or a MethodFetch.
	t.Run("rpc methods", func(t *testing.T) {
		type key struct{ dir, name string }
		declared := map[key]token.Pos{}
		sent := map[key]bool{}
		for _, s := range srcs {
			imports := map[string]string{} // local package name -> dir
			for _, im := range s.file.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				dir, ok := strings.CutPrefix(p, "lambdastore/")
				if !ok {
					continue
				}
				name := path.Base(dir)
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = dir
			}
			// skip holds the nodes that declare or register a method rather
			// than send it.
			skip := map[ast.Node]bool{}
			ast.Inspect(s.file, func(n ast.Node) bool {
				if skip[n] {
					return false
				}
				switch n := n.(type) {
				case *ast.ValueSpec:
					for i, id := range n.Names {
						if !strings.HasPrefix(id.Name, "Method") || i >= len(n.Values) {
							continue
						}
						if lit, ok := n.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING && isProduct(s.dir) {
							declared[key{s.dir, id.Name}] = id.Pos()
						}
						skip[id] = true
					}
				case *ast.CallExpr:
					// srv.Handle(M, h), srv.HandleCtx(M, h), and local
					// wrappers of them, recognised by the handler literal.
					registers := false
					if fn, ok := n.Fun.(*ast.SelectorExpr); ok {
						registers = fn.Sel.Name == "Handle" || fn.Sel.Name == "HandleCtx"
					}
					for _, a := range n.Args {
						if _, ok := a.(*ast.FuncLit); ok {
							registers = true
						}
					}
					if registers && len(n.Args) > 0 {
						skip[n.Args[0]] = true
					}
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && strings.HasPrefix(n.Sel.Name, "Method") {
						if dir, ok := imports[x.Name]; ok {
							sent[key{dir, n.Sel.Name}] = true
						}
						return false
					}
				case *ast.Ident:
					if strings.HasPrefix(n.Name, "Method") {
						sent[key{s.dir, n.Name}] = true
					}
				}
				return true
			})
		}
		if len(declared) == 0 {
			t.Fatal("found no RPC method constants: the guard is not looking at the source")
		}
		for k, pos := range declared {
			if !sent[k] {
				t.Errorf("%s: RPC method %s is registered but never sent", fset.Position(pos), k.name)
			}
		}
	})
}

// TestOneRequestPath is the "one request path" guard: the steps every
// client-facing request must take are each called from one place, so a new
// handler that skips one has nowhere else to call it from. It is by-name:
// callers lists, for a call spelled "….<callee>(", the functions of the
// package allowed to contain it; each must, and no other may.
func TestOneRequestPath(t *testing.T) {
	fset := token.NewFileSet()
	for _, want := range []struct {
		dir, callee string // callee is the trailing selector path, e.g. "db.Write"
		callers     []string
	}{
		{"internal/cluster", "routeCheck", []string{"serve"}},
		{"internal/cluster", "Admit", []string{"serve"}},
		{"internal/core", "notifyCommit", []string{"commit"}},
		{"internal/core", "db.Write", []string{"commit", "ApplyReplicated", "ApplyReplicatedBulk"}},
	} {
		got := map[string]bool{}
		for _, s := range parseTree(t, fset, want.dir) {
			for _, d := range s.file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				ast.Inspect(fd, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok && strings.HasSuffix("."+selectorPath(call.Fun), "."+want.callee) {
						got[fd.Name.Name] = true
					}
					return true
				})
			}
		}
		var names []string
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		sort.Strings(want.callers)
		if strings.Join(names, ",") != strings.Join(want.callers, ",") {
			t.Errorf("%s: %s( is called from %v, want exactly %v", want.dir, want.callee, names, want.callers)
		}
	}
}

// selectorPath renders a.b.c for an identifier or selector chain ("" for
// anything else).
func selectorPath(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if x := selectorPath(e.X); x != "" {
			return x + "." + e.Sel.Name
		}
	}
	return ""
}
