package lambdastore_test

// TestNothingUnreached is the "one generation" guard: product code that no
// product code reaches is a superseded generation somebody forgot to
// delete. It is by-name and therefore conservative — a name counts as
// reached when any non-test file mentions it outside its own declaration.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
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

	"InvokeTraced":      "cluster: observability_test fetches one request's spans by trace ID",
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
	"TableCount":        "store and retwis tests assert the table layout they set up",
	"AsHostError":       "vm: vm_test and core_test tell a host failure from a guest trap",
	"MemSize":           "vm: compile_test and diff_test compare the engines' memory growth",
	"MustAssemble":      "vm and core tests assemble fixture modules",
	"Of":                "wiretest: every Fuzz* target describes its package's frames with it",
	"Fuzz":              "wiretest: every Fuzz* target runs it",
}

// source is one parsed file.
type source struct {
	dir  string // slash-separated, relative to the repo root
	path string
	file *ast.File
}

// parseTree parses the non-test files under roots.
func parseTree(t *testing.T, fset *token.FileSet, roots ...string) []source {
	t.Helper()
	var out []source
	for _, s := range parseAll(t, fset, roots...) {
		if !strings.HasSuffix(s.path, "_test.go") {
			out = append(out, s)
		}
	}
	return out
}

// parseAll parses every Go file under roots, tests included.
func parseAll(t *testing.T, fset *token.FileSet, roots ...string) []source {
	t.Helper()
	var out []source
	for _, root := range roots {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			out = append(out, source{dir: filepath.ToSlash(filepath.Dir(p)), path: filepath.ToSlash(p), file: f})
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

// importDirs maps the local name of each lambdastore package a file imports
// to its directory.
func importDirs(f *ast.File) map[string]string {
	imports := map[string]string{}
	for _, im := range f.Imports {
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
	return imports
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
			imports := importDirs(s.file)
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
		{"internal/cluster", "route", []string{"serve", "createGuard"}},
		// The role machine's one writer applies every view.
		{"internal/cluster", "SetEpoch", []string{"install"}},
		{"internal/cluster", "SetBackups", []string{"install"}},
		{"internal/cluster", "leases.Revoke", []string{"install"}},
		// The write group is the one unit that leaves a node: its hook is the
		// only sender of a frame to the backups and of a relay to a session.
		{"internal/cluster", "shipper.ShipGroup", []string{"replicateGroup"}},
		{"internal/cluster", "transfer.Relay", []string{"replicateGroup"}},
		// The binding table's one writer path is the one storage writer.
		{"internal/core", "db.Write", []string{"write"}},
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

// TestOneBindingWriter is the binding table's guard: core keeps an object's
// type binding in step with its header only because every object key it
// writes reaches the store through Runtime.write, which rebinds the headers
// a write-set puts or deletes. So a store write — Write, Put or Delete on
// anything spelled db, or on a DB() — appears in write alone, except type
// registration's Put of a type record, which is no object key.
func TestOneBindingWriter(t *testing.T) {
	fset := token.NewFileSet()
	seen := map[string]bool{}
	for _, s := range parseTree(t, fset, "internal/core") {
		for _, d := range s.file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Write" && sel.Sel.Name != "Put" && sel.Sel.Name != "Delete") {
					return true
				}
				recv := types.ExprString(sel.X)
				if !strings.HasSuffix(recv, "db") && !strings.HasSuffix(recv, "DB()") {
					return true
				}
				site := fd.Name.Name + ": " + recv + "." + sel.Sel.Name
				switch {
				case fd.Name.Name == "write" && sel.Sel.Name == "Write":
				case fd.Name.Name == "RegisterType" && sel.Sel.Name == "Put" && len(call.Args) == 2 && types.ExprString(call.Args[0]) == "typeKey(t.Name)":
				default:
					t.Errorf("%s: %s writes to the store around the binding table's writer path", fset.Position(call.Pos()), site)
				}
				seen[site] = true
				return true
			})
		}
	}
	for _, want := range []string{"write: rt.db.Write", "RegisterType: rt.db.Put"} {
		if !seen[want] {
			t.Errorf("found no %s: the guard no longer sees the store writes it allows", want)
		}
	}
}

// TestOneGrantPath is the lease's guard: a backup's lease is valid on its
// epoch and its sender-stamped expiry alone only because the renewal loop is
// the one way a lease is granted or kept. So LeaseHolder.Renew is called only
// from registerLease's repl.lease handler, and a grant is encoded only by
// Shipper.renew: no frame of the replication stream carries one.
func TestOneGrantPath(t *testing.T) {
	fset := token.NewFileSet()
	allowed := map[string]string{"Renew": "registerLease", "encodeLease": "renew"}
	seen := map[string]bool{}
	for _, s := range parseTree(t, fset, "internal", "cmd") {
		for _, d := range s.file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var name string
				switch fn := call.Fun.(type) {
				case *ast.Ident:
					name = fn.Name
				case *ast.SelectorExpr:
					name = fn.Sel.Name
				}
				in, ok := allowed[name]
				if !ok {
					return true
				}
				if fd.Name.Name != in {
					t.Errorf("%s: %s calls %s, which only %s may: a lease is granted by the renewal loop alone", fset.Position(call.Pos()), fd.Name.Name, name, in)
				}
				seen[name] = true
				return true
			})
		}
	}
	for name, in := range allowed {
		if !seen[name] {
			t.Errorf("found no call of %s in %s: the guard no longer sees the grant path", name, in)
		}
	}
}

// TestOneDeployment is the "one way to stand a deployment up" guard: each
// assembly is written once, in the package that owns its parts, so the parts'
// constructors are called from there, from the daemon that runs one part per
// process, and (until the thaw) from the frozen benchmark's own boot. Tests
// may start a bare node when that is their subject, but not re-encode the
// static boot protocol around it.
func TestOneDeployment(t *testing.T) {
	fset := token.NewFileSet()
	// part constructor (as spelled outside its package) -> where product
	// code may call it: a file, or a directory with its trailing slash.
	allowed := map[string][]string{
		"cluster.StartNode":     {"internal/cluster/local.go", "cmd/lambdastore/", "benchmark/"},
		"coordinator.New":       {"internal/coordinator/"},
		"baseline.StartStorage": {"internal/baseline/", "cmd/lambdacompute/"},
		"baseline.StartCompute": {"internal/baseline/", "cmd/lambdacompute/"},
		"baseline.StartLB":      {"internal/baseline/", "cmd/lambdacompute/"},
	}
	seen := 0
	for _, s := range parseAll(t, fset, "internal", "cmd", "examples", "benchmark") {
		isTest := strings.HasSuffix(s.path, "_test.go")
		for _, d := range s.file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			var startsNode, spellsGroup token.Pos
			ast.Inspect(fd, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					// Inside its own package a constructor is called bare.
					callee := selectorPath(n.Fun)
					if !strings.Contains(callee, ".") {
						callee = path.Base(s.dir) + "." + callee
					}
					where, guarded := allowed[callee]
					if !guarded {
						return true
					}
					seen++
					if callee == "cluster.StartNode" {
						startsNode = n.Pos()
					}
					ok := isTest
					for _, w := range where {
						ok = ok || s.path == w || strings.HasPrefix(s.path, w)
					}
					if !ok {
						t.Errorf("%s: %s( outside %v: boot through cluster.StartLocal, coordinator.Serve/StartEnsemble or baseline.StartLocal", fset.Position(n.Pos()), callee, where)
					}
				case *ast.CompositeLit:
					if typ := selectorPath(n.Type); typ == "shard.Group" || (typ == "Group" && s.dir == "internal/shard") {
						for _, e := range n.Elts {
							if kv, ok := e.(*ast.KeyValueExpr); ok && selectorPath(kv.Key) == "Primary" {
								spellsGroup = n.Pos()
							}
						}
					}
				}
				return true
			})
			if isTest && startsNode.IsValid() && spellsGroup.IsValid() {
				t.Errorf("%s: %s starts a node and spells out its group (%s): that is the static boot protocol by hand — call StartLocal",
					fset.Position(startsNode), fd.Name.Name, fset.Position(spellsGroup))
			}
		}
	}
	if seen < 8 {
		t.Fatalf("saw %d part-constructor calls: the guard is not looking at the source", seen)
	}
}

// TestOneDecoder is the "one decoding cursor" guard. wire exports no
// function that threads (value, rest, err), so the only door left for a
// second private reader is the standard library's varint decoders: no
// product file outside internal/wire may call them.
func TestOneDecoder(t *testing.T) {
	fset := token.NewFileSet()
	for _, s := range parseTree(t, fset, "internal", "cmd", "examples", "benchmark") {
		if s.dir == "internal/wire" {
			continue
		}
		ast.Inspect(s.file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if fn := selectorPath(call.Fun); fn == "binary.Uvarint" || fn == "binary.Varint" {
					t.Errorf("%s: %s outside internal/wire: decode through wire.Reader", fset.Position(call.Pos()), fn)
				}
			}
			return true
		})
	}
}

// TestTwoFaultSeams is the "faults live on the network and the disk" guard:
// the fault plane's decision (fault.Eval, behind its fault.Enabled gate) is
// made in internal/rpc and internal/store and nowhere else, and besides them
// only the plane's two drivers, the chaos harness and the debug endpoint,
// import it. A component cannot grow a private injection site.
func TestTwoFaultSeams(t *testing.T) {
	fset := token.NewFileSet()
	seams := map[string]bool{"internal/rpc": false, "internal/store": false}
	drivers := map[string]bool{"internal/chaos": true, "internal/debug": true}
	for _, s := range parseTree(t, fset, "internal", "cmd", "examples") {
		if _, ok := importDirs(s.file)["fault"]; ok && !drivers[s.dir] {
			if _, seam := seams[s.dir]; !seam {
				t.Errorf("%s imports internal/fault: decide faults at the rpc send or the WAL sync", s.path)
			}
		}
		ast.Inspect(s.file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := selectorPath(call.Fun); fn == "fault.Eval" || fn == "fault.Enabled" {
				if _, seam := seams[s.dir]; !seam {
					t.Errorf("%s: %s( outside the network and disk seams", fset.Position(call.Pos()), fn)
				}
				seams[s.dir] = true
			}
			return true
		})
	}
	for dir, seen := range seams {
		if !seen {
			t.Errorf("%s decides no fault: the guard is not looking at the source", dir)
		}
	}
}

// instrumentMethods maps the registry method a name is declared with to the
// catalogue's "kind" and "unit" columns.
var instrumentMethods = map[string][2]string{
	"Counter":        {"counter", "—"},
	"Gauge":          {"gauge", "—"},
	"GaugeFunc":      {"sampled", "—"},
	"Histogram":      {"histogram", "us"},
	"CountHistogram": {"histogram", "count"},
}

// instrumentName is the name a registry call declares: a string literal, or
// the literal prefix of a name built at run time ("core.invoke." + method,
// fmt.Sprintf("coord.rejoins.%d", g)), which the catalogue spells
// `core.invoke.<method>`. ok is false for anything else.
func instrumentName(arg ast.Expr) (name string, ok bool) {
	switch a := arg.(type) {
	case *ast.BasicLit:
		if a.Kind == token.STRING {
			name, _ = strconv.Unquote(a.Value)
			return name, true
		}
	case *ast.BinaryExpr:
		for a.Op == token.ADD {
			left, isBin := a.X.(*ast.BinaryExpr)
			if !isBin {
				if prefix, ok := instrumentName(a.X); ok {
					return prefix + "<", true
				}
				break
			}
			a = left
		}
	case *ast.CallExpr:
		if selectorPath(a.Fun) == "fmt.Sprintf" && len(a.Args) > 0 {
			if format, ok := instrumentName(a.Args[0]); ok {
				prefix, _, _ := strings.Cut(format, "%")
				return prefix + "<", true
			}
		}
	}
	return "", false
}

// TestOneMetricsSurface is the "one metrics surface" guard: a number reaches
// an operator by being declared once, by its owner, on the registry it was
// constructed with — and DESIGN §7's catalogue says so for every name.
func TestOneMetricsSurface(t *testing.T) {
	fset := token.NewFileSet()
	srcs := parseTree(t, fset, "internal", "cmd")

	// (a) Telemetry is constructor wiring. rpc keeps its two setters only
	// because the frozen benchmark constructs rpc.NewServer()/NewPool(opts)
	// bare.
	// (b) Instruments are never nil, so nothing tests for one before
	// recording: the uninstrumented twin of a hot path is a fork only unit
	// tests would take.
	records := map[string]bool{"Inc": true, "Dec": true, "Add": true, "Set": true, "Record": true, "RecordTraced": true, "Observe": true}
	onlyRecords := func(guarded string, body *ast.BlockStmt) bool {
		for _, st := range body.List {
			es, ok := st.(*ast.ExprStmt)
			if !ok {
				return false
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				return false
			}
			// m.requests.Inc() under "if m != nil": the recorded-on
			// instrument hangs off the value the guard tested.
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !records[sel.Sel.Name] || !strings.HasPrefix(selectorPath(sel.X)+".", guarded+".") {
				return false
			}
		}
		return guarded != "" && len(body.List) > 0
	}
	type decl struct{ file, method string }
	declared := map[string][]decl{} // instrument name -> where and how it is declared
	for _, s := range srcs {
		ast.Inspect(s.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil && (n.Name.Name == "SetTelemetry" || n.Name.Name == "setMetrics") && s.dir != "internal/rpc" {
					t.Errorf("%s: %s outside internal/rpc: take the registry in the constructor", fset.Position(n.Pos()), n.Name.Name)
				}
			case *ast.IfStmt:
				if cond, ok := n.Cond.(*ast.BinaryExpr); ok && cond.Op == token.NEQ && selectorPath(cond.Y) == "nil" && n.Else == nil && onlyRecords(selectorPath(cond.X), n.Body) {
					t.Errorf("%s: nil guard in front of an instrument: a nil registry hands out working instruments, record unconditionally", fset.Position(n.Pos()))
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || len(n.Args) == 0 || s.dir == "internal/telemetry" {
					return true
				}
				if _, ok := instrumentMethods[sel.Sel.Name]; !ok {
					return true
				}
				// Only calls on a registry: the receiver is spelled reg,
				// Metrics, Registry(), … everywhere.
				if recv := strings.ToLower(selectorPath(sel.X)); !strings.Contains(recv, "reg") && !strings.Contains(recv, "metrics") {
					return true
				}
				name, ok := instrumentName(n.Args[0])
				if !ok {
					t.Errorf("%s: instrument name is not a literal (or literal prefix): the catalogue cannot list it", fset.Position(n.Pos()))
					return true
				}
				declared[name] = append(declared[name], decl{s.path, sel.Sel.Name})
			}
			return true
		})
	}
	if len(declared) < 50 {
		t.Fatalf("found %d instrument declarations: the guard is not looking at the source", len(declared))
	}

	// (c) DESIGN §7's catalogue and the source agree, row for row: name,
	// kind, unit and owner file.
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, _ := strings.Cut(string(design), "\n## 7. ")
	sec, _, _ = strings.Cut(sec, "\n## ")
	catalogued := map[string]bool{}
	for _, line := range strings.Split(sec, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 6 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		for i := range cells {
			cells[i] = strings.Trim(strings.TrimSpace(cells[i]), "`")
		}
		name, kind, unit, owner := cells[1], cells[2], cells[3], cells[4]
		if prefix, _, dynamic := strings.Cut(name, "<"); dynamic {
			name = prefix + "<"
		}
		catalogued[name] = true
		found := false
		for _, d := range declared[name] {
			if d.file == owner {
				found = true
				if want := instrumentMethods[d.method]; kind != want[0] || unit != want[1] {
					t.Errorf("DESIGN §7 lists %s as %s/%s, %s declares it with %s (%s/%s)", cells[1], kind, unit, owner, d.method, want[0], want[1])
				}
			}
		}
		if !found {
			t.Errorf("DESIGN §7 lists %s owned by %s, which does not declare it (declared in %v)", cells[1], owner, declared[name])
		}
	}
	var missing []string
	for name, ds := range declared {
		if !catalogued[name] {
			missing = append(missing, name+" ("+ds[0].file+")")
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("instrument %s is not in DESIGN §7's catalogue", m)
	}

	// (d) The names the frozen benchmark reads by string are declared, so a
	// rename fails here and not in the driver at run time.
	counts, err := parser.ParseFile(fset, "benchmark/counts.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	read := 0
	ast.Inspect(counts, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		if name, _ := strconv.Unquote(lit.Value); strings.Contains(name, ".") {
			read++
			if len(declared[name]) == 0 {
				t.Errorf("benchmark/counts.go reads %q, which nothing declares any more", name)
			}
		}
		return true
	})
	if read != 13 {
		t.Errorf("benchmark/counts.go names %d instruments, want the 12 regCounters and repl.batch_size", read)
	}

	// (e) Every instrument a `lambdactl top` column reads is declared, with
	// the kind its reduction expects: a column over a deleted instrument
	// would read 0 forever.
	reads := map[string][]string{ // reduction -> registry methods it accepts
		"perSec":     {"Counter"},
		"hitPct":     {"Counter"},
		"level":      {"Gauge", "GaugeFunc"},
		"histPerSec": {"Histogram", "CountHistogram"},
		"quantileUs": {"Histogram"},
	}
	agg, err := parser.ParseFile(fset, "internal/coordinator/aggregate.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	cols := 0
	ast.Inspect(agg, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "columns" || len(vs.Values) != 1 {
			return true
		}
		table, ok := vs.Values[0].(*ast.CompositeLit)
		if !ok {
			return false
		}
		for _, e := range table.Elts {
			row, ok := e.(*ast.CompositeLit)
			if !ok || len(row.Elts) == 0 {
				continue
			}
			cols++
			call, _ := row.Elts[len(row.Elts)-1].(*ast.CallExpr)
			var reduction string
			if call != nil {
				reduction = selectorPath(call.Fun)
			}
			methods, known := reads[reduction]
			if !known {
				t.Errorf("%s: column reduces with %q, which part (e) does not know", fset.Position(row.Pos()), reduction)
				continue
			}
			for _, arg := range call.Args {
				lit, ok := arg.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				name, _ := strconv.Unquote(lit.Value)
				if len(declared[name]) == 0 {
					t.Errorf("%s: column reads %q, which nothing declares any more", fset.Position(lit.Pos()), name)
					continue
				}
				matched := false
				for _, d := range declared[name] {
					matched = matched || slices.Contains(methods, d.method)
				}
				if !matched {
					t.Errorf("%s: column's %s reads %q, declared with %s, want one of %v", fset.Position(lit.Pos()), reduction, name, declared[name][0].method, methods)
				}
			}
		}
		return false
	})
	if cols < 5 {
		t.Errorf("found %d columns in internal/coordinator/aggregate.go: the guard is not looking at the table", cols)
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

// TestEveryOptionIsSet is the "no dead knobs" guard: an exported field of a
// product struct named *Options or *Config must be set — as a composite-
// literal key or by assignment, tests included — by some file other than the
// one declaring it, or the paths it selects are paths nobody takes (the funcs
// check above cannot see those: their code is reached through the field). A
// keyed literal is matched to its struct by package and type name, an
// assignment `x.Field = ...` or an untyped literal by field name alone, so
// the guard is conservative.
func TestEveryOptionIsSet(t *testing.T) {
	fset := token.NewFileSet()
	type field struct{ dir, typ, name string }
	declared := map[field]source{}
	all := parseAll(t, fset, "internal", "cmd", "examples", "benchmark")
	for _, s := range all {
		if !isProduct(s.dir) || strings.HasSuffix(s.path, "_test.go") {
			continue
		}
		ast.Inspect(s.file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !(strings.HasSuffix(ts.Name.Name, "Options") || strings.HasSuffix(ts.Name.Name, "Config")) {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, f := range st.Fields.List {
					for _, id := range f.Names {
						if id.IsExported() {
							declared[field{s.dir, ts.Name.Name, id.Name}] = s
						}
					}
				}
			}
			return true
		})
	}
	if len(declared) == 0 {
		t.Fatal("found no option structs: the guard is not looking at the source")
	}

	set := map[field]bool{}
	byName := map[string]map[string]bool{} // field name -> files that set some x.<name>
	noteByName := func(name, file string) {
		if byName[name] == nil {
			byName[name] = map[string]bool{}
		}
		byName[name][file] = true
	}
	for _, s := range all {
		imports := importDirs(s.file)
		ast.Inspect(s.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				dir, typ := "", ""
				switch tx := n.Type.(type) {
				case *ast.Ident:
					dir, typ = s.dir, tx.Name
				case *ast.SelectorExpr:
					if x, ok := tx.X.(*ast.Ident); ok {
						dir, typ = imports[x.Name], tx.Sel.Name
					}
				}
				for _, e := range n.Elts {
					kv, ok := e.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if id, ok := kv.Key.(*ast.Ident); ok {
						if f := (field{dir, typ, id.Name}); n.Type == nil {
							noteByName(id.Name, s.path)
						} else if decl, ok := declared[f]; ok && decl.path != s.path {
							set[f] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						noteByName(sel.Sel.Name, s.path)
					}
				}
			}
			return true
		})
	}

	var dead []string
	for f, decl := range declared {
		files := byName[f.name]
		if set[f] || len(files) > 1 || (len(files) == 1 && !files[decl.path]) {
			continue
		}
		dead = append(dead, decl.path+": "+path.Base(f.dir)+"."+f.typ+"."+f.name)
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is set by no file but its own: a value only its own defaults ever write is a constant — delete the field", d)
	}
}
