package lambdastore_test

// TestNothingUnreached is the "one generation" guard: product code that no
// product code reaches is a superseded generation somebody forgot to
// delete. Functions and methods are matched by their type-checked objects,
// so a dead method cannot hide behind a live function of the same name; it
// is still conservative — a method counts as reached when it implements a
// method of any interface in sight, and RPC methods are matched by name.

import (
	"cmp"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnly lists functions and methods no product code calls, keyed
// package.Func or package.Type.Method, each with the test for which it is
// the only observation point (or the contract that calls it without naming
// it).
var testOnly = map[string]string{
	"vm.HostError.Unwrap": "errors.Is/As call it through the error chain, never by name",

	"chaos.Run":                       "the chaos suite's tests drive every schedule through it (make chaos)",
	"cluster.Client.InvokeTraced":     "observability_test fetches one request's spans by trace ID",
	"cluster.Local.Nodes":             "cluster tests reach the nodes of a local deployment",
	"core.Runtime.ObjectExists":       "core_test checks create/delete took effect",
	"core.Runtime.ObjectVersion":      "core_test and transaction_test check one version bump per commit",
	"core.Runtime.GetMapEntry":        "hostboundary_test reads committed map state past the guest",
	"core.Runtime.ListGet":            "hostboundary_test reads committed list state past the guest",
	"paxos.NewLocalTransport":         "in-process transport of paxos_test and coordinator_test",
	"paxos.LocalTransport.Register":   "paxos_test and coordinator_test attach their replicas to it",
	"paxos.LocalTransport.Disconnect": "paxos_test partitions a replica",
	"paxos.LocalTransport.Reconnect":  "paxos_test heals the partition",
	"rpc.Dial":                        "rpc_test talks to a server without a pool",
	"rpc.Client.Call":                 "rpc_test calls through the client it dialed",
	"store.DB.Delete":                 "store, replication, core and recovery tests delete one key outside a batch",
	"store.DB.TableCount":             "store and retwis tests assert the table layout they set up",
	"store.Snapshot.Get":              "store tests read a pinned snapshot by key",
	"telemetry.Tracer.Enabled":        "trace_test pins what a nil and a disabled tracer report",
	"vm.AsHostError":                  "vm_test and core_test tell a host failure from a guest trap",
	"vm.HostTable.Lookup":             "core's export_test resolves host functions by name",
	"vm.Instance.MemSize":             "compile_test and diff_test compare the engines' memory growth",
	"vm.Instance.Reset":               "the full re-image the isolation tests compare ResetFast against",
	"vm.MustAssemble":                 "vm and core tests assemble fixture modules",
	"wiretest.Of":                     "every Fuzz* target describes its package's frames with it",
	"wiretest.Fuzz":                   "every Fuzz* target runs it",
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

// checked is one non-test package type-checked from source.
type checked struct {
	dir   string // slash-separated, relative to the repo root
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// typeCheck type-checks every non-test package of the module and of the
// benchmark module (a module of its own) from source, importing their
// dependencies from the export data `go list -export` leaves in the build
// cache. A package checked from source and the same package imported from
// export data are distinct *types.Package values, so objects are matched
// across packages by their full names.
func typeCheck(t *testing.T, fset *token.FileSet) []checked {
	t.Helper()
	exports := map[string]string{}
	type listed struct{ path, dir, src, files string }
	var ours []listed
	for _, module := range []string{".", "benchmark"} {
		cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "list", "-export", "-deps",
			"-f", "{{.ImportPath}}\t{{.Export}}\t{{.Standard}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...")
		cmd.Dir = module
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v", module, err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			f := strings.Split(line, "\t")
			if _, dup := exports[f[0]]; dup {
				continue
			}
			exports[f[0]] = f[1]
			// Both modules' import paths are their directories under
			// "lambdastore".
			if dir, ok := strings.CutPrefix(f[0]+"/", "lambdastore/"); ok && f[2] == "false" {
				ours = append(ours, listed{f[0], cmp.Or(strings.TrimSuffix(dir, "/"), "."), f[3], f[4]})
			}
		}
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	var out []checked
	for _, l := range ours {
		c := checked{dir: l.dir, info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, name := range strings.Fields(l.files) {
			f, err := parser.ParseFile(fset, filepath.Join(l.src, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			c.files = append(c.files, f)
		}
		conf := types.Config{Importer: imp}
		var err error
		if c.pkg, err = conf.Check(l.path, fset, c.files, c.info); err != nil {
			t.Fatalf("type-check %s: %v", l.path, err)
		}
		out = append(out, c)
	}
	if len(out) < 20 {
		t.Fatalf("type-checked %d packages: the guard is not looking at the source", len(out))
	}
	return out
}

// funcKey is how testOnly and the guard's messages name a function:
// package.Func, or package.Type.Method.
func funcKey(fn *types.Func) string {
	key := path.Base(fn.Pkg().Path()) + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if n, ok := rt.(*types.Named); ok {
			key += n.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

// fieldKey names a field by where it is declared: a package's own objects
// and those its importers see through export data are distinct.
func fieldKey(fset *token.FileSet, v *types.Var) string {
	v = v.Origin()
	p := fset.Position(v.Pos())
	return v.Pkg().Path() + "/" + filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line) + ":" + v.Name()
}

func TestNothingUnreached(t *testing.T) {
	fset := token.NewFileSet()
	srcs := parseTree(t, fset, "internal", "cmd", "examples", "benchmark")

	t.Run("funcs", func(t *testing.T) {
		pkgs := typeCheck(t, fset)
		// A method is called without being named when it implements an
		// interface method: every interface in sight — error, those of the
		// packages imported, and every interface type the code spells —
		// lends its methods' names and signatures.
		ifaces := map[string][]types.Type{}
		addIface := func(it *types.Interface) {
			for i := range it.NumMethods() {
				m := it.Method(i)
				ifaces[m.Name()] = append(ifaces[m.Name()], m.Type())
			}
		}
		addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
		walked := map[*types.Package]bool{}
		var walk func(p *types.Package)
		walk = func(p *types.Package) {
			if walked[p] {
				return
			}
			walked[p] = true
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						addIface(it)
					}
				}
			}
			for _, q := range p.Imports() {
				walk(q)
			}
		}
		for _, c := range pkgs {
			walk(c.pkg)
			for _, tv := range c.info.Types {
				if tv.Type == nil {
					continue
				}
				if it, ok := tv.Type.Underlying().(*types.Interface); ok {
					addIface(it)
				}
			}
		}
		implements := func(fn *types.Func) bool {
			if fn.Type().(*types.Signature).Recv() == nil {
				return false
			}
			for _, sig := range ifaces[fn.Name()] {
				if types.Identical(sig, fn.Type()) {
					return true
				}
			}
			return false
		}

		type decl struct {
			key string
			pos token.Pos
		}
		declared := map[string]decl{} // full name -> key, position
		used := map[string]bool{}     // full names
		for _, c := range pkgs {
			for _, f := range c.files {
				for _, d := range f.Decls {
					self := ""
					if fd, ok := d.(*ast.FuncDecl); ok {
						fn := c.info.Defs[fd.Name].(*types.Func)
						self = fn.FullName()
						if isProduct(c.dir) && fd.Name.Name != "main" && fd.Name.Name != "init" && !implements(fn) {
							declared[self] = decl{funcKey(fn), fd.Pos()}
						}
					}
					ast.Inspect(d, func(n ast.Node) bool {
						// A function naming itself (recursion) does not
						// reach itself.
						if id, ok := n.(*ast.Ident); ok {
							if fn, ok := c.info.Uses[id].(*types.Func); ok && fn.Origin().FullName() != self {
								used[fn.Origin().FullName()] = true
							}
						}
						return true
					})
				}
			}
		}
		keys := map[string]bool{}
		var dead []string
		for name, d := range declared {
			keys[d.key] = !used[name]
			if _, ok := testOnly[d.key]; !ok && !used[name] {
				dead = append(dead, fset.Position(d.pos).String()+": "+d.key)
			}
		}
		sort.Strings(dead)
		for _, d := range dead {
			t.Errorf("%s has no non-test caller: delete it, or list it in testOnly with the test that needs it", d)
		}
		for key := range testOnly {
			if unreached, ok := keys[key]; !ok || !unreached {
				t.Errorf("testOnly entry %q is stale (not declared, or product code reaches it now)", key)
			}
		}
	})

	// A field is live when product code names it: a selector, a keyed
	// composite literal, or a promoted selection that runs through an
	// embedded field. A field nothing names is state nobody reads or
	// writes. Fields are matched across packages by fieldKey.
	t.Run("fields", func(t *testing.T) {
		pkgs := typeCheck(t, fset)
		declared := map[string]token.Pos{}
		used := map[string]bool{}
		for _, c := range pkgs {
			for id, obj := range c.info.Defs {
				if v, ok := obj.(*types.Var); ok && v.IsField() && v.Name() != "_" && isProduct(c.dir) {
					declared[fieldKey(fset, v)] = id.Pos()
				}
			}
			for _, obj := range c.info.Uses {
				if v, ok := obj.(*types.Var); ok && v.IsField() {
					used[fieldKey(fset, v)] = true
				}
			}
			for _, sel := range c.info.Selections {
				typ, path := sel.Recv(), sel.Index()
				for _, i := range path[:len(path)-1] {
					if p, ok := typ.Underlying().(*types.Pointer); ok {
						typ = p.Elem()
					}
					st, ok := typ.Underlying().(*types.Struct)
					if !ok {
						break
					}
					used[fieldKey(fset, st.Field(i))] = true
					typ = st.Field(i).Type()
				}
			}
		}
		if len(declared) < 200 {
			t.Fatalf("found %d struct fields: the guard is not looking at the source", len(declared))
		}
		var dead []string
		for k, pos := range declared {
			if !used[k] {
				dead = append(dead, fset.Position(pos).String()+": "+k[strings.LastIndex(k, ":")+1:])
			}
		}
		sort.Strings(dead)
		for _, d := range dead {
			t.Errorf("field %s is named by no product code: delete it", d)
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
		{"internal/cluster", "route", []string{"serve"}},
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
		// A result leaves the guest by one copy, set_result's into the
		// guest's pooled buffer: nothing copies guest memory into a fresh
		// heap object.
		{"internal/core", "MemRead", nil},
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
				case fd.Name.Name == "RegisterType" && sel.Sel.Name == "Put" && len(call.Args) == 2 && types.ExprString(call.Args[0]) == "TypeRecordKey(t.Name)":
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

// TestOneCutoverPath is placement's guard: a live move commits only at the
// coordinator, so no installed view is ever edited in place. An object's
// override is written only by the coordinator's state machine, and by
// shard's own code.
func TestOneCutoverPath(t *testing.T) {
	fset := token.NewFileSet()
	allowed := map[string]bool{"internal/coordinator": true, "internal/shard": true}
	seen := map[string]bool{}
	for _, c := range typeCheck(t, fset) {
		for sel, s := range c.info.Selections {
			fn, ok := s.Obj().(*types.Func)
			if !ok || fn.Pkg() == nil {
				continue
			}
			key := funcKey(fn)
			if key != "shard.Directory.SetOverride" && key != "shard.Directory.ClearOverride" {
				continue
			}
			if !allowed[c.dir] {
				t.Errorf("%s: %s calls %s: a cutover commits only at the coordinator", fset.Position(sel.Pos()), c.dir, key)
			}
			seen[key] = true
		}
	}
	for _, key := range []string{"shard.Directory.SetOverride", "shard.Directory.ClearOverride"} {
		if !seen[key] {
			t.Errorf("found no call of %s: the guard no longer sees the coordinator's cutover", key)
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

// sleepSites lists every non-test time.Sleep call, by file and enclosing
// function. Each is a wall-clock wait that one injected clock (ROADMAP item
// 12) has to take over, so the list only shrinks: a new call fails
// TestSleepSites, and so does an entry that no call matches any more.
var sleepSites = []string{
	"cmd/lambdactl/main.go operator.stats",
	"cmd/lambdactl/top.go runTop",
	"internal/baseline/compute.go ComputeNode.run",
	"internal/chaos/schedule.go runner.awaitWrite",
	"internal/chaos/schedule.go runner.awaitWriteObject",
	"internal/chaos/schedule.go runner.runMigrateUnderChaos",
	"internal/cluster/client.go Client.backoff",
	"internal/cluster/local.go poll",
	"internal/cluster/node.go Node.afterCommit",
	"internal/recovery/receiver.go inbound.syncRange",
	"internal/rpc/rpc.go Client.call",
	"internal/rpc/rpc.go Client.call",
	"internal/rpc/rpc.go dialFrom",
	"internal/store/wal.go walWriter.appendAll",
}

// TestSleepSites pins sleepSites to the source.
func TestSleepSites(t *testing.T) {
	fset := token.NewFileSet()
	var found []string
	for _, s := range parseTree(t, fset, "internal", "cmd", "examples") {
		for _, d := range s.file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if idx, ok := recv.(*ast.IndexExpr); ok {
					recv = idx.X
				}
				name = selectorPath(recv) + "." + name
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && selectorPath(call.Fun) == "time.Sleep" {
					found = append(found, s.path+" "+name)
				}
				return true
			})
		}
	}
	want := slices.Clone(sleepSites)
	slices.Sort(found)
	slices.Sort(want)
	for _, site := range found {
		if i := slices.Index(want, site); i >= 0 {
			want = slices.Delete(want, i, i+1)
		} else {
			t.Errorf("%s calls time.Sleep: wait on a channel, a ticker or the caller's own clock instead", site)
		}
	}
	for _, site := range want {
		t.Errorf("sleepSites lists %q, which no longer sleeps: delete the entry", site)
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
// only the plane's two drivers, the chaos harness and the operator surface
// (internal/debug), import it. A component cannot grow a private injection
// site.
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

// TestOneOperatorSurface is the "one transport" guard: every operator read
// and control goes over the RPC port, registered by internal/debug, so the
// only product package that speaks HTTP is internal/debug itself, for pprof
// and the /metrics text.
func TestOneOperatorSurface(t *testing.T) {
	fset := token.NewFileSet()
	seen := false
	for _, c := range typeCheck(t, fset) {
		if !isProduct(c.dir) {
			continue
		}
		for _, f := range c.files {
			for _, im := range f.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				if p != "net/http" && !strings.HasPrefix(p, "net/http/") {
					continue
				}
				if c.dir != "internal/debug" {
					t.Errorf("%s: %s imports %s: operator reads and controls go over the RPC port (debug.Register)", fset.Position(im.Pos()), c.dir, p)
				}
				seen = true
			}
		}
	}
	if !seen {
		t.Error("found no net/http import in internal/debug: the guard no longer sees the debug server")
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
	top, err := parser.ParseFile(fset, "cmd/lambdactl/top.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	cols := 0
	ast.Inspect(top, func(n ast.Node) bool {
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
		t.Errorf("found %d columns in cmd/lambdactl/top.go: the guard is not looking at the table", cols)
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
// literal key or by assignment — by non-test code outside the file declaring
// it, or the paths it selects are paths no deployment takes (the funcs check
// above cannot see those: their code is reached through the field, and a
// test that sets a field is no deployment). Fields are matched through their
// type-checked objects, as in the fields subtest, so a field is never set by
// a namesake.
func TestEveryOptionIsSet(t *testing.T) {
	// exempt lists the option structs whose fields tests may be alone to set.
	exempt := map[string]string{
		"cluster.LocalOptions": "describes a deployment in one process: the tests' and the chaos suite's are deployments too",
		"chaos.RunOptions":     "describes a chaos schedule, which only the chaos suite's tests run",
		"cluster.FileConfig":   "decoded from a deployment's config file, never spelled in Go",
	}
	fset := token.NewFileSet()
	pkgs := typeCheck(t, fset)
	type decl struct {
		name string // package.Type.Field
		pos  token.Pos
	}
	declared := map[string]decl{}
	seen := map[string]bool{} // exempt structs declared
	for _, c := range pkgs {
		if !isProduct(c.dir) {
			continue
		}
		for _, obj := range c.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || !(strings.HasSuffix(tn.Name(), "Options") || strings.HasSuffix(tn.Name(), "Config")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			name := path.Base(c.dir) + "." + tn.Name()
			if _, skip := exempt[name]; skip {
				seen[name] = true
			}
			if !ok || seen[name] {
				continue
			}
			for i := range st.NumFields() {
				if f := st.Field(i); f.Exported() {
					declared[fieldKey(fset, f)] = decl{name + "." + f.Name(), f.Pos()}
				}
			}
		}
	}
	for name := range exempt {
		if !seen[name] {
			t.Errorf("exempt entry %q is stale: no product package declares it", name)
		}
	}
	if len(declared) < 30 {
		t.Fatalf("found %d option fields: the guard is not looking at the source", len(declared))
	}

	set := map[string]bool{}
	for _, c := range pkgs {
		note := func(id *ast.Ident) {
			if v, ok := c.info.Uses[id].(*types.Var); ok && v.IsField() &&
				fset.Position(id.Pos()).Filename != fset.Position(v.Origin().Pos()).Filename {
				set[fieldKey(fset, v)] = true
			}
		}
		for _, f := range c.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						note(id)
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							note(sel.Sel)
						}
					}
				}
				return true
			})
		}
	}

	var dead []string
	for k, d := range declared {
		if !set[k] {
			dead = append(dead, fset.Position(d.pos).String()+": "+d.name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is set by no non-test code outside its own file: a value only tests and its own defaults write is no deployment's knob — delete the field, or derive it", d)
	}
}
