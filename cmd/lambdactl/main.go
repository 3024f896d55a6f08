// Command lambdactl is the operator CLI for a LambdaStore cluster: create
// and invoke objects, deploy object types, migrate microshards, assemble
// and disassemble guest modules, and inspect and steer the daemons. Every
// command speaks the daemons' RPC protocol on their RPC ports; there is no
// second transport. What it shows of the cluster's metrics it reads from
// the daemons themselves, each of which keeps only cumulative instruments:
// stats and top take two samples and report what happened between them.
//
// -config names the coordinators, which own the cluster's view. The
// read-only commands and fault address every replica of every group in that
// view, or the daemons -addrs lists instead — coordinators, compute
// nodes, or a chosen subset of the storage nodes.
//
// Usage:
//
//	lambdactl -config cluster.json create -type User -id 42
//	lambdactl -config cluster.json invoke -id 42 -method create_account -arg alice
//	lambdactl -config cluster.json invoke -id 42 -method get_name -out str
//	lambdactl -config cluster.json register-retwis
//	lambdactl -config cluster.json migrate -id 42 -dest 1
//	lambdactl -config cluster.json stats
//	lambdactl -config cluster.json top -n 0 -interval 5s
//	lambdactl -config cluster.json traces [-min 10ms]
//	lambdactl -config cluster.json trace 1f3a...
//	lambdactl -config cluster.json recovery
//	lambdactl -addrs 127.0.0.1:7101 stats
//	lambdactl -addrs 127.0.0.1:7411 fault
//	lambdactl -addrs 127.0.0.1:7411 fault rule *@10.0.0.2:7001 drop p=0.3
//	lambdactl -config cluster.json fault -file scenario.fault
//	lambdactl asm -file user.s -o user.mod
//	lambdactl disasm -file user.mod
package main

import (
	"cmp"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"lambdastore/internal/cluster"
	"lambdastore/internal/coordinator"
	"lambdastore/internal/core"
	"lambdastore/internal/debug"
	"lambdastore/internal/retwis"
	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/vm"
)

func usage() {
	fmt.Fprintln(os.Stderr, `lambdactl [-config FILE] [-addrs HOST:PORT,...] COMMAND [flags]

-config names the coordinators. The read-only commands and fault go to every
replica in their view of the groups, or to the daemons -addrs lists
(coordinators and compute nodes answer them too); the other commands refuse
-addrs. Each call to a daemon waits at most 5s.

Commands:
  create          -type NAME -id N           create an object
  delete          -id N                      delete an object
  invoke          -id N -method M [-arg S | -argi64 N | -arghex H]...
                  [-out raw|str|i64|hex]     invoke a method
  migrate         -id N -dest GROUP          move a microshard
  register-retwis                            deploy the Retwis User type
  stats                                      print each daemon's metrics snapshot
                                             (totals and 1 s rates)
  traces          [-min DUR]                 print each retained trace as a span
                                             tree across the daemons (only spans
                                             at least DUR long)
  trace           ID                         assemble one trace across the
                                             daemons: span tree + critical-path
                                             stage attribution
  top             [-n COUNT] [-interval DUR] per-group table (ops/s, p99, WAL
                                             fsync lag, cache hit rate, queue
                                             depth) over each -interval, rolled
                                             up from every replica's node.stats
  fault           [CMD... | -file SCRIPT]    show each daemon's fault plane (no
                                             CMD), or apply one command or a
                                             script (all or nothing on each
                                             daemon; every daemon is tried)
  recovery                                   show each node's rejoin state and
                                             the sessions it donates to (scope,
                                             epoch, relays forwarded, age; a
                                             lost relay ends its session)
  set-group       -coordinators HOST:PORT,... -group N -primary HOST:PORT
                  [-backups HOST:PORT,...]   install a replica group on a live
                                             coordinator (cluster bootstrap)
  asm             -file SRC [-o OUT]         assemble a guest module; print what
                                             each export is as a method (read or
                                             write, cacheable or not)
  disasm          -file MOD                  disassemble a guest module`)
	os.Exit(2)
}

// repeatedFlag collects repeated string flags.
type repeatedFlag []string

func (r *repeatedFlag) String() string     { return strings.Join(*r, ",") }
func (r *repeatedFlag) Set(s string) error { *r = append(*r, s); return nil }

// addrsCmds are the commands -addrs can stand in -config's place for: they
// read or steer daemons one by one and need no directory.
var addrsCmds = []string{"stats", "traces", "trace", "recovery", "fault"}

// operatorTimeout bounds each operator call, so a daemon that listens but
// hangs holds a command up for no longer than this per address.
const operatorTimeout = 5 * time.Second

func main() {
	var configPath, addrs string
	flag.StringVar(&configPath, "config", "", "cluster configuration file (JSON naming the coordinators)")
	flag.StringVar(&addrs, "addrs", "", "comma-separated RPC addresses the read-only commands and fault go to, instead of every replica in -config")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
	}
	cmd, rest := flag.Arg(0), flag.Args()[1:]
	o := &operator{addrs: splitAddrs(addrs), out: os.Stdout}
	if len(o.addrs) > 0 && !slices.Contains(addrsCmds, cmd) {
		log.Fatalf("lambdactl: %s does not take -addrs", cmd)
	}

	switch cmd {
	case "asm":
		runAsm(rest)
		return
	case "disasm":
		runDisasm(rest)
		return
	case "set-group":
		runSetGroup(rest)
		return
	}
	o.pool = rpc.NewPool(&rpc.ClientOptions{Timeout: operatorTimeout})
	defer o.pool.Close()

	// Without -addrs, a command goes through -config's coordinators: to
	// every replica of every group in their view, or through a client to
	// the cluster.
	var client *cluster.Client
	if len(o.addrs) == 0 {
		if configPath == "" {
			log.Fatal("lambdactl: -config is required for cluster commands")
		}
		cfg, err := cluster.LoadConfigFile(configPath)
		if err != nil {
			log.Fatalf("lambdactl: %v", err)
		}
		client, err = cluster.NewClient(cluster.ClientConfig{Coordinators: cfg.Coordinators})
		if err != nil {
			log.Fatalf("lambdactl: %v", err)
		}
		defer client.Close()
		o.addrs = replicas(client.Directory())
	}

	switch cmd {
	case "stats":
		must(o.stats(rest))
	case "traces":
		must(o.traces(rest))
	case "trace":
		must(o.trace(rest))
	case "recovery":
		must(o.recovery(rest))
	case "fault":
		must(o.fault(rest))

	case "create":
		fs := flag.NewFlagSet("create", flag.ExitOnError)
		typeName := fs.String("type", "", "object type name")
		id := fs.Uint64("id", 0, "object id")
		fs.Parse(rest)
		if *typeName == "" {
			log.Fatal("lambdactl: create needs -type")
		}
		if err := client.CreateObject(*typeName, core.ObjectID(*id)); err != nil {
			log.Fatalf("lambdactl: %v", err)
		}
		fmt.Printf("created %s (%s)\n", core.ObjectID(*id), *typeName)

	case "invoke":
		fs := flag.NewFlagSet("invoke", flag.ExitOnError)
		id := fs.Uint64("id", 0, "object id")
		method := fs.String("method", "", "method name")
		out := fs.String("out", "raw", "result rendering: raw|str|i64|hex")
		var strArgs, i64Args, hexArgs repeatedFlag
		fs.Var(&strArgs, "arg", "string argument (repeatable)")
		fs.Var(&i64Args, "argi64", "int64 argument (repeatable)")
		fs.Var(&hexArgs, "arghex", "hex-encoded argument (repeatable)")
		fs.Parse(rest)
		if *method == "" {
			log.Fatal("lambdactl: invoke needs -method")
		}
		var args [][]byte
		for _, s := range strArgs {
			args = append(args, []byte(s))
		}
		for _, s := range i64Args {
			n, err := strconv.ParseInt(s, 0, 64)
			if err != nil {
				log.Fatalf("lambdactl: bad -argi64 %q", s)
			}
			args = append(args, core.I64Bytes(n))
		}
		for _, s := range hexArgs {
			b, err := hex.DecodeString(s)
			if err != nil {
				log.Fatalf("lambdactl: bad -arghex %q", s)
			}
			args = append(args, b)
		}
		result, err := client.Invoke(core.ObjectID(*id), *method, args)
		if err != nil {
			log.Fatalf("lambdactl: %v", err)
		}
		switch *out {
		case "str":
			fmt.Println(string(result))
		case "i64":
			fmt.Println(core.BytesI64(result))
		case "hex":
			fmt.Println(hex.EncodeToString(result))
		default:
			os.Stdout.Write(result)
			fmt.Println()
		}

	case "delete":
		fs := flag.NewFlagSet("delete", flag.ExitOnError)
		id := fs.Uint64("id", 0, "object id")
		fs.Parse(rest)
		if err := client.DeleteObject(core.ObjectID(*id)); err != nil {
			log.Fatalf("lambdactl: %v", err)
		}
		fmt.Printf("deleted %s\n", core.ObjectID(*id))

	case "migrate":
		fs := flag.NewFlagSet("migrate", flag.ExitOnError)
		id := fs.Uint64("id", 0, "object id")
		dest := fs.Uint64("dest", 0, "destination group id")
		fs.Parse(rest)
		if err := client.Migrate(core.ObjectID(*id), *dest); err != nil {
			log.Fatalf("lambdactl: %v", err)
		}
		fmt.Printf("migrated %s to group %d\n", core.ObjectID(*id), *dest)

	case "register-retwis":
		typ, err := retwis.NewType()
		if err != nil {
			log.Fatalf("lambdactl: %v", err)
		}
		if err := client.RegisterType(typ); err != nil {
			log.Fatalf("lambdactl: %v", err)
		}
		fmt.Println("registered type User on all replicas")

	case "top":
		runTop(o, client, rest)

	default:
		usage()
	}
}

// must ends the command on err.
func must(err error) {
	if err != nil {
		log.Fatalf("lambdactl: %v", err)
	}
}

// splitAddrs splits a comma-separated address list, dropping empty entries.
func splitAddrs(list string) []string {
	var addrs []string
	for _, a := range strings.Split(list, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// replicas lists every replica of every group in dir, once each.
func replicas(dir *shard.Directory) []string {
	var addrs []string
	for _, g := range dir.Groups() {
		for _, addr := range g.Replicas() {
			if !slices.Contains(addrs, addr) {
				addrs = append(addrs, addr)
			}
		}
	}
	return addrs
}

// operator is how the commands that read or steer daemons reach them: one
// pool to the daemons' RPC ports, the addresses they go to, and where they
// print.
type operator struct {
	pool  *rpc.Pool
	addrs []string
	out   io.Writer
}

// snapshot returns addr's registry snapshot, as JSON, from its node.stats.
func (o *operator) snapshot(addr string) ([]byte, error) {
	return o.pool.Call(addr, debug.MethodStats, nil)
}

// statsWindow is how far apart stats takes its two samples.
const statsWindow = time.Second

// stats prints each daemon's metrics: the cumulative snapshot next to the
// rates and percentiles of the window between two samples statsWindow apart,
// so rates don't have to be eyeballed from two runs.
func (o *operator) stats(args []string) error {
	if err := flag.NewFlagSet("stats", flag.ContinueOnError).Parse(args); err != nil {
		return err
	}
	// A daemon that fails its first sample reports since its start.
	s := newSampler(o.snapshot)
	for _, addr := range o.addrs {
		_, _, _ = s.next(addr)
	}
	time.Sleep(statsWindow)
	for _, addr := range o.addrs {
		cur, win, err := s.next(addr)
		if err != nil {
			fmt.Fprintf(o.out, "== %s: unreachable (%v)\n", addr, err)
			continue
		}
		fmt.Fprintf(o.out, "== %s (rates over %.1fs)\n", addr, win.Seconds)
		printSnapshot(o.out, cur, win)
	}
	return nil
}

// printSnapshot renders one daemon's instruments, one line each: counters
// with their rate over win, gauges, then histograms with cumulative and
// windowed percentiles in the histogram's own unit.
func printSnapshot(w io.Writer, cur, win telemetry.RegistrySnapshot) {
	for _, n := range telemetry.SortedNames(cur.Counters) {
		fmt.Fprintf(w, "%-32s %12d  %10.1f/s\n", n, cur.Counters[n], win.Rate(n))
	}
	for _, n := range telemetry.SortedNames(cur.Gauges) {
		fmt.Fprintf(w, "%-32s %12d\n", n, cur.Gauges[n])
	}
	for _, n := range telemetry.SortedNames(cur.Histograms) {
		h, wh := cur.Histograms[n], win.Histograms[n]
		unit := "us"
		if h.Unit == telemetry.UnitCount {
			unit = ""
		}
		rate := 0.0
		if win.Seconds > 0 {
			rate = float64(wh.Count) / win.Seconds
		}
		fmt.Fprintf(w, "%-32s %12d  %10.1f/s  p50=%d%s p99=%d%s p999=%d%s max=%d%s  (window p50=%d%s p99=%d%s)\n",
			n, h.Count, rate, h.P50Us, unit, h.P99Us, unit, h.P999Us, unit, h.MaxUs, unit, wh.P50Us, unit, wh.P99Us, unit)
		top := -1
		for bucket := range wh.Exemplars {
			top = max(top, bucket)
		}
		if top >= 0 {
			fmt.Fprintf(w, "%-32s slowest-bucket exemplar trace=%s\n", "", wh.Exemplars[top])
		}
	}
}

// parseTraceID parses a trace ID as given on the command line: hexadecimal
// (the form trace IDs are logged in, with or without a 0x prefix), falling
// back to decimal.
func parseTraceID(s string) (uint64, error) {
	s = strings.TrimPrefix(strings.TrimSpace(s), "0x")
	if id, err := strconv.ParseUint(s, 16, 64); err == nil {
		return id, nil
	}
	return strconv.ParseUint(s, 10, 64)
}

// trace fetches one trace's spans from every daemon, assembles them into a
// cross-node tree, and prints the tree with critical-path stage
// attribution.
func (o *operator) trace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("trace needs exactly one trace ID (hex or decimal)")
	}
	id, err := parseTraceID(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("bad trace ID %q: %v", fs.Arg(0), err)
	}
	spans, err := o.spans(debug.TracesQuery{Trace: id})
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		return fmt.Errorf("no spans found for trace %016x on any node", id)
	}
	fmt.Fprint(o.out, telemetry.AssembleTrace(id, spans).Render())
	return nil
}

// traces fetches the retained spans from every daemon and prints each trace
// among them, earliest first, as its span tree across the nodes — the
// merged view of a distributed request. One trace by ID is trace's.
func (o *operator) traces(args []string) error {
	fs := flag.NewFlagSet("traces", flag.ContinueOnError)
	minDur := fs.Duration("min", 0, "only spans at least this long")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spans, err := o.spans(debug.TracesQuery{Min: *minDur})
	if err != nil {
		return err
	}
	slices.SortFunc(spans, func(a, b telemetry.Span) int { return cmp.Compare(a.Start, b.Start) })
	byTrace := make(map[uint64][]telemetry.Span)
	var order []uint64
	for _, s := range spans {
		if _, ok := byTrace[s.Trace]; !ok {
			order = append(order, s.Trace)
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	for _, id := range order {
		fmt.Fprint(o.out, telemetry.AssembleTrace(id, byTrace[id]).Render())
	}
	return nil
}

// spans merges what node.traces answers q with on every daemon; one that
// does not answer is reported and skipped.
func (o *operator) spans(q debug.TracesQuery) ([]telemetry.Span, error) {
	var all []telemetry.Span
	for _, addr := range o.addrs {
		body, err := o.pool.Call(addr, debug.MethodTraces, q.Encode())
		if err != nil {
			fmt.Fprintf(o.out, "== %s: unreachable (%v)\n", addr, err)
			continue
		}
		var spans []telemetry.Span
		if err := json.Unmarshal(body, &spans); err != nil {
			return nil, fmt.Errorf("%s: bad node.traces answer: %v", addr, err)
		}
		all = append(all, spans...)
	}
	return all, nil
}

// fault drives each daemon's fault plane through node.faults: with no
// trailing arguments it prints the plane's state (a re-appliable command
// script); trailing arguments are joined into one grammar command and
// applied; -file applies a whole script. Each daemon applies a script all
// or nothing, but one daemon's refusal does not stop the others: every
// address is tried and reported, and fault fails if any refused. The plane
// is process-global, so one call controls every site in that process.
func (o *operator) fault(args []string) error {
	fs := flag.NewFlagSet("fault", flag.ContinueOnError)
	file := fs.String("file", "", "fault command script to apply")
	if err := fs.Parse(args); err != nil {
		return err
	}
	script := []byte(strings.Join(fs.Args(), " "))
	if *file != "" {
		var err error
		if script, err = os.ReadFile(*file); err != nil {
			return err
		}
	}
	var failed []string
	for _, addr := range o.addrs {
		desc, err := o.pool.Call(addr, debug.MethodFaults, script)
		if err != nil {
			fmt.Fprintf(o.out, "== %s: refused (%v)\n", addr, err)
			failed = append(failed, addr)
			continue
		}
		fmt.Fprintf(o.out, "== %s\n%s", addr, desc)
	}
	if len(failed) > 0 {
		return fmt.Errorf("fault: not applied on %s", strings.Join(failed, ", "))
	}
	return nil
}

// recovery prints each node's anti-entropy picture: where its own rejoin
// state machine sits (with cumulative catch-up telemetry) and any catch-up
// sessions it is currently donating to.
func (o *operator) recovery(args []string) error {
	if err := flag.NewFlagSet("recovery", flag.ContinueOnError).Parse(args); err != nil {
		return err
	}
	for _, addr := range o.addrs {
		body, err := o.pool.Call(addr, cluster.MethodRecovery, nil)
		if err != nil {
			fmt.Fprintf(o.out, "== %s: unreachable (%v)\n", addr, err)
			continue
		}
		var rep cluster.RecoveryReport
		if err := json.Unmarshal(body, &rep); err != nil {
			return fmt.Errorf("%s: bad node.recovery answer: %v", addr, err)
		}
		r := rep.Rejoin
		fmt.Fprintf(o.out, "== %s (%s)\n", addr, r.Self)
		fmt.Fprintf(o.out, "  state=%s attempts=%d rejoins=%d", r.State, r.Attempts, r.Rejoins)
		if r.Donor != "" {
			fmt.Fprintf(o.out, " donor=%s", r.Donor)
		}
		fmt.Fprintln(o.out)
		if r.Rejoins > 0 {
			fmt.Fprintf(o.out, "  last rejoin: %.3fs, %d ranges diverged, %d chunks, %d bytes streamed\n",
				r.LastRejoinSeconds, r.RangesDiverged, r.ChunksApplied, r.BytesStreamed)
		}
		if r.LastError != "" {
			fmt.Fprintf(o.out, "  last error: %s\n", r.LastError)
		}
		if len(rep.DonorSessions) == 0 {
			fmt.Fprintln(o.out, "  donating to: (none)")
			continue
		}
		for _, s := range rep.DonorSessions {
			fmt.Fprintf(o.out, "  donating to %s: scope=%s epoch=%d forwarded=%d age=%.1fs\n",
				s.Joiner, s.Scope, s.Epoch, s.Forwarded, s.AgeSeconds)
		}
	}
	return nil
}

// runSetGroup installs (or replaces) one replica group on a live
// coordinator quorum — the bootstrap step of a cluster, whose nodes learn
// their role from the directory.
func runSetGroup(args []string) {
	fs := flag.NewFlagSet("set-group", flag.ExitOnError)
	coords := fs.String("coordinators", "", "comma-separated coordinator addresses (required)")
	gid := fs.Uint64("group", 0, "replica group id")
	primary := fs.String("primary", "", "primary node address (required)")
	backups := fs.String("backups", "", "comma-separated backup node addresses")
	fs.Parse(args)
	if *coords == "" || *primary == "" {
		log.Fatal("lambdactl: set-group needs -coordinators and -primary")
	}
	g := shard.Group{ID: *gid, Primary: *primary, Backups: splitAddrs(*backups)}
	pool := rpc.NewPool(nil)
	defer pool.Close()
	cc := coordinator.NewClient(pool, splitAddrs(*coords))
	d, err := cc.SetGroup(g)
	if err != nil {
		log.Fatalf("lambdactl: set-group: %v", err)
	}
	fmt.Printf("group %d: primary %s, backups %v (epoch %d)\n", g.ID, g.Primary, g.Backups, d.Epoch())
}

func runAsm(args []string) {
	fs := flag.NewFlagSet("asm", flag.ExitOnError)
	file := fs.String("file", "", "assembly source file")
	out := fs.String("o", "", "output module file (default: stdout hex)")
	fs.Parse(args)
	if *file == "" {
		log.Fatal("lambdactl: asm needs -file")
	}
	src, err := os.ReadFile(*file)
	if err != nil {
		log.Fatalf("lambdactl: %v", err)
	}
	mod, err := vm.Assemble(string(src))
	if err != nil {
		log.Fatalf("lambdactl: %v", err)
	}
	if err := core.LinkModule(mod); err != nil {
		log.Fatalf("lambdactl: %s would be refused as an object type's module: %v", *file, err)
	}
	// What the platform infers about each export as a method: nothing about
	// a method is declared. Stderr, so the hex on stdout stays pipeable.
	for _, f := range mod.Funcs {
		if f.Exported {
			fmt.Fprintf(os.Stderr, "%s: %v\n", f.Name, core.MethodEffects(mod, f.Name))
		}
	}
	enc := mod.Encode()
	if *out == "" {
		fmt.Println(hex.EncodeToString(enc))
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatalf("lambdactl: %v", err)
	}
	fmt.Printf("wrote %d bytes (%d functions) to %s\n", len(enc), len(mod.Funcs), *out)
}

func runDisasm(args []string) {
	fs := flag.NewFlagSet("disasm", flag.ExitOnError)
	file := fs.String("file", "", "module file")
	fs.Parse(args)
	if *file == "" {
		log.Fatal("lambdactl: disasm needs -file")
	}
	data, err := os.ReadFile(*file)
	if err != nil {
		log.Fatalf("lambdactl: %v", err)
	}
	mod, err := vm.Decode(data)
	if err != nil {
		log.Fatalf("lambdactl: %v", err)
	}
	fmt.Print(vm.Disassemble(mod))
}
