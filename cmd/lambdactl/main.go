// Command lambdactl is the operator CLI for a LambdaStore cluster: create
// and invoke objects, deploy object types, migrate microshards, assemble
// and disassemble guest modules, and inspect node stats. What it shows of
// the cluster's metrics it reads from the nodes themselves, each of which
// keeps only cumulative instruments: stats and top take two samples and
// report what happened between them.
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
//	lambdactl stats -debug 127.0.0.1:8080,127.0.0.1:8081
//	lambdactl traces -debug 127.0.0.1:8080 [-min 10ms]
//	lambdactl trace 1f3a... -debug 127.0.0.1:8080
//	lambdactl fault -debug 127.0.0.1:8080
//	lambdactl fault -debug 127.0.0.1:8080 rule *@10.0.0.2:7001 drop p=0.3
//	lambdactl fault -debug 127.0.0.1:8080 -file scenario.fault
//	lambdactl asm -file user.s -o user.mod
//	lambdactl disasm -file user.mod
package main

import (
	"cmp"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"lambdastore/internal/cluster"
	"lambdastore/internal/coordinator"
	"lambdastore/internal/core"
	"lambdastore/internal/debug"
	"lambdastore/internal/recovery"
	"lambdastore/internal/retwis"
	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/vm"
)

func usage() {
	fmt.Fprintln(os.Stderr, `lambdactl [-config FILE] COMMAND [flags]

Commands:
  create          -type NAME -id N           create an object
  delete          -id N                      delete an object
  invoke          -id N -method M [-arg S | -argi64 N | -arghex H]...
                  [-out raw|str|i64|hex]     invoke a method
  migrate         -id N -dest GROUP          move a microshard (the config must
                                             name coordinators: a move commits
                                             only there)
  register-retwis                            deploy the Retwis User type
  stats           [-debug HOST:PORT,...]     print each node's metrics snapshot
                                             (totals and 1 s rates), over RPC or
                                             from debug servers' /metrics.json
  traces          -debug HOST:PORT,...       fetch /traces and print each trace
                  [-min DUR]                 as a span tree across nodes (only
                                             spans at least DUR long)
  trace           ID -debug HOST:PORT,...    assemble one trace across nodes:
                                             span tree + critical-path stage
                                             attribution
  top             [-n COUNT] [-interval DUR] per-group table (ops/s, p99, WAL
                                             fsync lag, cache hit rate, queue
                                             depth) over each -interval, rolled
                                             up from every replica's node.stats
  fault           -debug HOST:PORT [CMD...]  show the fault plane (no CMD),
                  [-file SCRIPT]             apply one command, or POST a script
  recovery        -debug HOST:PORT,...       show each node's rejoin state and
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

func main() {
	var configPath string
	flag.StringVar(&configPath, "config", "", "cluster configuration file (JSON)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
	}
	cmd, rest := flag.Arg(0), flag.Args()[1:]

	switch cmd {
	case "asm":
		runAsm(rest)
		return
	case "disasm":
		runDisasm(rest)
		return
	case "traces":
		runTraces(rest)
		return
	case "trace":
		runTrace(rest)
		return
	case "fault":
		runFault(rest)
		return
	case "recovery":
		runRecovery(rest)
		return
	case "set-group":
		runSetGroup(rest)
		return
	case "stats":
		// With -debug, stats reads the HTTP endpoints and needs no cluster
		// config; without it, it falls through to the RPC fetch below.
		fs := flag.NewFlagSet("stats", flag.ExitOnError)
		debugAddrs := fs.String("debug", "", "comma-separated debug HTTP addresses")
		fs.Parse(rest)
		if *debugAddrs != "" {
			runStats(strings.Split(*debugAddrs, ","), func(addr string) ([]byte, error) {
				return httpGet("http://" + strings.TrimSpace(addr) + "/metrics.json")
			})
			return
		}
	}

	if configPath == "" {
		log.Fatal("lambdactl: -config is required for cluster commands")
	}
	cfg, err := cluster.LoadConfigFile(configPath)
	if err != nil {
		log.Fatalf("lambdactl: %v", err)
	}
	client, err := cluster.NewClient(cluster.ClientConfig{
		Directory:    cfg.Directory(),
		Coordinators: cfg.Coordinators,
	})
	if err != nil {
		log.Fatalf("lambdactl: %v", err)
	}
	defer client.Close()

	switch cmd {
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

	case "stats":
		var addrs []string
		for _, g := range client.Directory().Groups() {
			for _, addr := range g.Replicas() {
				if !slices.Contains(addrs, addr) {
					addrs = append(addrs, addr)
				}
			}
		}
		runStats(addrs, client.Stats)

	case "top":
		runTop(client, rest)

	default:
		usage()
	}
}

// statsWindow is how far apart runStats takes its two samples.
const statsWindow = time.Second

// runStats prints each node's metrics: the cumulative snapshot next to the
// rates and percentiles of the window between two samples statsWindow apart,
// so rates don't have to be eyeballed from two runs. fetch returns a node's
// snapshot JSON — the node.stats RPC and /metrics.json serve the same bytes.
func runStats(addrs []string, fetch func(addr string) ([]byte, error)) {
	// A node that fails its first sample reports since its start.
	s := newSampler(fetch)
	for _, addr := range addrs {
		_, _, _ = s.next(addr)
	}
	time.Sleep(statsWindow)
	for _, addr := range addrs {
		cur, win, err := s.next(addr)
		if err != nil {
			fmt.Printf("== %s: unreachable (%v)\n", addr, err)
			continue
		}
		fmt.Printf("== %s (rates over %.1fs)\n", addr, win.Seconds)
		printSnapshot(cur, win)
	}
}

// printSnapshot renders one node's instruments, one line each: counters
// with their rate over win, gauges, then histograms with cumulative and
// windowed percentiles in the histogram's own unit.
func printSnapshot(cur, win telemetry.RegistrySnapshot) {
	for _, n := range telemetry.SortedNames(cur.Counters) {
		fmt.Printf("%-32s %12d  %10.1f/s\n", n, cur.Counters[n], win.Rate(n))
	}
	for _, n := range telemetry.SortedNames(cur.Gauges) {
		fmt.Printf("%-32s %12d\n", n, cur.Gauges[n])
	}
	for _, n := range telemetry.SortedNames(cur.Histograms) {
		h, w := cur.Histograms[n], win.Histograms[n]
		unit := "us"
		if h.Unit == telemetry.UnitCount {
			unit = ""
		}
		rate := 0.0
		if win.Seconds > 0 {
			rate = float64(w.Count) / win.Seconds
		}
		fmt.Printf("%-32s %12d  %10.1f/s  p50=%d%s p99=%d%s p999=%d%s max=%d%s  (window p50=%d%s p99=%d%s)\n",
			n, h.Count, rate, h.P50Us, unit, h.P99Us, unit, h.P999Us, unit, h.MaxUs, unit, w.P50Us, unit, w.P99Us, unit)
		top := -1
		for bucket := range w.Exemplars {
			top = max(top, bucket)
		}
		if top >= 0 {
			fmt.Printf("%-32s slowest-bucket exemplar trace=%s\n", "", w.Exemplars[top])
		}
	}
}

// runTrace fetches one trace's spans from every listed debug server,
// assembles them into a cross-node tree, and prints the tree with
// critical-path stage attribution.
func runTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	debugAddrs := fs.String("debug", "", "comma-separated debug HTTP addresses (required)")
	fs.Parse(args)
	if *debugAddrs == "" {
		log.Fatal("lambdactl: trace needs -debug")
	}
	if fs.NArg() != 1 {
		log.Fatal("lambdactl: trace needs exactly one trace ID (hex or decimal)")
	}
	id, err := debug.ParseTraceID(fs.Arg(0))
	if err != nil {
		log.Fatalf("lambdactl: bad trace ID %q: %v", fs.Arg(0), err)
	}
	spans := fetchSpans(*debugAddrs, url.Values{"trace": {fmt.Sprintf("%016x", id)}})
	if len(spans) == 0 {
		log.Fatalf("lambdactl: no spans found for trace %016x on any node", id)
	}
	fmt.Print(telemetry.AssembleTrace(id, spans).Render())
}

// runFault drives a node's /faults endpoint: with no trailing arguments it
// prints the plane's current state (a re-POSTable command script); trailing
// arguments are joined into one grammar command and POSTed; -file POSTs a
// whole script. The plane is process-global on the node, so one endpoint
// controls every site in that process.
func runFault(args []string) {
	fs := flag.NewFlagSet("fault", flag.ExitOnError)
	debugAddr := fs.String("debug", "", "debug HTTP address (required)")
	file := fs.String("file", "", "fault command script to POST")
	fs.Parse(args)
	if *debugAddr == "" {
		log.Fatal("lambdactl: fault needs -debug")
	}
	u := "http://" + strings.TrimSpace(*debugAddr) + "/faults"
	var script string
	switch {
	case *file != "":
		b, err := os.ReadFile(*file)
		if err != nil {
			log.Fatalf("lambdactl: %v", err)
		}
		script = string(b)
	case fs.NArg() > 0:
		script = strings.Join(fs.Args(), " ")
	default:
		body, err := httpGet(u)
		if err != nil {
			log.Fatalf("lambdactl: %v", err)
		}
		os.Stdout.Write(body)
		return
	}
	body, err := httpPost(u, script)
	if err != nil {
		log.Fatalf("lambdactl: %v", err)
	}
	os.Stdout.Write(body)
}

// runRecovery prints each node's anti-entropy picture: where its own
// rejoin state machine sits (with cumulative catch-up telemetry) and any
// catch-up sessions it is currently donating to.
func runRecovery(args []string) {
	fs := flag.NewFlagSet("recovery", flag.ExitOnError)
	debugAddrs := fs.String("debug", "", "comma-separated debug HTTP addresses (required)")
	fs.Parse(args)
	if *debugAddrs == "" {
		log.Fatal("lambdactl: recovery needs -debug")
	}
	for _, addr := range strings.Split(*debugAddrs, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		body, err := httpGet("http://" + addr + "/recovery")
		if err != nil {
			fmt.Printf("== %s: unreachable (%v)\n", addr, err)
			continue
		}
		var env struct {
			Rejoin        recovery.Status          `json:"rejoin"`
			DonorSessions []recovery.SessionStatus `json:"donor_sessions"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			log.Fatalf("lambdactl: %s: bad /recovery response: %v", addr, err)
		}
		r := env.Rejoin
		fmt.Printf("== %s (%s)\n", addr, r.Self)
		fmt.Printf("  state=%s attempts=%d rejoins=%d", r.State, r.Attempts, r.Rejoins)
		if r.Donor != "" {
			fmt.Printf(" donor=%s", r.Donor)
		}
		fmt.Println()
		if r.Rejoins > 0 {
			fmt.Printf("  last rejoin: %.3fs, %d ranges diverged, %d chunks, %d bytes streamed\n",
				r.LastRejoinSeconds, r.RangesDiverged, r.ChunksApplied, r.BytesStreamed)
		}
		if r.LastError != "" {
			fmt.Printf("  last error: %s\n", r.LastError)
		}
		if len(env.DonorSessions) == 0 {
			fmt.Println("  donating to: (none)")
			continue
		}
		for _, s := range env.DonorSessions {
			fmt.Printf("  donating to %s: scope=%s epoch=%d forwarded=%d age=%.1fs\n",
				s.Joiner, s.Scope, s.Epoch, s.Forwarded, s.AgeSeconds)
		}
	}
}

// runSetGroup installs (or replaces) one replica group on a live
// coordinator quorum — the bootstrap step for a coordinator-managed
// cluster, where nodes start with no static -config and learn their
// role from the directory.
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
	g := shard.Group{ID: *gid, Primary: *primary}
	for _, b := range strings.Split(*backups, ",") {
		if b = strings.TrimSpace(b); b != "" {
			g.Backups = append(g.Backups, b)
		}
	}
	pool := rpc.NewPool(nil)
	defer pool.Close()
	cc := coordinator.NewClient(pool, strings.Split(*coords, ","))
	if err := cc.SetGroup(g); err != nil {
		log.Fatalf("lambdactl: set-group: %v", err)
	}
	fmt.Printf("group %d: primary %s, backups %v\n", g.ID, g.Primary, g.Backups)
}

// runTraces fetches spans from one or more debug servers and prints each
// trace among them, earliest first, as its span tree across the nodes — the
// merged view of a distributed request. One trace by ID is runTrace's.
func runTraces(args []string) {
	fs := flag.NewFlagSet("traces", flag.ExitOnError)
	debugAddrs := fs.String("debug", "", "comma-separated debug HTTP addresses (required)")
	minDur := fs.Duration("min", 0, "only spans at least this long")
	fs.Parse(args)
	if *debugAddrs == "" {
		log.Fatal("lambdactl: traces needs -debug")
	}
	q := url.Values{}
	if *minDur > 0 {
		q.Set("min", minDur.String())
	}
	spans := fetchSpans(*debugAddrs, q)
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
		fmt.Print(telemetry.AssembleTrace(id, byTrace[id]).Render())
	}
}

// fetchSpans merges the spans /traces?q returns on every listed debug
// server; one that does not answer is reported and skipped.
func fetchSpans(debugAddrs string, q url.Values) []telemetry.Span {
	var spans []telemetry.Span
	for _, addr := range strings.Split(debugAddrs, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		body, err := httpGet("http://" + addr + "/traces?" + q.Encode())
		if err != nil {
			fmt.Printf("== %s: unreachable (%v)\n", addr, err)
			continue
		}
		var env struct {
			Spans []telemetry.Span `json:"spans"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			log.Fatalf("lambdactl: %s: bad /traces response: %v", addr, err)
		}
		spans = append(spans, env.Spans...)
	}
	return spans
}

// debugClient talks to debug endpoints, with a short timeout.
var debugClient = &http.Client{Timeout: 5 * time.Second}

// httpPost sends a plain-text body to a debug endpoint.
func httpPost(u, body string) ([]byte, error) {
	return readReply(debugClient.Post(u, "text/plain", strings.NewReader(body)))
}

// httpGet fetches a debug endpoint.
func httpGet(u string) ([]byte, error) { return readReply(debugClient.Get(u)) }

// readReply returns a debug endpoint's reply body, or its status and body
// as the error when it is not 200 OK.
func readReply(resp *http.Response, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
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
