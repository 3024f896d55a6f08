// Command lambdactl is the operator CLI for a LambdaStore cluster: create
// and invoke objects, deploy object types, migrate microshards, assemble
// and disassemble guest modules, and inspect node stats.
//
// Usage:
//
//	lambdactl -config cluster.json create -type User -id 42
//	lambdactl -config cluster.json invoke -id 42 -method create_account -arg alice
//	lambdactl -config cluster.json invoke -id 42 -method get_name -out str
//	lambdactl -config cluster.json register-retwis
//	lambdactl -config cluster.json migrate -id 42 -dest 1
//	lambdactl -config cluster.json stats
//	lambdactl stats -debug 127.0.0.1:8080,127.0.0.1:8081
//	lambdactl traces -debug 127.0.0.1:8080 -trace 1f3a... [-min 10ms]
//	lambdactl fault -debug 127.0.0.1:8080
//	lambdactl fault -debug 127.0.0.1:8080 rule rpc.send@10.0.0.2:7001 drop p=0.3
//	lambdactl fault -debug 127.0.0.1:8080 -file scenario.fault
//	lambdactl asm -file user.s -o user.mod
//	lambdactl disasm -file user.mod
package main

import (
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
	"sort"
	"strconv"
	"strings"
	"time"

	"lambdastore/internal/admission"
	"lambdastore/internal/cluster"
	"lambdastore/internal/coordinator"
	"lambdastore/internal/core"
	"lambdastore/internal/debug"
	"lambdastore/internal/rebalance"
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
  migrate         -id N -dest GROUP          move a microshard
  register-retwis                            deploy the Retwis User type
  stats           [-debug HOST:PORT,...]     print each node's metrics snapshot
                                             (totals and 1 s rates), over RPC or
                                             from debug servers' /metrics.json
  traces          -debug HOST:PORT,...       fetch and pretty-print /traces
                  [-trace ID] [-min DUR]     (filter one trace / slow spans)
  trace           ID -debug HOST:PORT,...    assemble one trace across nodes:
                                             span tree + critical-path stage
                                             attribution
  top             -debug HOST:PORT           per-group live table (ops/s, p99,
                  [-n COUNT] [-interval DUR] WAL fsync lag, cache hit rate,
                                             queue depth) from a coordinator's
                                             /cluster/metrics
  fault           -debug HOST:PORT [CMD...]  show the fault plane (no CMD),
                  [-file SCRIPT]             apply one command, or POST a script
  recovery        -debug HOST:PORT,...       show each node's rejoin state and
                                             donor catch-up sessions
  admission       -debug HOST:PORT,...       show each node's admission plane:
                                             queue depth, shed counters
  rebalance       -debug HOST:PORT           show the load-aware rebalancer:
                                             last load window, recent move
                                             decisions, counters (coordinator
                                             /rebalance endpoint)
  set-group       -coordinators HOST:PORT,... -group N -primary HOST:PORT
                  [-backups HOST:PORT,...]   install a replica group on a live
                                             coordinator (cluster bootstrap)
  asm             -file SRC [-o OUT]         assemble a guest module
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
	case "top":
		runTop(rest)
		return
	case "fault":
		runFault(rest)
		return
	case "recovery":
		runRecovery(rest)
		return
	case "admission":
		runAdmission(rest)
		return
	case "rebalance":
		runRebalanceStatus(rest)
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
	sample := func(addr string) (snap telemetry.RegistrySnapshot, err error) {
		body, err := fetch(addr)
		if err == nil {
			err = json.Unmarshal(body, &snap)
		}
		return snap, err
	}
	// A node that fails its first sample reports since its start.
	prev := make(map[string]telemetry.RegistrySnapshot, len(addrs))
	for _, addr := range addrs {
		prev[addr], _ = sample(addr)
	}
	time.Sleep(statsWindow)
	for _, addr := range addrs {
		cur, err := sample(addr)
		if err != nil {
			fmt.Printf("== %s: unreachable (%v)\n", addr, err)
			continue
		}
		win := cur.Sub(prev[addr])
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
	var spans []telemetry.Span
	for _, addr := range strings.Split(*debugAddrs, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		body, err := httpGet(fmt.Sprintf("http://%s/traces?trace=%016x", addr, id))
		if err != nil {
			fmt.Printf("== %s: unreachable (%v)\n", addr, err)
			continue
		}
		var env tracesEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			log.Fatalf("lambdactl: %s: bad /traces response: %v", addr, err)
		}
		spans = append(spans, env.Spans...)
	}
	if len(spans) == 0 {
		log.Fatalf("lambdactl: no spans found for trace %016x on any node", id)
	}
	fmt.Print(telemetry.AssembleTrace(id, spans).Render())
}

// runTop renders a coordinator's /cluster/metrics rollup as a per-group
// table, optionally repeating (-n 0 means forever) every -interval.
func runTop(args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	debugAddr := fs.String("debug", "", "coordinator debug HTTP address (required)")
	count := fs.Int("n", 1, "iterations (0 = forever)")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	fs.Parse(args)
	if *debugAddr == "" {
		log.Fatal("lambdactl: top needs -debug")
	}
	u := "http://" + strings.TrimSpace(*debugAddr) + "/cluster/metrics"
	for i := 0; *count == 0 || i < *count; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		body, err := httpGet(u)
		if err != nil {
			log.Fatalf("lambdactl: %v", err)
		}
		var cm coordinator.ClusterMetrics
		if err := json.Unmarshal(body, &cm); err != nil {
			log.Fatalf("lambdactl: bad /cluster/metrics response: %v", err)
		}
		fmt.Print(coordinator.FormatClusterMetrics(cm))
	}
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

// recoveryEnvelope mirrors the /recovery JSON response.
type recoveryEnvelope struct {
	Rejoin struct {
		Self              string  `json:"self"`
		State             string  `json:"state"`
		Donor             string  `json:"donor"`
		Attempts          uint64  `json:"attempts"`
		Rejoins           uint64  `json:"rejoins"`
		LastError         string  `json:"last_error"`
		LastRejoinSeconds float64 `json:"last_rejoin_seconds"`
		RangesDiverged    uint64  `json:"ranges_diverged"`
		BytesStreamed     uint64  `json:"bytes_streamed"`
		ChunksApplied     uint64  `json:"chunks_applied"`
	} `json:"rejoin"`
	DonorSessions []struct {
		Joiner     string  `json:"joiner"`
		Scope      string  `json:"scope"`
		Epoch      uint64  `json:"epoch"`
		Strict     bool    `json:"strict"`
		Forwarded  uint64  `json:"forwarded"`
		Gaps       uint64  `json:"gaps"`
		AgeSeconds float64 `json:"age_seconds"`
	} `json:"donor_sessions"`
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
		var env recoveryEnvelope
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
			mode := "buffering"
			if s.Strict {
				mode = "strict"
			}
			fmt.Printf("  donating to %s: scope=%s epoch=%d mode=%s forwarded=%d gaps=%d age=%.1fs\n",
				s.Joiner, s.Scope, s.Epoch, mode, s.Forwarded, s.Gaps, s.AgeSeconds)
		}
	}
}

// runAdmission prints each node's admission-plane picture from its
// /admission debug endpoint: slot occupancy, queue depth, and the shed
// counters broken down by cause.
func runAdmission(args []string) {
	fs := flag.NewFlagSet("admission", flag.ExitOnError)
	debugAddrs := fs.String("debug", "", "comma-separated debug HTTP addresses (required)")
	asJSON := fs.Bool("json", false, "dump the raw JSON status per node")
	fs.Parse(args)
	if *debugAddrs == "" {
		log.Fatal("lambdactl: admission needs -debug")
	}
	for _, addr := range strings.Split(*debugAddrs, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		body, err := httpGet("http://" + addr + "/admission")
		if err != nil {
			fmt.Printf("== %s: unreachable (%v)\n", addr, err)
			continue
		}
		if *asJSON {
			fmt.Printf("== %s\n%s\n", addr, strings.TrimSpace(string(body)))
			continue
		}
		var st admission.Status
		if err := json.Unmarshal(body, &st); err != nil {
			log.Fatalf("lambdactl: %s: bad /admission response: %v", addr, err)
		}
		fmt.Printf("== %s\n", addr)
		if !st.Enabled {
			fmt.Println("  admission plane disabled")
			continue
		}
		fmt.Printf("  slots %d/%d busy, queue %d/%d (%s), deadline %.1fms\n",
			st.Active, st.Workers, st.QueueDepth, st.QueueLimit,
			map[bool]string{true: "LIFO", false: "FIFO"}[st.LIFO], st.DeadlineMs)
		fmt.Printf("  admitted=%d queued=%d shed: deadline=%d full=%d\n",
			st.Admitted, st.Queued, st.ShedDeadline, st.ShedFull)
		fmt.Printf("  ewma service latency %dus\n", st.EWMALatencyUs)
	}
}

// runRebalanceStatus prints the load-aware rebalancer's view from a
// coordinator's /rebalance debug endpoint: the last observation window
// per group, the recent move decisions, and the lifetime counters.
func runRebalanceStatus(args []string) {
	fs := flag.NewFlagSet("rebalance", flag.ExitOnError)
	debugAddr := fs.String("debug", "", "coordinator debug HTTP address (required)")
	fs.Parse(args)
	if *debugAddr == "" {
		log.Fatal("lambdactl: rebalance needs -debug")
	}
	body, err := httpGet("http://" + *debugAddr + "/rebalance")
	if err != nil {
		log.Fatalf("lambdactl: %v (is -rebalance-interval set on this coordinator?)", err)
	}
	var st rebalance.Status
	if err := json.Unmarshal(body, &st); err != nil {
		log.Fatalf("lambdactl: %s: bad /rebalance response: %v", *debugAddr, err)
	}
	state := "enabled"
	if !st.Enabled {
		state = "disabled"
	}
	fmt.Printf("rebalancer %s: window=%.1fs ticks=%d moves=%d errors=%d cooling=%d\n",
		state, st.IntervalSec, st.Ticks, st.Moves, st.MoveErrors, st.Cooling)
	if len(st.LastWindow) > 0 {
		fmt.Println("last window:")
		for _, g := range st.LastWindow {
			fmt.Printf("  group %-4d %-21s ops=%-7d", g.ID, g.Primary, g.Ops)
			if g.P99Us > 0 {
				fmt.Printf(" p99=%dus", g.P99Us)
			}
			if g.QueueDepth > 0 {
				fmt.Printf(" queue=%d", g.QueueDepth)
			}
			fmt.Println()
		}
	}
	if len(st.Decisions) == 0 {
		fmt.Println("recent decisions: (none)")
		return
	}
	fmt.Println("recent decisions:")
	for _, d := range st.Decisions {
		when := time.Unix(0, d.UnixNano).Format("15:04:05.000")
		verdict := "planned"
		if d.Executed {
			verdict = "moved"
		} else if d.Error != "" {
			verdict = "failed: " + d.Error
		}
		fmt.Printf("  %s object %-8d %d -> %d (%d window ops, %s): %s\n",
			when, d.Move.Object, d.Move.From, d.Move.To, d.Move.Count, d.Move.Reason, verdict)
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

// tracesEnvelope mirrors the /traces JSON response.
type tracesEnvelope struct {
	Node  string           `json:"node"`
	Total uint64           `json:"total_recorded"`
	Spans []telemetry.Span `json:"spans"`
}

// runTraces fetches spans from one or more debug servers, merges them, and
// prints them grouped by trace with parent/child indentation — the merged
// view of a distributed request.
func runTraces(args []string) {
	fs := flag.NewFlagSet("traces", flag.ExitOnError)
	debugAddrs := fs.String("debug", "", "comma-separated debug HTTP addresses (required)")
	traceID := fs.String("trace", "", "only this trace (hex or decimal ID)")
	minDur := fs.Duration("min", 0, "only spans at least this long")
	fs.Parse(args)
	if *debugAddrs == "" {
		log.Fatal("lambdactl: traces needs -debug")
	}
	q := url.Values{}
	if *traceID != "" {
		q.Set("trace", *traceID)
	}
	if *minDur > 0 {
		q.Set("min", minDur.String())
	}
	var spans []telemetry.Span
	for _, addr := range strings.Split(*debugAddrs, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		u := "http://" + addr + "/traces"
		if enc := q.Encode(); enc != "" {
			u += "?" + enc
		}
		body, err := httpGet(u)
		if err != nil {
			fmt.Printf("== %s: unreachable (%v)\n", addr, err)
			continue
		}
		var env tracesEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			log.Fatalf("lambdactl: %s: bad /traces response: %v", addr, err)
		}
		spans = append(spans, env.Spans...)
	}
	printSpanForest(spans)
}

// printSpanForest renders spans grouped by trace, children indented under
// their parents (spans whose parent is missing from the set print at the
// top level).
func printSpanForest(spans []telemetry.Span) {
	byTrace := make(map[uint64][]telemetry.Span)
	var order []uint64
	for _, s := range spans {
		if _, ok := byTrace[s.Trace]; !ok {
			order = append(order, s.Trace)
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	sort.Slice(order, func(i, j int) bool {
		return byTrace[order[i]][0].Start < byTrace[order[j]][0].Start
	})
	for _, tid := range order {
		group := byTrace[tid]
		sort.Slice(group, func(i, j int) bool { return group[i].Start < group[j].Start })
		fmt.Printf("trace %016x (%d spans)\n", tid, len(group))
		byID := make(map[uint64]bool, len(group))
		children := make(map[uint64][]telemetry.Span)
		for _, s := range group {
			byID[s.ID] = true
		}
		var roots []telemetry.Span
		for _, s := range group {
			if s.Parent != 0 && byID[s.Parent] {
				children[s.Parent] = append(children[s.Parent], s)
			} else {
				roots = append(roots, s)
			}
		}
		var walk func(s telemetry.Span, depth int)
		walk = func(s telemetry.Span, depth int) {
			errStr := ""
			if s.Err != "" {
				errStr = " err=" + s.Err
			}
			fmt.Printf("  %s%-10s %-22s %v%s\n", strings.Repeat("  ", depth), s.Name, s.Node, s.Dur, errStr)
			for _, c := range children[s.ID] {
				walk(c, depth+1)
			}
		}
		for _, r := range roots {
			walk(r, 0)
		}
	}
}

// httpPost sends a plain-text body to a debug endpoint.
func httpPost(u, body string) ([]byte, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(u, "text/plain", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(out)))
	}
	return out, nil
}

// httpGet fetches a debug endpoint with a short timeout.
func httpGet(u string) ([]byte, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(u)
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
