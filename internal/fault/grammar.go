package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The fault-plane command grammar, one command per line. It is what the
// node.faults operator method applies and what `lambdactl fault` speaks;
// blank lines and #-comments are ignored.
//
//	seed <n>                        reseed the plane (decimal or 0x hex)
//	rule <site>[@<to>] <action>[:<arg>] [from=<label>] [p=<prob>] [count=<n>]
//	partition <a> <b>               sever a link both ways (b may be *)
//	heal <a> <b>                    restore it
//	remove <site>[@<to>]            disarm a site's rules, whoever the caller
//	clear                           disarm everything
//	reset                           clear + zero the firing counters
//
// <site> is an RPC method (repl.applyBatch, coord.heartbeat, ...), * for
// every method and the dial, or wal.sync (<to> is then a database
// directory). from= names the caller by its pool's label, its node's
// address. Actions: drop | delay:<duration> | error[:<msg>] | dup | crash;
// a partition is the pair of error:partitioned rules it arms.
// Example: rule *@127.0.0.1:7001 drop from=127.0.0.1:7002 p=0.3 count=10

// ParseRule parses "<site>[@<to>] <action>[:<arg>] [from=..] [p=..] [count=..]".
func ParseRule(s string) (Rule, error) {
	fields := strings.Fields(s)
	if len(fields) < 2 {
		return Rule{}, fmt.Errorf("fault: rule needs \"<site>[@to] <action>\": %q", s)
	}
	var r Rule
	r.Site, r.To, _ = strings.Cut(fields[0], "@")
	if r.Site == "" {
		return Rule{}, fmt.Errorf("fault: rule has no site: %q", s)
	}
	r.To = endpoint(r.To)
	act, arg, _ := strings.Cut(fields[1], ":")
	for a := Drop; a <= CrashConn; a++ {
		if a.String() == act {
			r.Action = a
		}
	}
	switch r.Action {
	case 0:
		return Rule{}, fmt.Errorf("fault: unknown action %q (drop|delay|error|dup|crash)", act)
	case Error:
		r.Err = arg
	case Delay:
		d, err := time.ParseDuration(arg)
		if err != nil {
			return Rule{}, fmt.Errorf("fault: delay needs a duration (delay:5ms): %v", err)
		}
		r.Delay = d
	}
	for _, f := range fields[2:] {
		k, v, _ := strings.Cut(f, "=")
		switch k {
		case "from":
			r.From = endpoint(v)
		case "p":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || !(p > 0 && p <= 1) {
				return Rule{}, fmt.Errorf("fault: p must be in (0,1]: %q", f)
			}
			r.P = p
			if p == 1 {
				r.P = 0 // always, as no p= says
			}
		case "count":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return Rule{}, fmt.Errorf("fault: bad count: %q", f)
			}
			r.Count = n
		default:
			return Rule{}, fmt.Errorf("fault: unknown rule option %q", f)
		}
	}
	return r, nil
}

// parse reads one grammar command into the change it makes to the process
// plane; a blank or comment line makes none (nil).
func parse(line string) (func(), error) {
	fields := strings.Fields(line)
	if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
		return nil, nil
	}
	cmd, rest := fields[0], fields[1:]
	switch cmd {
	case "seed":
		if len(rest) != 1 {
			return nil, fmt.Errorf("fault: seed needs one value")
		}
		s := strings.TrimPrefix(rest[0], "0x")
		base := 10
		if s != rest[0] {
			base = 16
		}
		n, err := strconv.ParseUint(s, base, 64)
		if err != nil {
			return nil, fmt.Errorf("fault: bad seed %q: %v", rest[0], err)
		}
		return func() { SetSeed(n) }, nil
	case "rule":
		r, err := ParseRule(strings.Join(rest, " "))
		if err != nil {
			return nil, err
		}
		return func() { Add(r) }, nil
	case "partition", "heal":
		if len(rest) != 2 {
			return nil, fmt.Errorf("fault: %s needs two endpoints", cmd)
		}
		if cmd == "partition" {
			return func() { Partition(rest[0], rest[1]) }, nil
		}
		return func() { Heal(rest[0], rest[1]) }, nil
	case "remove":
		if len(rest) != 1 {
			return nil, fmt.Errorf("fault: remove needs <site>[@to]")
		}
		site, to, _ := strings.Cut(rest[0], "@")
		return func() { Remove(site, to) }, nil
	case "clear":
		return Clear, nil
	case "reset":
		return Reset, nil
	}
	return nil, fmt.Errorf("fault: unknown command %q", cmd)
}

// ApplyAll executes a newline-separated command script against the process
// plane, all or nothing: every line is parsed before any is applied, so a
// script with a bad line changes nothing, and the error names that line.
func ApplyAll(script string) error {
	var changes []func()
	for i, line := range strings.Split(script, "\n") {
		change, err := parse(line)
		if err != nil {
			return fmt.Errorf("line %d (%q): %w", i+1, strings.TrimSpace(line), err)
		}
		if change != nil {
			changes = append(changes, change)
		}
	}
	for _, change := range changes {
		change()
	}
	return nil
}

// Describe renders the plane's state as a command script (plus counter
// comments): what node.faults answers with, re-appliable as-is.
func Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d\n", Seed())
	for _, r := range Rules() {
		fmt.Fprintf(&b, "rule %s\n", r)
	}
	counters := Counters()
	names := make([]string, 0, len(counters))
	for n := range counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "# fired %s %d\n", n, counters[n])
	}
	return b.String()
}
