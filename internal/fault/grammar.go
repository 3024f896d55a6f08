package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The fault-plane command grammar, one command per line. It is what the
// /faults debug endpoint accepts over POST and what `lambdactl fault`
// speaks; blank lines and #-comments are ignored.
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

// Apply executes one grammar command against the process plane.
func Apply(line string) error {
	fields := strings.Fields(line)
	if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
		return nil
	}
	cmd, rest := fields[0], fields[1:]
	switch cmd {
	case "seed":
		if len(rest) != 1 {
			return fmt.Errorf("fault: seed needs one value")
		}
		s := strings.TrimPrefix(rest[0], "0x")
		base := 10
		if s != rest[0] {
			base = 16
		}
		n, err := strconv.ParseUint(s, base, 64)
		if err != nil {
			return fmt.Errorf("fault: bad seed %q: %v", rest[0], err)
		}
		SetSeed(n)
	case "rule":
		r, err := ParseRule(strings.Join(rest, " "))
		if err != nil {
			return err
		}
		Add(r)
	case "partition", "heal":
		if len(rest) != 2 {
			return fmt.Errorf("fault: %s needs two endpoints", cmd)
		}
		if cmd == "partition" {
			Partition(rest[0], rest[1])
		} else {
			Heal(rest[0], rest[1])
		}
	case "remove":
		if len(rest) != 1 {
			return fmt.Errorf("fault: remove needs <site>[@to]")
		}
		site, to, _ := strings.Cut(rest[0], "@")
		Remove(site, to)
	case "clear":
		Clear()
	case "reset":
		Reset()
	default:
		return fmt.Errorf("fault: unknown command %q", cmd)
	}
	return nil
}

// ApplyAll executes a newline-separated command script, stopping at the
// first error.
func ApplyAll(script string) error {
	for _, line := range strings.Split(script, "\n") {
		if err := Apply(line); err != nil {
			return err
		}
	}
	return nil
}

// Describe renders the plane's state as a command script (plus counter
// comments): GET /faults output, re-POSTable as-is.
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
