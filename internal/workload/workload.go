// Package workload generates the Retwis benchmark workload of the paper's
// evaluation (§5): a population of user accounts with a skewed follower
// graph, and closed-loop client drivers issuing Post / GetTimeline / Follow
// jobs at a fixed concurrency (the paper runs "up to 100 concurrent client
// requests" against 10,000 accounts).
package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"lambdastore/internal/core"
	"lambdastore/internal/telemetry"
)

// Invoker abstracts the two architectures: the aggregated cluster client
// and the disaggregated compute client both implement it.
type Invoker interface {
	// Invoke submits one job and blocks for its result.
	Invoke(object uint64, method string, args [][]byte) ([]byte, error)
}

// InvokerFunc adapts a function to Invoker.
type InvokerFunc func(object uint64, method string, args [][]byte) ([]byte, error)

// Invoke implements Invoker.
func (f InvokerFunc) Invoke(object uint64, method string, args [][]byte) ([]byte, error) {
	return f(object, method, args)
}

// Config describes the benchmark population.
type Config struct {
	// Accounts is the number of User objects (paper: 10,000). They occupy
	// object IDs [1, Accounts].
	Accounts int
}

// The generator's shape, mirroring the paper's setup.
const (
	// meanFollowers is the average follower-list size; actual sizes are
	// Zipf-skewed (zipfS > 1; higher = more skew) so a few accounts have
	// many followers, as in real social graphs.
	meanFollowers = 8
	zipfS         = 1.3
	// msgLen is the post message size in bytes.
	msgLen = 100
	// Seed makes population and op streams reproducible.
	Seed int64 = 42
)

// AccountID returns the object ID of account index i.
func (c Config) AccountID(i int) uint64 {
	return 1 + uint64(i%c.Accounts)
}

// Populate creates the accounts and follower graph through inv. create is
// called to instantiate each object before its create_account invocation
// (the two architectures create objects differently).
func Populate(cfg Config, create func(id uint64) error, inv Invoker) error {
	rng := rand.New(rand.NewSource(Seed))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(4*meanFollowers))

	// Parallelize account creation: accounts are independent objects.
	const parallel = 32
	type job struct{ idx int }
	jobs := make(chan job, parallel)
	errs := make(chan error, parallel)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				id := cfg.AccountID(j.idx)
				if err := create(id); err != nil {
					errs <- fmt.Errorf("create %d: %w", id, err)
					return
				}
				name := fmt.Sprintf("user%06d", j.idx)
				if _, err := inv.Invoke(id, "create_account", [][]byte{[]byte(name)}); err != nil {
					errs <- fmt.Errorf("create_account %d: %w", id, err)
					return
				}
			}
		}()
	}
	for i := 0; i < cfg.Accounts; i++ {
		select {
		case err := <-errs:
			close(jobs)
			wg.Wait()
			return err
		case jobs <- job{idx: i}:
		}
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}

	// Follower edges: account i gains zipf-distributed random followers.
	edges := make(chan [2]uint64, parallel)
	var ewg sync.WaitGroup
	eerrs := make(chan error, parallel)
	for w := 0; w < parallel; w++ {
		ewg.Add(1)
		go func() {
			defer ewg.Done()
			for e := range edges {
				if _, err := inv.Invoke(e[0], "add_follower", [][]byte{core.I64Bytes(int64(e[1]))}); err != nil {
					eerrs <- fmt.Errorf("add_follower %d<-%d: %w", e[0], e[1], err)
					return
				}
			}
		}()
	}
	var sendErr error
edgeLoop:
	for i := 0; i < cfg.Accounts; i++ {
		account := cfg.AccountID(i)
		n := int(zipf.Uint64()) + 1
		for f := 0; f < n; f++ {
			follower := cfg.AccountID(rng.Intn(cfg.Accounts))
			if follower == account {
				continue
			}
			select {
			case err := <-eerrs:
				sendErr = err
				break edgeLoop
			case edges <- [2]uint64{account, follower}:
			}
		}
	}
	close(edges)
	ewg.Wait()
	if sendErr != nil {
		return sendErr
	}
	select {
	case err := <-eerrs:
		return err
	default:
	}
	return nil
}

// Workload names match the paper's Figure 1/2 x-axis.
const (
	Post        = "Post"
	GetTimeline = "GetTimeline"
	Follow      = "Follow"
)

// Workloads lists the evaluation workloads in paper order.
var Workloads = []string{Post, GetTimeline, Follow}

// OpStream produces the per-worker operation closure for one workload.
// Each worker gets an independent deterministic RNG and picks the target
// account uniformly.
func OpStream(cfg Config, workload string, inv Invoker, worker int) (func() error, error) {
	rng := rand.New(rand.NewSource(Seed + int64(worker)*7919))
	pick := func() uint64 { return cfg.AccountID(rng.Intn(cfg.Accounts)) }
	msg := make([]byte, msgLen)
	for i := range msg {
		msg[i] = byte('a' + i%26)
	}
	switch workload {
	case Post:
		return func() error {
			_, err := inv.Invoke(pick(), "create_post", [][]byte{msg})
			return err
		}, nil
	case GetTimeline:
		return func() error {
			_, err := inv.Invoke(pick(), "get_timeline", [][]byte{core.I64Bytes(10)})
			return err
		}, nil
	case Follow:
		return func() error {
			id := pick()
			follower := cfg.AccountID(rng.Intn(cfg.Accounts))
			_, err := inv.Invoke(id, "add_follower", [][]byte{core.I64Bytes(int64(follower))})
			return err
		}, nil
	default:
		return nil, fmt.Errorf("workload: unknown workload %q", workload)
	}
}

// Result summarizes one closed-loop run.
type Result struct {
	Workload   string
	Ops        uint64
	Elapsed    time.Duration
	Throughput float64 // jobs/sec
	Latency    telemetry.HistData
	Errors     uint64
}

// String renders a harness row.
func (r Result) String() string {
	return fmt.Sprintf("%-12s ops=%-7d thr=%9.1f jobs/s  p50=%-10v p99=%-10v errs=%d",
		r.Workload, r.Ops, r.Throughput, r.Latency.Quantile(0.5), r.Latency.Quantile(0.99), r.Errors)
}

// RunClosedLoop drives `concurrency` workers, each issuing operations
// back-to-back, until totalOps complete (the paper's closed-loop client
// model: "up to 100 concurrent client requests").
func RunClosedLoop(cfg Config, workload string, inv Invoker, concurrency, totalOps int) (Result, error) {
	if concurrency <= 0 {
		concurrency = 1
	}
	hist := &telemetry.Histogram{}
	var errCount telemetry.Counter

	remaining := make(chan struct{}, totalOps)
	for i := 0; i < totalOps; i++ {
		remaining <- struct{}{}
	}
	close(remaining)

	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, concurrency)
	for w := 0; w < concurrency; w++ {
		op, err := OpStream(cfg, workload, inv, w)
		if err != nil {
			return Result{}, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range remaining {
				t0 := time.Now()
				if err := op(); err != nil {
					errCount.Inc()
					select {
					case errCh <- err:
					default:
					}
					continue
				}
				hist.Record(time.Since(t0))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := Result{
		Workload:   workload,
		Ops:        hist.Count(),
		Elapsed:    elapsed,
		Throughput: float64(hist.Count()) / elapsed.Seconds(),
		Latency:    hist.Data(),
		Errors:     errCount.Value(),
	}
	// Surface the first error if everything failed.
	if res.Ops == 0 && res.Errors > 0 {
		select {
		case err := <-errCh:
			return res, fmt.Errorf("workload %s: all operations failed: %w", workload, err)
		default:
		}
	}
	return res, nil
}
