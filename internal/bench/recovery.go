package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"lambdastore/internal/chaos"
	"lambdastore/internal/cluster"
	"lambdastore/internal/core"
	"lambdastore/internal/recovery"
)

// Recovery bench sweep: two base store sizes crossed with two downtime
// divergence levels, each measured with the digest diff on (catch-up
// streams only divergent ranges) and off (full resync streams the whole
// store). The artifact's point: with digests, rejoin bytes track the
// writes the node missed, not how much data it stores.
var (
	recoveryStoreSizes  = []int{256, 1024}
	recoveryDivergences = []int{16, 128}
)

// RecoveryPoint is one measured rejoin.
type RecoveryPoint struct {
	// Mode is "digest" (range-digest diff) or "full" (full-resync ablation).
	Mode string `json:"mode"`
	// StoreObjects is the object count in the base store (pre-crash).
	StoreObjects int `json:"store_objects"`
	// DowntimeWrites is how many distinct objects were written while the
	// node was down — the real divergence.
	DowntimeWrites int `json:"downtime_writes"`
	// RejoinSeconds is restart-to-membership as the joiner's state
	// machine measured it (begin through epoch-fenced admission).
	RejoinSeconds float64 `json:"rejoin_seconds"`
	// BytesStreamed is the catch-up chunk payload volume.
	BytesStreamed uint64 `json:"bytes_streamed"`
	// RangesDiverged counts object/meta ranges the digest diff flagged
	// (in full mode: every range the donor holds).
	RangesDiverged uint64 `json:"ranges_diverged"`
	// ChunksApplied counts bounded chunk applications at the joiner.
	ChunksApplied uint64 `json:"chunks_applied"`
	// Attempts counts sync attempts (>1 means a retry was needed).
	Attempts uint64 `json:"attempts"`
}

// RecoveryReport is the results/BENCH_recovery.json document.
type RecoveryReport struct {
	GeneratedBy    string          `json:"generated_by"`
	Nodes          int             `json:"nodes"`
	StoreObjects   []int           `json:"store_objects"`
	DowntimeWrites []int           `json:"downtime_writes"`
	Results        []RecoveryPoint `json:"results"`
	// DigestStoreScalingBytes is digest-mode bytes at the large store over
	// the small store, same divergence: ~1.0 means catch-up cost is bound
	// by divergence, not store size.
	DigestStoreScalingBytes float64 `json:"digest_bytes_large_over_small_store"`
	// FullOverDigestBytes is full-resync bytes over digest-diff bytes at
	// the large store and small divergence — what the digest plane saves.
	FullOverDigestBytes float64 `json:"full_over_digest_bytes"`
}

// runRecoveryPoint boots a fresh 3-node chaos cluster, populates the base
// store, crashes a backup, writes the divergence during its downtime,
// restarts it and measures the rejoin.
func runRecoveryPoint(opts Options, fullResync bool, storeObjects, downtimeWrites int) (RecoveryPoint, error) {
	mode := "digest"
	if fullResync {
		mode = "full"
	}
	out := RecoveryPoint{Mode: mode, StoreObjects: storeObjects, DowntimeWrites: downtimeWrites}

	deployment := chaos.Deployment(opts.DataRoot)
	deployment.Node.RecoveryFullResync = fullResync
	c, err := cluster.StartLocal(deployment)
	if err != nil {
		return out, err
	}
	defer c.Close()
	client := c.Client

	typ, err := chaos.LedgerType()
	if err != nil {
		return out, err
	}
	if err := client.RegisterType(typ); err != nil {
		return out, err
	}

	// Base store: storeObjects ledgers, one entry each, written through
	// the replicated path (SyncWrites on — group commit amortizes).
	if err := populateLedgers(client, storeObjects); err != nil {
		return out, err
	}

	// Crash a backup and let the failure detector evict it.
	pi, err := c.Primary(0)
	if err != nil {
		return out, err
	}
	bi := (pi + 1) % len(c.Slots)
	if err := c.Kill(bi); err != nil {
		return out, err
	}
	backup := func(want bool) func() bool {
		return func() bool {
			g, err := c.Group(0)
			return err == nil && slices.Contains(g.Backups, c.Slots[bi].Addr) == want
		}
	}
	if err := c.Await(10*time.Second, "the crashed backup's eviction", backup(false)); err != nil {
		return out, err
	}

	// Downtime divergence: one append to each of the first downtimeWrites
	// objects. Awaited because the surviving replicas' views settle
	// asynchronously after the eviction.
	for i := 0; i < downtimeWrites; i++ {
		var werr error
		if c.Await(10*time.Second, "a downtime write", func() bool {
			werr = appendLedger(client, core.ObjectID(i%storeObjects+1), int64(1_000_000+i))
			return werr == nil
		}) != nil {
			return out, fmt.Errorf("downtime write %d: %w", i, werr)
		}
	}

	// Restart and measure the rejoin.
	if err := c.Restart(bi); err != nil {
		return out, err
	}
	joiner := c.Slots[bi].Node
	if err := c.Await(60*time.Second, "the restarted backup to rejoin and settle on member", func() bool {
		return backup(true)() && joiner.RecoveryState() == recovery.StateMember
	}); err != nil {
		return out, err
	}
	st := joiner.RecoveryStatus()
	out.RejoinSeconds = st.LastRejoinSeconds
	out.BytesStreamed = st.BytesStreamed
	out.RangesDiverged = st.RangesDiverged
	out.ChunksApplied = st.ChunksApplied
	out.Attempts = st.Attempts
	return out, nil
}

// populateLedgers creates n ledgers and appends one entry to each, in
// parallel so WAL group commit amortizes the fsyncs.
func populateLedgers(client *cluster.Client, n int) error {
	const workers = 8
	jobs := make(chan int, workers)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				id := core.ObjectID(i + 1)
				if err := client.CreateObject("Ledger", id); err != nil {
					errs <- fmt.Errorf("create %d: %w", id, err)
					return
				}
				if err := appendLedger(client, id, int64(i)); err != nil {
					errs <- fmt.Errorf("append %d: %w", id, err)
					return
				}
			}
		}()
	}
	var sendErr error
	for i := 0; i < n; i++ {
		select {
		case sendErr = <-errs:
		case jobs <- i:
			continue
		}
		break
	}
	close(jobs)
	wg.Wait()
	if sendErr != nil {
		return sendErr
	}
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

func appendLedger(client *cluster.Client, id core.ObjectID, v int64) error {
	_, err := client.Invoke(id, "append", [][]byte{core.I64Bytes(v)})
	return err
}

// RunRecovery sweeps rejoin cost over (store size × divergence × digest
// mode) and writes results/BENCH_recovery.json. An empty outPath skips
// the artifact.
func RunRecovery(opts Options, outPath string, w io.Writer) (*RecoveryReport, error) {
	rep := &RecoveryReport{
		GeneratedBy:    "make bench-recovery",
		Nodes:          3,
		StoreObjects:   recoveryStoreSizes,
		DowntimeWrites: recoveryDivergences,
	}
	if w != nil {
		fmt.Fprintln(w, "Recovery: backup crash, downtime writes, anti-entropy rejoin (digest diff vs full resync)")
	}
	// Indexed by (mode, store, divergence) for the headline ratios.
	bytesAt := make(map[string]uint64)
	for _, fullResync := range []bool{false, true} {
		for _, storeObjects := range recoveryStoreSizes {
			for _, div := range recoveryDivergences {
				p, err := runRecoveryPoint(opts, fullResync, storeObjects, div)
				if err != nil {
					return nil, fmt.Errorf("bench: recovery %s/%d/%d: %w", p.Mode, storeObjects, div, err)
				}
				rep.Results = append(rep.Results, p)
				bytesAt[fmt.Sprintf("%s/%d/%d", p.Mode, storeObjects, div)] = p.BytesStreamed
				if w != nil {
					fmt.Fprintf(w, "  %-6s store=%-5d diverged=%-4d rejoin=%7.3fs bytes=%-9d ranges=%-5d chunks=%-4d attempts=%d\n",
						p.Mode, p.StoreObjects, p.DowntimeWrites, p.RejoinSeconds,
						p.BytesStreamed, p.RangesDiverged, p.ChunksApplied, p.Attempts)
				}
			}
		}
	}

	small, large := recoveryStoreSizes[0], recoveryStoreSizes[len(recoveryStoreSizes)-1]
	minDiv := recoveryDivergences[0]
	if b := bytesAt[fmt.Sprintf("digest/%d/%d", small, minDiv)]; b > 0 {
		rep.DigestStoreScalingBytes = float64(bytesAt[fmt.Sprintf("digest/%d/%d", large, minDiv)]) / float64(b)
	}
	if b := bytesAt[fmt.Sprintf("digest/%d/%d", large, minDiv)]; b > 0 {
		rep.FullOverDigestBytes = float64(bytesAt[fmt.Sprintf("full/%d/%d", large, minDiv)]) / float64(b)
	}
	if w != nil {
		fmt.Fprintf(w, "  digest bytes, %dx store growth at fixed divergence: %.2fx (1.0 = divergence-bound)\n",
			large/small, rep.DigestStoreScalingBytes)
		fmt.Fprintf(w, "  full-resync over digest bytes (store=%d, diverged=%d): %.1fx\n",
			large, minDiv, rep.FullOverDigestBytes)
	}

	if outPath != "" {
		if err := writeRecoveryReport(rep, outPath); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// writeRecoveryReport stores the report as indented JSON.
func writeRecoveryReport(rep *RecoveryReport, path string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
