package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"lambdastore/internal/cluster"
	"lambdastore/internal/core"
	"lambdastore/internal/retwis"
	"lambdastore/internal/shard"
	"lambdastore/internal/store"
)

// replicas is the paper's group size: one primary and two backups.
const replicas = 3

// storeOptions is the product configuration under test: defaults plus
// fsync per commit group. The benchmark's own probe DBs use it too.
func storeOptions() *store.Options { return &store.Options{SyncWrites: true} }

// deployment is the paper's configuration in one process: one replica
// group of three storage nodes on loopback TCP and one pooled client.
type deployment struct {
	nodes  []*cluster.Node // nodes[0] is the primary
	client *cluster.Client
	dir    string
}

// boot starts the group under a fresh directory of root and registers the
// Retwis type on every node.
func boot(root string) (d *deployment, err error) {
	dir, err := os.MkdirTemp(root, "group-")
	if err != nil {
		return nil, err
	}
	d = &deployment{dir: dir}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	sd := shard.NewDirectory(nil)
	for i := 0; i < replicas; i++ {
		n, err := cluster.StartNode(cluster.NodeOptions{
			Addr:      "127.0.0.1:0",
			DataDir:   filepath.Join(dir, fmt.Sprintf("node%d", i)),
			Store:     storeOptions(),
			Runtime:   core.Options{CacheEntries: 1024},
			Directory: sd,
		})
		if err != nil {
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
		d.nodes = append(d.nodes, n)
	}
	g := shard.Group{ID: 0, Primary: d.nodes[0].Addr()}
	for _, n := range d.nodes[1:] {
		g.Backups = append(g.Backups, n.Addr())
	}
	sd.SetGroup(g)
	for _, n := range d.nodes {
		n.SetDirectory(sd)
	}
	if d.client, err = cluster.NewClient(cluster.ClientConfig{Directory: sd}); err != nil {
		return nil, err
	}
	typ, err := retwis.NewType()
	if err != nil {
		return nil, err
	}
	if err := d.client.RegisterType(typ); err != nil {
		return nil, err
	}
	return d, nil
}

// close stops the client and the nodes and removes their data.
func (d *deployment) close() {
	if d.client != nil {
		d.client.Close()
	}
	for _, n := range d.nodes {
		n.Close() //nolint:errcheck // teardown of a scratch deployment
	}
	os.RemoveAll(d.dir)
}

// populate writes every account's committed state — header, name, follower
// list and seeded timeline — straight into each replica's store through the
// backup-apply entry point, 64 accounts per storage commit. Going through
// CreateObject and method calls instead costs two fsynced, replicated
// commits per account: 2048 accounts would take longer than the measured
// window. The memtable is flushed after each quarter of the accounts, which
// makes the four L0 tables that trigger a compaction, and the compaction is
// awaited: the window starts on a store whose data sits in L1, as on a node
// that has been up for a while, and with the most room before writes bring
// the next compaction on. It returns the user bytes written.
func (d *deployment) populate(in *inputs) (int64, error) {
	var userBytes int64
	errs := make([]error, len(d.nodes))
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for ni, n := range d.nodes {
		wg.Add(1)
		go func(ni int, n *cluster.Node) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var bytes int64
			const chunk = 64
			quarter := (in.w.accounts/4 + chunk - 1) / chunk * chunk
			for lo := 0; lo < in.w.accounts && errs[ni] == nil; lo += chunk {
				var objs []uint64
				var batches []*store.Batch
				for i := lo; i < lo+chunk && i < in.w.accounts; i++ {
					id := core.ObjectID(i + 1)
					b := in.accountState(id)
					bytes += int64(b.ApproximateBytes())
					objs = append(objs, uint64(id))
					batches = append(batches, b)
				}
				errs[ni] = n.Runtime().ApplyReplicatedBulk(objs, batches)
				if errs[ni] == nil && (lo+chunk)%quarter == 0 {
					errs[ni] = n.DB().Flush()
				}
			}
			if errs[ni] == nil {
				errs[ni] = n.DB().CompactNow()
			}
			if ni == 0 {
				userBytes = bytes
			}
		}(ni, n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("populate: %w", err)
		}
	}
	return userBytes, nil
}

// accountState is one account's seeded state as a write-set.
func (in *inputs) accountState(id core.ObjectID) *store.Batch {
	b := store.NewBatch()
	b.Put(core.HeaderKey(id), []byte(retwis.TypeName))
	b.Put(core.VersionKey(id), core.EncodeU64(0))
	b.Put(core.ValueFieldKey(id, "name"), []byte(fmt.Sprintf("user%06d", id)))
	fs := in.followers[id-1]
	for i, f := range fs {
		b.Put(core.ListEntryKey(id, "followers", uint64(i)), core.I64Bytes(int64(f)))
	}
	b.Put(core.ListLenKey(id, "followers"), core.EncodeU64(uint64(len(fs))))
	for i := 0; i < seedPosts; i++ {
		b.Put(core.ListEntryKey(id, "timeline", uint64(i)), encodeEntry(in.seededPost(id, i)))
	}
	b.Put(core.ListLenKey(id, "timeline"), core.EncodeU64(seedPosts))
	return b
}

// encodeEntry is the guest's timeline entry layout: author8 | time8 | msg.
func encodeEntry(p retwis.Post) []byte {
	e := make([]byte, 16+len(p.Msg))
	binary.LittleEndian.PutUint64(e, uint64(p.Author))
	binary.LittleEndian.PutUint64(e[8:], uint64(p.Time))
	copy(e[16:], p.Msg)
	return e
}

// issue sends one op through the client, as an application would.
func (d *deployment) issue(in *inputs, o op) ([]byte, error) {
	if o.kind == opRead {
		return d.client.InvokeRead(o.obj, o.method(), in.args(o))
	}
	return d.client.Invoke(o.obj, o.method(), in.args(o))
}
