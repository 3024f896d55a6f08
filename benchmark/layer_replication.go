package main

import (
	"lambdastore/internal/replication"
	"lambdastore/internal/rpc"
	"lambdastore/internal/store"
)

// replProbe is replication alone: a shipper sending one write-set to a
// benchmark-owned backup server that applies it to its own fsyncing DB —
// encode, one RPC, the backup's WAL commit, the ack — without the
// primary's commit before it. The product ships to two backups in
// parallel; this is one of them.
type replProbe struct {
	srv     *rpc.Server
	pool    *rpc.Pool
	shipper *replication.Shipper
	backup  *storeProbe
}

func newReplProbe(dir string) (*replProbe, error) {
	backup, err := newStoreProbe(dir)
	if err != nil {
		return nil, err
	}
	p := &replProbe{srv: rpc.NewServer(), pool: rpc.NewPool(nil), backup: backup}
	replication.RegisterBackup(p.srv, backup.db, replication.ApplierFunc(
		func(_ uint64, b *store.Batch) error { return backup.db.Write(b) }))
	addr, err := p.srv.Serve("127.0.0.1:0")
	if err != nil {
		backup.close()
		return nil, err
	}
	p.shipper = replication.NewShipper(p.pool, nil)
	p.shipper.SetBackups([]string{addr})
	return p, nil
}

func (p *replProbe) close() {
	p.shipper.Close()
	p.pool.Close()
	p.srv.Close() //nolint:errcheck // teardown
	p.backup.close()
}

func (p *replProbe) ship(b *store.Batch) error { return p.shipper.Ship(1, b) }
