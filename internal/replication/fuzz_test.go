package replication

import (
	"testing"

	"lambdastore/internal/store"
	"lambdastore/internal/wire/wiretest"
)

// FuzzReplicationWire covers the coalesced ship frame — with and without the
// lease renewal that may ride behind its members — and the standalone lease
// renewal.
func FuzzReplicationWire(f *testing.F) {
	b := store.NewBatch()
	b.Put([]byte("o\x00\x07name"), []byte("alice"))
	b.Delete([]byte("o\x00\x07tmp"))
	encode := func(m *applyBatchMsg) []byte {
		entries := make([]*shipEntry, len(m.msgs))
		for i, am := range m.msgs {
			entries[i] = &shipEntry{object: am.object, data: am.batch.Encode()}
		}
		return encodeApplyBatch(m.epoch, entries, m.leaseTTLUs, m.leaseEnq, m.leaseGrantNs)
	}
	msgs := []applyMsg{{object: 7, batch: b}, {object: 1 << 40, batch: store.NewBatch()}}
	plain := wiretest.Of("applyBatch", &applyBatchMsg{epoch: 3, msgs: msgs}, encode, decodeApplyBatch)
	leased := wiretest.Of("applyBatch+lease", &applyBatchMsg{epoch: 3, msgs: msgs, leaseTTLUs: 200000, leaseEnq: 41, leaseGrantNs: 1 << 50}, encode, decodeApplyBatch)
	plain.Extensible, leased.Extensible = true, true
	wiretest.Fuzz(f, plain, leased,
		wiretest.Of("lease", leaseMsg{epoch: 3, ttlUs: 200000, enq: 41, grantNs: 1 << 50}, encodeLease, decodeLease),
	)
}
