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
		entries := make([]*shipment, len(m.msgs))
		for i := range m.msgs {
			entries[i] = &shipment{object: m.msgs[i].object, data: m.msgs[i].batch.Encode()}
		}
		return appendApplyBatch(nil, m.epoch, entries, m.leaseTTLUs, m.leaseEnq, m.leaseGrantNs)
	}
	decode := func(body []byte) (*applyBatchMsg, error) {
		m := new(applyBatchMsg)
		return m, m.decode(body)
	}
	msgs := []applyMsg{{object: 7, batch: *b}, {object: 1 << 40}}
	plain := wiretest.Of("applyBatch", &applyBatchMsg{epoch: 3, msgs: msgs}, encode, decode)
	leased := wiretest.Of("applyBatch+lease", &applyBatchMsg{epoch: 3, msgs: msgs, leaseTTLUs: 200000, leaseEnq: 41, leaseGrantNs: 1 << 50}, encode, decode)
	plain.Extensible, leased.Extensible = true, true
	wiretest.Fuzz(f, plain, leased,
		wiretest.Of("lease", leaseMsg{epoch: 3, ttlUs: 200000, enq: 41, grantNs: 1 << 50}, encodeLease, decodeLease),
	)
}
