package shard

import (
	"testing"

	"lambdastore/internal/wire/wiretest"
)

// FuzzDirectory covers the directory snapshot the coordinator hands to nodes
// and clients.
func FuzzDirectory(f *testing.F) {
	d := NewDirectory([]Group{
		{ID: 0, Primary: "127.0.0.1:7411", Backups: []string{"127.0.0.1:7412", "127.0.0.1:7413"}},
		{ID: 1, Primary: "127.0.0.1:7421"},
	})
	d.SetOverride(1<<40, 1)
	d.SetOverride(6, 0)
	wiretest.Fuzz(f, wiretest.Of("snapshot", d, (*Directory).Snapshot, Load))
}
