package coordinator

import (
	"testing"

	"lambdastore/internal/shard"
	"lambdastore/internal/wire/wiretest"
)

// FuzzCoordinatorWire covers the command format, the body of every
// mutating client call, and the replicated register's value: the directory
// and its promotion counts.
func FuzzCoordinatorWire(f *testing.F) {
	dir := shard.NewDirectory([]shard.Group{{ID: 0, Primary: "127.0.0.1:7411", Backups: []string{"127.0.0.1:7412"}}, {ID: 1, Primary: "127.0.0.1:7413"}})
	dir.SetOverride(1<<44, 1)
	wiretest.Fuzz(f,
		wiretest.Of("setGroup", &Command{Kind: cmdSetGroup, Group: shard.Group{ID: 2, Primary: "127.0.0.1:7411", Backups: []string{"127.0.0.1:7412", "127.0.0.1:7413"}}}, (*Command).Encode, DecodeCommand),
		wiretest.Of("promote", &Command{Kind: cmdPromote, GroupID: 2, FailedPrimary: "127.0.0.1:7411", NewPrimary: "127.0.0.1:7412"}, (*Command).Encode, DecodeCommand),
		wiretest.Of("setOverride", &Command{Kind: cmdSetOverride, Object: 1 << 44, TargetGroup: 5, Epoch: 17}, (*Command).Encode, DecodeCommand),
		wiretest.Of("state", &state{dir: dir, promotes: map[uint64]uint64{0: 2, 1: 1}}, (*state).encode, decodeState),
	)
}
