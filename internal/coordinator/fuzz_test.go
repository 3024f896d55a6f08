package coordinator

import (
	"testing"

	"lambdastore/internal/shard"
	"lambdastore/internal/wire/wiretest"
)

// FuzzCoordinatorWire covers the replicated command log's entry format,
// which is also the body of every mutating client call.
func FuzzCoordinatorWire(f *testing.F) {
	wiretest.Fuzz(f,
		wiretest.Of("setGroup", &Command{Kind: cmdSetGroup, Group: shard.Group{ID: 2, Primary: "127.0.0.1:7411", Backups: []string{"127.0.0.1:7412", "127.0.0.1:7413"}}}, (*Command).Encode, DecodeCommand),
		wiretest.Of("promote", &Command{Kind: cmdPromote, GroupID: 2, FailedPrimary: "127.0.0.1:7411", NewPrimary: "127.0.0.1:7412"}, (*Command).Encode, DecodeCommand),
		wiretest.Of("setOverride", &Command{Kind: cmdSetOverride, Object: 1 << 44, TargetGroup: 5, Epoch: 17}, (*Command).Encode, DecodeCommand),
	)
}
