package main

import (
	"bytes"
	"fmt"

	"lambdastore/internal/core"
	"lambdastore/internal/retwis"
)

// checkTimeline is the traced replay's read oracle: the result must decode
// to exactly limit posts; a seeded post (its time field is its index) must
// carry the seeded author and body; any other post must be one a workload
// create_post wrote — an account of this population as author, and that
// author's 100-byte body.
func (in *inputs) checkTimeline(o op, res []byte) error {
	posts, err := retwis.DecodeTimeline(res)
	if err != nil {
		return err
	}
	if len(posts) != o.limit {
		return fmt.Errorf("get_timeline(%d) returned %d posts", o.limit, len(posts))
	}
	for i, p := range posts {
		if p.Time >= 0 && p.Time < seedPosts {
			if p != in.seededPost(o.obj, int(p.Time)) {
				return fmt.Errorf("get_timeline: seeded post %d of %s differs from what was seeded", p.Time, o.obj)
			}
			// With no writes the window is the newest limit seeded posts,
			// oldest first.
			if !in.w.writes() && int(p.Time) != seedPosts-o.limit+i {
				return fmt.Errorf("get_timeline: post %d of %s is out of order", i, o.obj)
			}
			continue
		}
		if !in.w.writes() || p.Author < 1 || int(p.Author) > in.w.accounts ||
			!bytes.Equal([]byte(p.Msg), postBody(p.Author)) {
			return fmt.Errorf("get_timeline: post %d of %s is neither seeded nor a workload post", i, o.obj)
		}
	}
	return nil
}

// checkState is the write oracle, run after all load has stopped: on the
// primary and on each backup, the timelines must have grown by exactly one
// entry per acknowledged create_post plus one per follower it reported
// delivering to, and the follower lists by one per acknowledged
// add_follower. A failed op may or may not have applied, so each widens
// the accepted range instead of breaking the check.
func (d *deployment) checkState(in *inputs, led *ledger) error {
	for ni, n := range d.nodes {
		// No compaction may be retiring tables under these reads.
		if err := n.DB().CompactNow(); err != nil {
			return err
		}
		var timeline, followers int64
		for i := 0; i < in.w.accounts; i++ {
			id := core.ObjectID(i + 1)
			tl, err := n.Runtime().ListLen(id, "timeline")
			if err != nil {
				return err
			}
			fl, err := n.Runtime().ListLen(id, "followers")
			if err != nil {
				return err
			}
			timeline += int64(tl)
			followers += int64(fl)
		}
		timeline -= int64(in.w.accounts * seedPosts)
		followers -= int64(in.edges)
		wantT, slackT := led.timelineEntries.Load(), led.failedPosts.Load()*(1+int64(in.edges)+followers)
		if timeline < wantT || timeline > wantT+slackT {
			return fmt.Errorf("node %d: timelines grew by %d entries, acknowledged posts account for %d", ni, timeline, wantT)
		}
		wantF, slackF := led.followerEntries.Load(), led.failedFollows.Load()
		if followers < wantF || followers > wantF+slackF {
			return fmt.Errorf("node %d: follower lists grew by %d entries, acknowledged follows account for %d", ni, followers, wantF)
		}
	}
	return nil
}
