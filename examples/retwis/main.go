// Retwis demo: the paper's running example (§3.2) on a replicated
// three-node LambdaStore group. Users follow each other, post, read
// timelines and block — with create_post fanning out to follower timelines
// in parallel, and blocks guaranteed to be respected by invocation
// linearizability.
//
//	go run ./examples/retwis
package main

import (
	"fmt"
	"log"

	"lambdastore/internal/cluster"
	"lambdastore/internal/core"
	"lambdastore/internal/retwis"
)

func main() {
	// Boot a 3-node replica group (1 primary + 2 backups).
	local, err := cluster.StartLocal(cluster.LocalOptions{Groups: []int{3}})
	if err != nil {
		log.Fatal(err)
	}
	defer local.Close()
	client := local.Client
	g, _ := local.Group(0)
	fmt.Printf("replica group: primary %s, backups %v\n\n", g.Primary, g.Backups)

	if err := client.RegisterType(retwis.MustType()); err != nil {
		log.Fatal(err)
	}

	// Create three users.
	users := map[string]core.ObjectID{"alice": 1, "bob": 2, "carol": 3}
	for name, id := range users {
		if err := client.CreateObject(retwis.TypeName, id); err != nil {
			log.Fatal(err)
		}
		if _, err := client.Invoke(id, "create_account", [][]byte{[]byte(name)}); err != nil {
			log.Fatal(err)
		}
	}

	// bob and carol follow alice (cross-object invocations).
	for _, follower := range []core.ObjectID{users["bob"], users["carol"]} {
		if _, err := client.Invoke(follower, "follow", [][]byte{core.I64Bytes(int64(users["alice"]))}); err != nil {
			log.Fatal(err)
		}
	}

	// alice posts: the post lands in her timeline and fans out to both
	// followers' timelines in parallel.
	res, err := client.Invoke(users["alice"], "create_post", [][]byte{[]byte("hello, lambda objects!")})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice posted (delivered to %d followers)\n", core.BytesI64(res))

	// carol blocks alice; the block commits before the next post, so
	// invocation linearizability guarantees she never sees it (§2).
	if _, err := client.Invoke(users["carol"], "block", [][]byte{core.I64Bytes(int64(users["alice"]))}); err != nil {
		log.Fatal(err)
	}
	if _, err := client.Invoke(users["alice"], "create_post", [][]byte{[]byte("second post")}); err != nil {
		log.Fatal(err)
	}

	// Read timelines from replicas (read-only methods run at any replica).
	for _, name := range []string{"alice", "bob", "carol"} {
		raw, err := client.InvokeRead(users[name], "get_timeline", [][]byte{core.I64Bytes(10)})
		if err != nil {
			log.Fatal(err)
		}
		posts, err := retwis.DecodeTimeline(raw)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s's timeline (%d posts):\n", name, len(posts))
		for _, p := range posts {
			fmt.Printf("  [%s] %s\n", p.Author, p.Msg)
		}
	}
	fmt.Println("\ncarol's timeline stops at the first post: the block was respected.")
}
