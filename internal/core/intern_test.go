package core

import (
	"fmt"
	"strings"
	"testing"
)

// TestInternMethodIsBounded: a guest (or a peer's invoke frame) can name any
// method, so the intern table must not grow with what it is shown. A name
// too long to intern, and any name once the table is full, still resolves to
// its own bytes — it is allocated per call instead — and leaves the table as
// it was.
func TestInternMethodIsBounded(t *testing.T) {
	methodNames.Lock()
	saved := methodNames.m
	methodNames.m = make(map[string]string)
	methodNames.Unlock()
	t.Cleanup(func() {
		methodNames.Lock()
		methodNames.m = saved
		methodNames.Unlock()
	})
	size := func() int {
		methodNames.RLock()
		defer methodNames.RUnlock()
		return len(methodNames.m)
	}

	if got := InternMethod([]byte("store_post")); got != "store_post" || size() != 1 {
		t.Fatalf("InternMethod(store_post) = %q, table size %d", got, size())
	}
	if n := testing.AllocsPerRun(100, func() { InternMethod([]byte("store_post")) }); n != 0 {
		t.Fatalf("an interned name allocates %.1f per lookup", n)
	}

	long := strings.Repeat("m", maxInternedLen+1)
	for i := 0; i < 3; i++ {
		if got := InternMethod([]byte(long)); got != long {
			t.Fatalf("a %d-byte name resolved to %d bytes", len(long), len(got))
		}
	}
	if size() != 1 {
		t.Fatalf("a name past the length cap grew the table to %d", size())
	}

	for i := 0; size() < maxInternedNames; i++ {
		InternMethod([]byte(fmt.Sprintf("m%d", i)))
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("past_the_cap_%d", i)
		if got := InternMethod([]byte(name)); got != name {
			t.Fatalf("InternMethod(%q) = %q on a full table", name, got)
		}
	}
	if size() != maxInternedNames {
		t.Fatalf("a full table grew to %d entries, cap %d", size(), maxInternedNames)
	}
	if got := InternMethod([]byte("store_post")); got != "store_post" {
		t.Fatalf("an interned name resolved to %q on a full table", got)
	}
}
