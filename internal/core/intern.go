package core

import "sync"

// methodNames interns method names, so that naming one — a nested call's
// takeCall, an invoke frame's decoder — does not allocate. It is bounded in
// entries and in name length: past either, InternMethod allocates the name
// per call instead, so neither a peer nor a guest can grow the table.
var methodNames = struct {
	sync.RWMutex
	m map[string]string
}{m: make(map[string]string)}

const (
	maxInternedNames = 1024
	maxInternedLen   = 64
)

// InternMethod returns b as a string, shared with every earlier name of the
// same bytes while the table has room for it.
func InternMethod(b []byte) string {
	methodNames.RLock()
	s, ok := methodNames.m[string(b)] // no alloc: map lookup special case
	methodNames.RUnlock()
	if !ok {
		s = string(b)
		methodNames.Lock()
		if len(s) <= maxInternedLen && len(methodNames.m) < maxInternedNames {
			methodNames.m[s] = s
		}
		methodNames.Unlock()
	}
	return s
}
