package main

import (
	"lambdastore/internal/sched"
)

// schedReps is how many acquire/release pairs one sched.acquire span covers.
const schedReps = 64

// schedAcquire admits and releases a writer on an uncontended object of a
// benchmark-owned lock table: the floor every invocation pays before it
// may touch state.
func schedAcquire(t *sched.Table, id uint64) error {
	for i := 0; i < schedReps; i++ {
		release, err := t.Acquire(id, sched.Write)
		if err != nil {
			return err
		}
		release()
	}
	return nil
}
