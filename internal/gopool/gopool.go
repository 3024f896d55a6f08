// Package gopool runs request-scoped tasks on warm goroutines. A goroutine
// that has served one request keeps the stack it grew doing so; handing it
// the next request skips the stack growth (runtime.newstack, copying the
// stack at each doubling) that a fresh goroutine pays on its way to the
// VM's call depth. Go hands a task to a parked worker if one is waiting and
// otherwise starts a goroutine, so a task never waits for another to
// finish: a slow handler still cannot block the connection that spawned it.
//
// The GC shrinks an idle goroutine's stack (by half per cycle while it uses
// under a quarter of it), so a parked worker's stack stays grown only from
// one GC to the next; reuse pays between GCs, which on a busy node is most
// requests. No GODEBUG setting is involved.
package gopool

import "sync/atomic"

// maxParked bounds the workers that stay parked once a burst is over; a
// worker that finishes a task with maxParked already waiting exits. A
// parked worker costs a goroutine and its stack — kilobytes, shrinking to
// the 2 KB minimum over a few GCs — so the cap only bounds what a burst
// leaves behind. It is well above what a node has in flight at once in the
// benchmark (two clients, create_post fanning out to at most 33 callees),
// and a burst beyond it runs on fresh goroutines as every request did
// before.
const maxParked = 256

var (
	// parked counts the workers that are waiting, or about to wait, on
	// tasks and that no Go has claimed yet. Go claims one by decrementing
	// it, so every send below has a worker that will receive it.
	parked atomic.Int32
	// tasks carries a task to the worker Go claimed for it. Sized to
	// maxParked: a send follows a claim, so the buffer never holds more
	// than the parked workers will take and a send never blocks.
	tasks = make(chan func(), maxParked)
)

// Go runs f on its own goroutine: a parked worker's if one is waiting, else
// a new one's. f must not assume it starts with a fresh stack or goroutine
// identity.
func Go(f func()) {
	for {
		n := parked.Load()
		if n == 0 {
			go work(f)
			return
		}
		if parked.CompareAndSwap(n, n-1) {
			tasks <- f
			return
		}
	}
}

// work runs f, then parks for the next task unless maxParked workers
// already wait.
func work(f func()) {
	for {
		f()
		f = nil // let the finished task's closure go while parked
		if !park() {
			return
		}
		f = <-tasks
	}
}

// park counts the worker as waiting, or reports false when maxParked
// already are.
func park() bool {
	for {
		n := parked.Load()
		if n >= maxParked {
			return false
		}
		if parked.CompareAndSwap(n, n+1) {
			return true
		}
	}
}
