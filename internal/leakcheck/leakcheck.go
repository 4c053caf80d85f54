// Package leakcheck is a stdlib-only goroutine leak detector for
// tests: snapshot the goroutine count when the test starts, and at
// cleanup poll until the count returns to the baseline or a grace
// period expires — failing with a full stack dump so the leaked
// goroutine's identity is in the test log, not just its count.
//
// Exchange and fault-injection tests use it to prove the abort paths
// join every goroutine they started: pool workers and context
// watchers all run within one Check window.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// grace is how long Check waits for goroutines to wind down before
// declaring a leak. Goroutine exit is asynchronous with respect to
// the synchronization that logically releases it (a WaitGroup.Wait
// returning does not mean the worker's final return has executed), so
// a brief settle window is required for a race-free check.
const grace = 5 * time.Second

// Check snapshots the current goroutine count and registers a cleanup
// that fails t if, after the grace period, more goroutines are alive
// than at the snapshot. Call it first thing in any test that spawns
// workers, routers, or governed queries.
func Check(t testing.TB) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(grace)
		var n int
		for {
			n = runtime.NumGoroutine()
			if n <= base || time.Now().After(deadline) {
				break
			}
			runtime.Gosched()
			time.Sleep(time.Millisecond)
		}
		if n > base {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Errorf("leakcheck: %d goroutines leaked (%d alive, %d at start)\n%s", n-base, n, base, buf)
		}
	})
}
