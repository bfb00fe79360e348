// Package conc provides the bounded-parallelism fan-out primitive
// shared by the batch and fleet paths (certificate issuance, device
// provisioning, session establishment).
//
// The calling goroutine is one of the workers: it runs a share of the
// work itself, so ForEach spawns parallelism−1 goroutines, and a
// parallelism of 1 spawns none.
package conc

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n) through a pool of at most
// parallelism workers (GOMAXPROCS when ≤ 0), the caller among them,
// and returns once all calls complete. fn reports failures itself,
// typically into an index-aligned error slice, so one bad element
// never aborts the rest of the batch.
//
// Workers claim indices from one shared atomic counter, so indices
// are claimed in increasing order: whenever index i has been claimed,
// every index below i has been claimed too. The streaming scenario
// engine's reorder window relies on that to rule out deadlock.
func ForEach(n, parallelism int, fn func(int)) {
	if n <= 0 {
		return
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(parallelism - 1)
	for w := 1; w < parallelism; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
