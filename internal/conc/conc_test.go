package conc

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, parallelism := range []int{-1, 0, 1, 3, 100} {
		const n = 50
		var hits [n]atomic.Int32
		ForEach(n, parallelism, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("parallelism=%d: index %d hit %d times", parallelism, i, got)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	ForEach(-3, 4, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

// TestForEachBoundsWorkers holds the pool to parallelism calls in
// flight, the caller's own share counted among them.
func TestForEachBoundsWorkers(t *testing.T) {
	for _, parallelism := range []int{1, 2, 4} {
		var live, peak atomic.Int32
		ForEach(64, parallelism, func(int) {
			n := live.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			runtime.Gosched()
			live.Add(-1)
		})
		if p := peak.Load(); p > int32(parallelism) {
			t.Fatalf("parallelism=%d: observed %d concurrent calls", parallelism, p)
		}
	}
}

// TestForEachCallerWorks checks that the calling goroutine runs a
// share of the items: with parallelism 1 it runs all of them.
func TestForEachCallerWorks(t *testing.T) {
	var mu sync.Mutex
	ids := map[uint64]int{}
	ForEach(16, 1, func(int) {
		mu.Lock()
		ids[goid()]++
		mu.Unlock()
	})
	if len(ids) != 1 || ids[goid()] != 16 {
		t.Fatalf("parallelism 1 ran items on goroutines %v, want all 16 on the caller %d", ids, goid())
	}
}

// TestForEachClaimsInOrder is the invariant the streaming reorder
// window rests on: when a worker starts index i, every index below i
// has already been claimed. A claimed index that has not started yet
// is held by another worker, between its claim and its call, so at
// most parallelism−1 indices below i can still be unstarted. Each
// worker also sees its own indices in increasing order.
func TestForEachClaimsInOrder(t *testing.T) {
	for _, parallelism := range []int{2, 3, 8} {
		const n = 200
		var started [n]atomic.Bool
		var bad atomic.Int64
		bad.Store(-1)
		var mu sync.Mutex
		last := map[uint64]int{}
		ForEach(n, parallelism, func(i int) {
			started[i].Store(true)
			unstarted := 0
			for j := 0; j < i; j++ {
				if !started[j].Load() {
					unstarted++
				}
			}
			g := goid()
			mu.Lock()
			prev, seen := last[g]
			last[g] = i
			mu.Unlock()
			if unstarted > parallelism-1 || (seen && prev >= i) {
				bad.CompareAndSwap(-1, int64(i))
			}
			if i%7 == 0 {
				runtime.Gosched()
			}
		})
		if i := bad.Load(); i >= 0 {
			t.Fatalf("parallelism=%d: index %d started out of claim order", parallelism, i)
		}
	}
}

// goid returns the current goroutine's id, parsed from its stack
// header ("goroutine N [...").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	var id uint64
	for _, c := range b[len("goroutine "):] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// BenchmarkForEachShortItems prices the hand-off: 32 items of about
// 25 µs at parallelism 2, the shape of a re-key wave's handshakes
// split across two cores. The ideal is 16 items' work per op.
func BenchmarkForEachShortItems(b *testing.B) {
	const items, work = 32, 25 * time.Microsecond
	spin := func(int) {
		for end := time.Now().Add(work); time.Now().Before(end); {
		}
	}
	for b.Loop() {
		ForEach(items, 2, spin)
	}
}
