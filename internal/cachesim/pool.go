package cachesim

import (
	"math/bits"
	"sync"
)

// Reused cache arrays. A cache's per-way arrays (cache.tags, cache.meta)
// depend only on its geometry, yet every cold simulation needs a whole
// machine's worth of them: about 8 MB for Dunnington and 16 MB for
// Dunnington-24. SimulateContext and SimulateOnce hand them back here when
// the run ends, and newCache takes them from here, so a grid of cells on one
// machine stops allocating them per cell.
//
// Each element type has one sync.Pool per size class ⌊log2 cap⌋, so the
// number of pools is fixed whatever geometries machine descriptions bring.
// A taken array is only a backing store: newCache resets every element, so
// a reused array is indistinguishable from a fresh one, even after an
// aborted run. sync.Pool drops what the GC finds unused for two cycles, so
// the pools need no size knob. They hold *[]T because sync.Pool wants
// pointer-shaped values (staticcheck SA6002).
var (
	tagPools  [64]sync.Pool // *[]int64
	metaPools [64]sync.Pool // *[]uint16
)

// sizeClass returns ⌊log2 n⌋ for n >= 1.
func sizeClass(n int) int { return bits.Len(uint(n)) - 1 }

// takeArray returns a slice of length n with arbitrary contents: a pooled
// array of n's size class when one is long enough, else a fresh array of
// exactly n elements. A pooled array that is too short is dropped, so a
// class shared by two geometries converges on arrays that fit both.
func takeArray[T int64 | uint16](pools *[64]sync.Pool, n int) []T {
	if n > 0 {
		if p, _ := pools[sizeClass(n)].Get().(*[]T); p != nil && cap(*p) >= n {
			return (*p)[:n]
		}
	}
	return make([]T, n)
}

// putArray hands a's backing array to its size class's pool. The caller
// must not use a afterwards.
func putArray[T int64 | uint16](pools *[64]sync.Pool, a []T) {
	if cap(a) == 0 {
		return
	}
	a = a[:cap(a)]
	pools[sizeClass(cap(a))].Put(&a)
}
