package core

// The reference below is the container/heap-based merge the typed index
// heap in distribute.go replaced, copied verbatim with its identifiers
// prefixed "seed". Both read tie keys (combined size, representative
// distance) from the clusters at comparison time, so the keys of a pair
// can change while it sits in the heap; the typed heap keeps every figure
// only if it pops pairs in exactly the seed's order, which these tests
// check on the real pipeline inputs and on random taggings.

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/deps"
	"repro/internal/tags"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// seedMergeToK agglomeratively merges clusters down to k, always fusing the
// pair with the maximum tag dot product. A lazy max-heap keeps the pair
// selection near O(n² log n) instead of the naive O(n³) rescan.
//
// Unconstrained max-dot merging snowballs: the first big cluster's OR tag
// overlaps everything and keeps winning merges, leaving one giant cluster
// plus crumbs — which the load balancer must then shred, breaking exactly
// the sharing the clustering found. A size cap (no merge may exceed ~1.25×
// the ideal cluster size) keeps the k clusters comparable while still
// maximizing sharing; capped-out pairs are retried only when nothing else
// remains.
func seedMergeToK(cs []*cluster, k, width int, noCap bool) []*cluster {
	if len(cs) <= k {
		return cs
	}
	total := 0
	for _, c := range cs {
		total += c.size
	}
	sizeCap := total // no cap when k == 1
	if k > 1 && !noCap {
		sizeCap = total*5/(4*k) + 1 // 1.25 × ideal
	}
	alive := make(map[*cluster]bool, len(cs))
	for _, c := range cs {
		alive[c] = true
	}
	h := &seedPairHeap{}
	push := func(a, b *cluster) {
		heap.Push(h, seedPairEntry{dot: a.tag.Dot(b.tag), a: a, b: b})
	}
	for i := 0; i < len(cs); i++ {
		for j := i + 1; j < len(cs); j++ {
			push(cs[i], cs[j])
		}
	}
	live := len(cs)
	capped := true // whether the size cap is currently enforced
	var deferred []seedPairEntry
	for live > k {
		var best seedPairEntry
		found := false
		for h.Len() > 0 {
			best = heap.Pop(h).(seedPairEntry)
			if !alive[best.a] || !alive[best.b] {
				continue
			}
			if capped && best.a.size+best.b.size > sizeCap {
				deferred = append(deferred, best)
				continue
			}
			found = true
			break
		}
		if !found {
			if capped && len(deferred) > 0 {
				// Nothing fits under the cap; lift it and retry the
				// deferred pairs (still max-dot first via the heap).
				capped = false
				for _, p := range deferred {
					heap.Push(h, p)
				}
				deferred = nil
				continue
			}
			break
		}
		// Fuse b into a; b dies.
		for _, u := range best.b.units {
			best.a.add(u)
		}
		delete(alive, best.b)
		live--
		if live <= k {
			break
		}
		// Refresh pairs involving the fused cluster, iterating the stable
		// slice (not the map) so runs are deterministic.
		for _, c := range cs {
			if alive[c] && c != best.a {
				push(best.a, c)
			}
		}
	}
	var out []*cluster
	for _, c := range cs {
		if alive[c] {
			out = append(out, c)
		}
	}
	return out
}

// seedPairEntry is a candidate merge in the agglomerative clustering heap.
type seedPairEntry struct {
	dot  int
	a, b *cluster
}

// seedPairHeap is a max-heap of merge candidates by dot product; ties prefer
// program-adjacent clusters (smallest representative-ID distance), then
// smaller combined size — both deterministic.
type seedPairHeap []seedPairEntry

func (h seedPairHeap) Len() int { return len(h) }
func (h seedPairHeap) Less(i, j int) bool {
	if h[i].dot != h[j].dot {
		return h[i].dot > h[j].dot
	}
	si := h[i].a.size + h[i].b.size
	sj := h[j].a.size + h[j].b.size
	if si != sj {
		return si < sj
	}
	// Final tie: program adjacency (smallest representative-ID distance).
	di := h[i].a.repr - h[i].b.repr
	if di < 0 {
		di = -di
	}
	dj := h[j].a.repr - h[j].b.repr
	if dj < 0 {
		dj = -dj
	}
	return di < dj
}
func (h seedPairHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *seedPairHeap) Push(x any)   { *h = append(*h, x.(seedPairEntry)) }
func (h *seedPairHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// singletons wraps each unit in a cluster of its own, as clusterLevel does
// before merging.
func singletons(units []*unit, width int) []*cluster {
	cs := make([]*cluster, len(units))
	for i, u := range units {
		cs[i] = newCluster(width)
		cs[i].add(u)
	}
	return cs
}

// sameClusters reports the first difference between two merge outcomes:
// the surviving clusters must hold the same units in the same order, with
// the same aggregate tag, size and representative.
func sameClusters(want, got []*cluster) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d clusters survive, seed has %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if len(g.units) != len(w.units) {
			return fmt.Errorf("cluster %d has %d units, seed has %d", i, len(g.units), len(w.units))
		}
		for j := range w.units {
			if g.units[j] != w.units[j] {
				return fmt.Errorf("cluster %d unit %d differs from the seed's", i, j)
			}
		}
		if g.size != w.size || g.repr != w.repr || !g.tag.Equal(w.tag) {
			return fmt.Errorf("cluster %d aggregates (size %d, repr %d) differ from the seed's (size %d, repr %d)",
				i, g.size, g.repr, w.size, w.repr)
		}
	}
	return nil
}

// checkMergeLevels replays Distribute's descent below node. At every inner
// node it merges fresh singleton clusters of the node's units with both the
// seed and mergeToK and requires identical outcomes; the descent then goes
// on from the distributor's own clusters, so every level is checked on the
// inputs Distribute gives it. It returns the number of levels checked.
func checkMergeLevels(t *testing.T, d *distributor, node *topology.Node, units []*unit) int {
	t.Helper()
	if node.IsLeaf() {
		return 0
	}
	k := node.Degree()
	want := seedMergeToK(singletons(units, d.width), k, d.width, d.opt.NoMergeCap)
	got := mergeToK(singletons(units, d.width), k, d.width, d.opt.NoMergeCap)
	if err := sameClusters(want, got); err != nil {
		t.Fatalf("at %s (%d units into %d): %v", node.Label(), len(units), k, err)
	}
	clusters, err := d.level(node, units)
	if err != nil {
		t.Fatal(err)
	}
	n := 1
	for i, child := range node.Children {
		n += checkMergeLevels(t, d, child, append([]*unit(nil), clusters[i].units...))
	}
	return n
}

// TestSeedMergeMatchesTable2 checks every Table 2 kernel on Dunnington and
// the 24-core scaled Dunnington at the pipeline's default granularity (64
// groups per core, at least 512), tagged, coarsened and cycle-collapsed as
// repro's TopologyAware pipeline does.
func TestSeedMergeMatchesTable2(t *testing.T) {
	dun24, err := topology.ScaleDunnington(24)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*topology.Machine{topology.Dunnington(), dun24} {
		for _, k := range workloads.All() {
			iters := k.Nest.Points()
			tg := tags.Coarsen(tags.Compute(iters, k.Refs, k.Layout(2048)), max(64*m.NumCores(), 512))
			dg, _ := deps.Analyze(iters, tg)
			groups := tg.Groups
			if dg.NumEdges() > 0 {
				groups, _, _ = deps.CollapseCycles(tg.Groups, dg, nil)
			}
			work := &tags.Tagging{Groups: groups, Layout: tg.Layout, Refs: tg.Refs, NumBlocks: tg.NumBlocks, TotalIters: tg.TotalIters}
			d, units := newDistributor(work, m, Options{})
			if n := checkMergeLevels(t, d, m.Root, units); n == 0 {
				t.Fatalf("%s on %s: no level checked", k.Name, m.Name)
			}
		}
	}
}

// TestSeedMergeMatchesRandom checks seeded random cluster sets. Tags are a
// few bits wide, so equal-dot pairs are everywhere and ties fall through
// to the size and representative keys; one unit in five is heavy, so the
// size cap defers pairs and is often lifted (the deferred re-push path).
func TestSeedMergeMatchesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	lifted, ties := 0, 0
	for trial := 0; trial < 400; trial++ {
		width := 1 + rng.Intn(10)
		n := 2 + rng.Intn(60)
		k := 1 + rng.Intn(6)
		noCap := rng.Intn(8) == 0
		units := make([]*unit, n)
		total := 0
		for i := range units {
			tag := tags.NewTag(width)
			for b := 0; b < width; b++ {
				if rng.Intn(3) == 0 {
					tag.Set(b)
				}
			}
			size := 1 + rng.Intn(20)
			if rng.Intn(5) == 0 {
				size = 50 + rng.Intn(100)
			}
			units[i] = &unit{groups: []int{i}, tag: tag, size: size}
			total += size
		}
		want := seedMergeToK(singletons(units, width), k, width, noCap)
		got := mergeToK(singletons(units, width), k, width, noCap)
		if err := sameClusters(want, got); err != nil {
			t.Fatalf("trial %d (n=%d k=%d width=%d noCap=%v): %v", trial, n, k, width, noCap, err)
		}
		sizeCap := total*5/(4*k) + 1
		for _, c := range got {
			if k > 1 && !noCap && len(c.units) > 1 && c.size > sizeCap {
				lifted++ // only a lifted cap lets a merge exceed it
				break
			}
		}
		if hasTie(units) {
			ties++
		}
	}
	if lifted == 0 || ties == 0 {
		t.Fatalf("random taggings never exercised the cap lift (%d) or equal-key ties (%d)", lifted, ties)
	}
}

// hasTie reports whether two initial pairs agree on dot product and
// combined size, so only the representative distance can order them.
func hasTie(units []*unit) bool {
	type key struct{ dot, size int }
	seen := make(map[key]bool)
	for i := range units {
		for j := i + 1; j < len(units); j++ {
			k := key{units[i].tag.Dot(units[j].tag), units[i].size + units[j].size}
			if seen[k] {
				return true
			}
			seen[k] = true
		}
	}
	return false
}
