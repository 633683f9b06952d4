package baseline

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/poly"
	"repro/internal/schedule"
	"repro/internal/tags"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Base splits the nest's iterations into ncores contiguous chunks in
// program order — the canonical static OpenMP-style distribution.
func Base(k *workloads.Kernel, ncores int) [][]poly.Point {
	return Chunks(k.Nest.Points(), ncores)
}

// Chunks splits an iteration list into n near-equal contiguous chunks.
func Chunks(iters []poly.Point, n int) [][]poly.Point {
	out := make([][]poly.Point, n)
	total := len(iters)
	start := 0
	for c := 0; c < n; c++ {
		size := total / n
		if c < total%n {
			size++
		}
		out[c] = iters[start : start+size]
		start += size
	}
	return out
}

// BasePlus reorders each Base chunk with the best candidate transformation
// (identity, loop permutation, tiling at several tile sizes, permuted
// tiling), selected by simulated misses on the core's private cache(s).
// The machine supplies the private L1 parameters the tile search targets.
// Loops with carried dependences are left in program order — the candidate
// reorderings are only legal for fully parallel chunks (a production
// compiler would check each candidate's legality against the dependence
// distances; our Table 2 suite is fully parallel, so the conservative
// guard only fires for the dependence study kernels).
func BasePlus(k *workloads.Kernel, m *topology.Machine, blockBytes int64) ([][]poly.Point, error) {
	layout := k.Layout(blockBytes)
	iters := k.Nest.Points()
	chunks := Chunks(iters, m.NumCores())
	if deps.HasLoopCarried(iters, k.Refs, layout) {
		return chunks, nil
	}
	l1, err := privateL1(m)
	if err != nil {
		return nil, err
	}
	out := make([][]poly.Point, len(chunks))
	for c, chunk := range chunks {
		out[c] = bestOrder(chunk, k.Refs, layout, l1)
	}
	return out, nil
}

// privateL1 returns the first core's L1 cache node (all paper machines are
// homogeneous). A machine with no cores or no caches is an error, not a
// panic: custom JSON machine descriptions reach this path unvalidated.
func privateL1(m *topology.Machine) (*topology.Node, error) {
	path, err := m.PathToRoot(0)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	for _, n := range path {
		if n.Kind == topology.Cache {
			return n, nil
		}
	}
	return nil, fmt.Errorf("baseline: machine %s has no caches", m.Name)
}

// candidate is one loop transformation applied to an iteration list.
type candidate struct {
	name  string
	order []poly.Point
}

// bestOrder generates the candidate orders for a chunk and returns the one
// with the fewest private-cache misses.
func bestOrder(chunk []poly.Point, refs []*poly.Ref, layout *poly.Layout, l1 *topology.Node) []poly.Point {
	if len(chunk) == 0 {
		return chunk
	}
	cands := Candidates(chunk)
	best := cands[0].order
	bestMiss := privateMisses(cands[0].order, refs, layout, l1)
	for _, cand := range cands[1:] {
		if miss := privateMisses(cand.order, refs, layout, l1); miss < bestMiss {
			best, bestMiss = cand.order, miss
		}
	}
	return best
}

// Candidates enumerates the §4.1 transformation space: identity, loop
// permutation (interchange), and iteration-space tiling with tile sizes
// {16, 32, 64, 128} in both loop orders. One-dimensional chunks only admit
// identity and tiling (which is a no-op on a contiguous 1-D walk, so they
// reduce to identity).
func Candidates(chunk []poly.Point) []candidate {
	dims := len(chunk[0])
	cands := []candidate{{name: "identity", order: chunk}}
	if dims < 2 {
		return cands
	}
	cands = append(cands, candidate{name: "permute", order: reorder(chunk, func(p poly.Point) sortKey {
		return sortKey{p[1], p[0]}
	})})
	for _, t := range []int64{16, 32, 64, 128} {
		cands = append(cands,
			candidate{name: fmt.Sprintf("tile%d", t), order: reorder(chunk, func(p poly.Point) sortKey {
				return sortKey{p[0] / t, p[1] / t, p[0], p[1]}
			})},
			candidate{name: fmt.Sprintf("tile%d-perm", t), order: reorder(chunk, func(p poly.Point) sortKey {
				return sortKey{p[1] / t, p[0] / t, p[1], p[0]}
			})},
		)
	}
	return cands
}

// sortKey is a candidate order's lexicographic key. Shorter keys are
// zero-padded, which leaves their comparisons unchanged. A fixed-size
// array keeps the sort's comparisons free of allocation.
type sortKey [4]int64

// reorder stably sorts a copy of the points by the given key.
func reorder(chunk []poly.Point, key func(poly.Point) sortKey) []poly.Point {
	out := append([]poly.Point(nil), chunk...)
	sort.SliceStable(out, func(i, j int) bool {
		ki, kj := key(out[i]), key(out[j])
		for x := range ki {
			if ki[x] != kj[x] {
				return ki[x] < kj[x]
			}
		}
		return false
	})
	return out
}

// privateMisses counts misses of the chunk's reference stream on a single
// set-associative LRU cache with the node's parameters — the per-core
// cost model the Base+ tile search minimizes. The stream is pulled from
// the same lazy trace generator the simulator consumes (one single-core
// cursor per candidate order), so the tile search never materializes a
// trace either.
func privateMisses(order []poly.Point, refs []*poly.Ref, layout *poly.Layout, l1 *topology.Node) int {
	lineBits := uint(0)
	for (int64(1) << lineBits) < l1.LineBytes {
		lineBits++
	}
	sets := int(l1.SizeBytes / (int64(l1.Assoc) * l1.LineBytes))
	if sets < 1 {
		sets = 1
	}
	assoc := l1.Assoc
	lines := make([]int64, sets*assoc)
	stamp := make([]uint64, sets*assoc)
	for i := range lines {
		lines[i] = -1
	}
	var tick uint64
	misses := 0
	cur := trace.StreamOrder([][]poly.Point{order}, refs, layout).Cursor(0, 0)
	for a, ok := cur.Next(); ok; a, ok = cur.Next() {
		tag := a.Addr >> lineBits
		set := int(tag % int64(sets))
		base := set * assoc
		tick++
		hit := false
		for w := 0; w < assoc; w++ {
			if lines[base+w] == tag {
				stamp[base+w] = tick
				hit = true
				break
			}
		}
		if hit {
			continue
		}
		misses++
		victim := base
		for w := 0; w < assoc; w++ {
			if lines[base+w] == -1 {
				victim = base + w
				break
			}
			if stamp[base+w] < stamp[victim] {
				victim = base + w
			}
		}
		lines[victim] = tag
		stamp[victim] = tick
	}
	return misses
}

// Local builds the Fig 15 "Local" scheme: Base distribution, per-core tag
// grouping, Fig 7 local reorganization. It returns the distribution result
// and schedule ready for tracing.
func Local(k *workloads.Kernel, m *topology.Machine, blockBytes int64, opt schedule.Options) (*core.Result, *schedule.Schedule, error) {
	layout := k.Layout(blockBytes)
	chunks := Base(k, m.NumCores())
	res := &core.Result{Machine: m, PerCore: make([][]int, m.NumCores())}
	for c, chunk := range chunks {
		if len(chunk) == 0 {
			continue
		}
		tg := tags.Compute(chunk, k.Refs, layout)
		for _, g := range tg.Groups {
			id := len(res.Groups)
			res.Groups = append(res.Groups, &tags.Group{ID: id, Tag: g.Tag, Iters: g.Iters})
			res.Origin = append(res.Origin, id)
			res.PerCore[c] = append(res.PerCore[c], id)
		}
	}
	sched, err := schedule.Build(res, nil, opt)
	if err != nil {
		return nil, nil, fmt.Errorf("baseline: local scheduling: %w", err)
	}
	return res, sched, nil
}
