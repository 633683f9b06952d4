package tags

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/poly"
)

// Group is an iteration group θ_τ: the set of loop iterations that share the
// tag τ (§3.3). Two distinct groups never share an iteration, and the groups
// of a tagging collectively cover the whole iteration space.
type Group struct {
	// ID is a dense index assigned by the Tagger, stable across a run.
	ID  int
	Tag Tag
	// Iters holds the member iterations in lexicographic (program) order.
	Iters []poly.Point
}

// Size returns |θ_τ|, the number of member iterations.
func (g *Group) Size() int { return len(g.Iters) }

// String renders the group like θ[1100]{8 iters}.
func (g *Group) String() string {
	return fmt.Sprintf("θ[%s]{%d iters}", g.Tag, g.Size())
}

// Tagging is the result of tagging a loop nest against a data-block
// partitioning: the iteration groups plus the context needed downstream.
type Tagging struct {
	Groups    []*Group
	Layout    *poly.Layout
	Refs      []*poly.Ref
	NumBlocks int
	// TotalIters is the number of iterations across all groups.
	TotalIters int
}

// GroupOf returns the group containing iteration p, or nil.
func (tg *Tagging) GroupOf(p poly.Point) *Group {
	// Tag the point and look it up; cheaper than searching every group.
	t := TagOf(p, tg.Refs, tg.Layout, tg.NumBlocks)
	for _, g := range tg.Groups {
		if g.Tag.Equal(t) {
			return g
		}
	}
	return nil
}

// TagOf computes the tag of a single iteration: one bit per data block
// touched by any reference at p.
func TagOf(p poly.Point, refs []*poly.Ref, layout *poly.Layout, numBlocks int) Tag {
	t := NewTag(numBlocks)
	for _, r := range refs {
		// An element access can touch one block; mark it. (Elements never
		// straddle blocks because block sizes are multiples of elem sizes
		// in practice; if one did, the address-level simulator would still
		// see the right lines — tags are a logical grouping device.)
		t.Set(layout.BlockOf(r, p))
	}
	return t
}

// Compute tags every iteration of the given point list and clusters
// iterations with identical tags into groups, in first-appearance order.
// This is the "Initialization" step of the Fig 6 algorithm.
func Compute(iters []poly.Point, refs []*poly.Ref, layout *poly.Layout) *Tagging {
	return compute(iters, refs, layout, hashWords)
}

// compute is Compute with the tag hash as a parameter, so tests can force
// collisions between distinct tags.
func compute(iters []poly.Point, refs []*poly.Ref, layout *poly.Layout, hash func(t Tag, touched []int) uint64) *Tagging {
	numBlocks := layout.NumBlocks()
	// Each iteration is tagged into one scratch tag. It touches at most one
	// word per reference, so only those words are hashed and then cleared;
	// the tag is cloned only when it starts a new group.
	scratch := NewTag(numBlocks)
	touched := make([]int, 0, len(refs))
	// chain maps a hash to 1 + the newest group with that hash; next[g] is
	// 1 + the previous group with the same hash, 0 ending the chain.
	chain := make(map[uint64]int)
	var next []int
	var groups []*Group
	for _, p := range iters {
		for _, r := range refs {
			j := layout.BlockOf(r, p)
			scratch.Set(j)
			if w := j / 64; !slices.Contains(touched, w) {
				touched = append(touched, w)
			}
		}
		h := hash(scratch, touched)
		gi := chain[h] - 1
		for gi >= 0 && !groups[gi].Tag.Equal(scratch) {
			gi = next[gi] - 1
		}
		if gi < 0 {
			gi = len(groups)
			next = append(next, chain[h])
			chain[h] = gi + 1
			groups = append(groups, &Group{ID: gi, Tag: scratch.Clone()})
		}
		groups[gi].Iters = append(groups[gi].Iters, p)
		for _, w := range touched {
			scratch.words[w] = 0
		}
		touched = touched[:0]
	}
	return &Tagging{
		Groups:     groups,
		Layout:     layout,
		Refs:       refs,
		NumBlocks:  numBlocks,
		TotalIters: len(iters),
	}
}

// hashWords hashes the words of t listed in touched, which must hold every
// nonzero word of t exactly once. Each word is mixed with its index and the
// mixes are summed, so the hash does not depend on the order of touched.
func hashWords(t Tag, touched []int) uint64 {
	var h uint64
	for _, w := range touched {
		h += mix64(t.words[w] ^ uint64(w)*0x9e3779b97f4a7c15)
	}
	return h
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ComputeNest is Compute over a loop nest's full iteration space.
func ComputeNest(nest *poly.Nest, refs []*poly.Ref, layout *poly.Layout) *Tagging {
	return Compute(nest.Points(), refs, layout)
}

// SplitGroup splits g into two groups: the first keeping want iterations,
// the second the rest. Both inherit g's tag (splitting is a load-balancing
// device of Fig 6 — "split θ_a such that sizes are within limits"; the tag
// is conservatively kept, since every member still touches at most τ's
// blocks). The returned groups get the IDs id1 and id2.
func SplitGroup(g *Group, want, id1, id2 int) (*Group, *Group) {
	if want <= 0 || want >= g.Size() {
		//lint:ignore cellboundary programmer-error invariant on an internal API; repro.capturePanic converts it to a contained PanicError at the cell boundary
		panic(fmt.Sprintf("tags: SplitGroup(%d of %d)", want, g.Size()))
	}
	a := &Group{ID: id1, Tag: g.Tag.Clone(), Iters: append([]poly.Point(nil), g.Iters[:want]...)}
	b := &Group{ID: id2, Tag: g.Tag.Clone(), Iters: append([]poly.Point(nil), g.Iters[want:]...)}
	return a, b
}

// Validate checks the §3.3 invariants: groups are disjoint, cover the whole
// space, and every member iteration actually matches its group tag.
func (tg *Tagging) Validate(allIters []poly.Point) error {
	seen := make(map[string]int)
	total := 0
	for _, g := range tg.Groups {
		total += g.Size()
		for _, p := range g.Iters {
			k := p.String()
			if prev, dup := seen[k]; dup {
				return fmt.Errorf("tags: iteration %v in groups %d and %d", p, prev, g.ID)
			}
			seen[k] = g.ID
			t := TagOf(p, tg.Refs, tg.Layout, tg.NumBlocks)
			if !t.Equal(g.Tag) {
				return fmt.Errorf("tags: iteration %v has tag %s but sits in group %s", p, t, g.Tag)
			}
		}
	}
	if total != len(allIters) {
		return fmt.Errorf("tags: groups cover %d iterations, space has %d", total, len(allIters))
	}
	for _, p := range allIters {
		if _, ok := seen[p.String()]; !ok {
			return fmt.Errorf("tags: iteration %v not covered by any group", p)
		}
	}
	return nil
}

// SortGroupsBySize orders a copy of the groups by descending size (ties by
// ID for determinism) — handy for load-balancing heuristics and reporting.
func SortGroupsBySize(groups []*Group) []*Group {
	out := append([]*Group(nil), groups...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Size() != out[j].Size() {
			return out[i].Size() > out[j].Size()
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Coarsen reduces the number of groups to at most limit by repeatedly
// merging each group with its best-matching neighbour (maximum tag dot
// product within a small look-ahead window, falling back to the next group
// in ID order). Groups adjacent in first-appearance order come from
// program-adjacent iterations and usually share blocks, so this works like
// locally enlarging the data block size: it trades clustering granularity
// for compile time, the Fig 16 trade-off. The result preserves the §3.3
// invariants except tag exactness: a merged group's tag is the OR of its
// members' (every member touches a subset).
func Coarsen(tg *Tagging, limit int) *Tagging {
	if limit <= 0 || len(tg.Groups) <= limit {
		return tg
	}
	groups := append([]*Group(nil), tg.Groups...)
	const window = 8
	for len(groups) > limit {
		next := make([]*Group, 0, (len(groups)+1)/2)
		used := make([]bool, len(groups))
		for i := range groups {
			if used[i] {
				continue
			}
			used[i] = true
			// Find the best unmerged partner within the window.
			best, bestDot := -1, -1
			for j := i + 1; j < len(groups) && j <= i+window; j++ {
				if used[j] {
					continue
				}
				if d := groups[i].Tag.Dot(groups[j].Tag); d > bestDot {
					best, bestDot = j, d
				}
			}
			if best < 0 {
				next = append(next, groups[i])
				continue
			}
			used[best] = true
			merged := &Group{
				Tag:   groups[i].Tag.Or(groups[best].Tag),
				Iters: append(append([]poly.Point(nil), groups[i].Iters...), groups[best].Iters...),
			}
			sort.Slice(merged.Iters, func(a, b int) bool { return merged.Iters[a].Less(merged.Iters[b]) })
			next = append(next, merged)
		}
		if len(next) == len(groups) {
			break // nothing mergeable
		}
		groups = next
	}
	for i, g := range groups {
		g.ID = i
	}
	return &Tagging{
		Groups:     groups,
		Layout:     tg.Layout,
		Refs:       tg.Refs,
		NumBlocks:  tg.NumBlocks,
		TotalIters: tg.TotalIters,
	}
}

// SelectBlockSize implements the §4.1 heuristic: pick the largest
// power-of-two block size such that the data footprint of the most
// aggressive iteration group (bounded by maxBlocksPerIter blocks, e.g. the
// reference count of the loop body) does not exceed the L1 capacity. The
// result is clamped to [minBlock, maxBlock]; the paper's default outcome is
// 2 KB.
func SelectBlockSize(l1Bytes int64, maxBlocksPerIter int, minBlock, maxBlock int64) int64 {
	if maxBlocksPerIter < 1 {
		maxBlocksPerIter = 1
	}
	if minBlock <= 0 {
		minBlock = 256
	}
	if maxBlock < minBlock {
		maxBlock = minBlock
	}
	limit := l1Bytes / int64(maxBlocksPerIter)
	size := minBlock
	for size*2 <= limit && size*2 <= maxBlock {
		size *= 2
	}
	return size
}
