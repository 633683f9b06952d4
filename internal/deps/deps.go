package deps

import (
	"sort"

	"repro/internal/affinity"
	"repro/internal/poly"
	"repro/internal/tags"
)

// Kind classifies a dependence.
type Kind int

const (
	// Flow is a true (read-after-write) dependence.
	Flow Kind = iota
	// Anti is a write-after-read dependence.
	Anti
	// Output is a write-after-write dependence.
	Output
)

// String names the dependence kind.
func (k Kind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	default:
		return "unknown"
	}
}

// Dep records one iteration-level loop-carried dependence: Dst must execute
// after Src.
type Dep struct {
	Src, Dst poly.Point
	Kind     Kind
}

// elemState tracks, per data element, the last writing group and the groups
// that have read it since, as the analysis sweeps iterations in program
// order.
type elemState struct {
	lastWriter   int // group id, -1 if none yet
	readersSince []int
}

// Analyze sweeps the iterations in program order and builds the group
// dependence graph: an edge g→h when some iteration of h depends (flow,
// anti or output) on some iteration of g. Edges within a group are not
// added to the graph — a group executes on one core in program order, which
// satisfies them — but groups with such internal dependences are flagged in
// selfDep, because load balancing may later split them and their pieces
// must then stay ordered.
//
// iters must be the same slice (and order) the tagging was computed from,
// in lexicographic (program) order as Nest.Points returns it: groups are
// mapped back onto iters by binary search.
func Analyze(iters []poly.Point, tg *tags.Tagging) (dg *affinity.Digraph, selfDep []bool) {
	groupOf := groupIndex(iters, tg)
	dg = affinity.NewDigraph(len(tg.Groups))
	selfDep = make([]bool, len(tg.Groups))
	state := make(map[int64]*elemState)
	for idx, p := range iters {
		g := groupOf[idx]
		for _, r := range tg.Refs {
			addr := tg.Layout.AddrOf(r, p)
			st, ok := state[addr]
			if !ok {
				st = &elemState{lastWriter: -1}
				state[addr] = st
			}
			if r.Kind.Reads() {
				if st.lastWriter >= 0 {
					if st.lastWriter != g {
						dg.AddEdge(st.lastWriter, g) // flow
					} else {
						selfDep[g] = true
					}
				}
				st.readersSince = appendUnique(st.readersSince, g)
			}
			if r.Kind.Writes() {
				if st.lastWriter >= 0 {
					if st.lastWriter != g {
						dg.AddEdge(st.lastWriter, g) // output
					} else {
						selfDep[g] = true
					}
				}
				for _, rd := range st.readersSince {
					if rd != g {
						dg.AddEdge(rd, g) // anti
					} else {
						selfDep[g] = true
					}
				}
				st.lastWriter = g
				st.readersSince = st.readersSince[:0]
			}
		}
	}
	return dg, selfDep
}

// IterationDeps lists iteration-level loop-carried dependences (for tests,
// reporting and schedule validation). It caps the result at limit entries
// (0 = unlimited) since dense kernels can carry very many.
func IterationDeps(iters []poly.Point, refs []*poly.Ref, layout *poly.Layout, limit int) []Dep {
	type access struct {
		iter  int
		write bool
		read  bool
	}
	var out []Dep
	last := make(map[int64][]access)
	for idx, p := range iters {
		for _, r := range refs {
			addr := layout.AddrOf(r, p)
			cur := access{iter: idx, write: r.Kind.Writes(), read: r.Kind.Reads()}
			hist := last[addr]
			for i := len(hist) - 1; i >= 0; i-- {
				prev := hist[i]
				if prev.iter == idx {
					continue
				}
				var k Kind
				switch {
				case prev.write && cur.read:
					k = Flow
				case prev.write && cur.write:
					k = Output
				case prev.read && cur.write:
					k = Anti
				default:
					continue
				}
				out = append(out, Dep{Src: iters[prev.iter].Clone(), Dst: p.Clone(), Kind: k})
				if limit > 0 && len(out) >= limit {
					return out
				}
				break // nearest conflicting access suffices
			}
			last[addr] = append(hist, cur)
		}
	}
	return out
}

// HasLoopCarried reports whether the nest has any loop-carried dependence —
// the fully-parallel test of §3.1 (the paper reports only 14% of parallel
// loops carry dependences).
func HasLoopCarried(iters []poly.Point, refs []*poly.Ref, layout *poly.Layout) bool {
	return len(IterationDeps(iters, refs, layout, 1)) > 0
}

// CollapseCycles merges the groups of every dependence cycle into a single
// group (concatenating iterations in program order and OR-ing tags), and
// returns the new group list, the acyclic group dependence DAG over it, and
// the merged self-dependence flags (a merged group has internal dependences
// when any member had, or when the cycle itself had >1 member — its edges
// become internal). When dg is already acyclic the original groups are
// returned unchanged.
func CollapseCycles(groups []*tags.Group, dg *affinity.Digraph, selfDep []bool) ([]*tags.Group, *affinity.Digraph, []bool) {
	dag, comp, numComp := dg.Condense()
	if numComp == len(groups) {
		return groups, dg, selfDep // every group its own SCC: already acyclic
	}
	merged := make([]*tags.Group, numComp)
	mergedSelf := make([]bool, numComp)
	members := make([]int, numComp)
	for i, g := range groups {
		c := comp[i]
		if merged[c] == nil {
			merged[c] = &tags.Group{ID: c, Tag: g.Tag.Clone()}
		} else {
			merged[c].Tag.OrInPlace(g.Tag)
		}
		merged[c].Iters = append(merged[c].Iters, g.Iters...)
		members[c]++
		if selfDep != nil && selfDep[i] {
			mergedSelf[c] = true
		}
	}
	for c, g := range merged {
		sortPoints(g.Iters)
		if members[c] > 1 {
			mergedSelf[c] = true
		}
	}
	return merged, dag, mergedSelf
}

// groupIndex maps each iteration (by its index in iters) to its group id.
// iters must be in lexicographic order; group members missing from iters
// are ignored.
func groupIndex(iters []poly.Point, tg *tags.Tagging) []int {
	out := make([]int, len(iters))
	for gi, g := range tg.Groups {
		for _, p := range g.Iters {
			i := sort.Search(len(iters), func(i int) bool { return !iters[i].Less(p) })
			if i < len(iters) && iters[i].Equal(p) {
				out[i] = gi
			}
		}
	}
	return out
}

// appendUnique appends v if not present (lists stay tiny: readers between
// two writes of one element).
func appendUnique(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// sortPoints orders points lexicographically (program order).
func sortPoints(ps []poly.Point) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Less(ps[j]) })
}
