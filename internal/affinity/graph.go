package affinity

import "fmt"

// Digraph is a directed graph over group indices, used for dependences.
// Edge u→v means v depends on u: u must be scheduled no later than v.
type Digraph struct {
	n    int
	succ [][]int
	pred [][]int
	has  map[[2]int]bool
}

// NewDigraph creates an empty digraph over n vertices.
func NewDigraph(n int) *Digraph {
	return &Digraph{
		n:    n,
		succ: make([][]int, n),
		pred: make([][]int, n),
		has:  make(map[[2]int]bool),
	}
}

// N returns the number of vertices.
func (d *Digraph) N() int { return d.n }

// AddEdge inserts u→v once; self-loops are ignored.
func (d *Digraph) AddEdge(u, v int) {
	if u == v {
		return
	}
	k := [2]int{u, v}
	if d.has[k] {
		return
	}
	d.has[k] = true
	d.succ[u] = append(d.succ[u], v)
	d.pred[v] = append(d.pred[v], u)
}

// HasEdge reports whether u→v exists.
func (d *Digraph) HasEdge(u, v int) bool { return d.has[[2]int{u, v}] }

// Succ returns the successors of u (vertices depending on u).
func (d *Digraph) Succ(u int) []int { return d.succ[u] }

// Pred returns the predecessors of u (vertices u depends on).
func (d *Digraph) Pred(u int) []int { return d.pred[u] }

// NumEdges returns the edge count.
func (d *Digraph) NumEdges() int { return len(d.has) }

// SCC computes strongly connected components with Tarjan's algorithm,
// returning for each vertex its component index; components are numbered in
// reverse topological order of the condensation (standard Tarjan property),
// so comp[u] >= comp[v] whenever u→v crosses components.
func (d *Digraph) SCC() (comp []int, numComp int) {
	const unvisited = -1
	n := d.n
	comp = make([]int, n)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int
	next := 0

	// Iterative Tarjan to survive deep graphs.
	type frame struct {
		v, childIdx int
	}
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames := []frame{{v: root}}
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.childIdx == 0 {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.childIdx < len(d.succ[v]) {
				w := d.succ[v][f.childIdx]
				f.childIdx++
				if index[w] == unvisited {
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// Post-visit: fold low into parent, pop component roots.
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = numComp
					if w == v {
						break
					}
				}
				numComp++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return comp, numComp
}

// Condense builds the DAG of SCCs: vertex i of the result is component i of
// d, with an edge for every cross-component dependence.
func (d *Digraph) Condense() (dag *Digraph, comp []int, numComp int) {
	comp, numComp = d.SCC()
	dag = NewDigraph(numComp)
	// Walk succ lists (stable insertion order), not the edge map, so the
	// condensation's adjacency order — and everything scheduled from it —
	// is deterministic.
	for u := 0; u < d.n; u++ {
		for _, v := range d.succ[u] {
			cu, cv := comp[u], comp[v]
			if cu != cv {
				dag.AddEdge(cu, cv)
			}
		}
	}
	return dag, comp, numComp
}

// TopoOrder returns a topological order of the digraph, or an error naming
// a vertex on a cycle. Kahn's algorithm; ties broken by vertex index for
// determinism.
func (d *Digraph) TopoOrder() ([]int, error) {
	indeg := make([]int, d.n)
	for v := 0; v < d.n; v++ {
		indeg[v] = len(d.pred[v])
	}
	var ready []int
	for v := 0; v < d.n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	var order []int
	for len(ready) > 0 {
		// Pop the smallest ready vertex (deterministic).
		best := 0
		for i := 1; i < len(ready); i++ {
			if ready[i] < ready[best] {
				best = i
			}
		}
		v := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		order = append(order, v)
		for _, w := range d.succ[v] {
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	if len(order) != d.n {
		for v := 0; v < d.n; v++ {
			if indeg[v] > 0 {
				return nil, fmt.Errorf("affinity: vertex %d is on a dependence cycle", v)
			}
		}
	}
	return order, nil
}

// IsAcyclic reports whether the digraph has no cycles.
func (d *Digraph) IsAcyclic() bool {
	_, err := d.TopoOrder()
	return err == nil
}
