package affinity

import (
	"testing"
	"testing/quick"
)

func TestDigraphEdges(t *testing.T) {
	d := NewDigraph(3)
	d.AddEdge(0, 1)
	d.AddEdge(0, 1) // dedup
	d.AddEdge(1, 2)
	d.AddEdge(2, 2) // self-loop ignored
	if d.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", d.NumEdges())
	}
	if !d.HasEdge(0, 1) || d.HasEdge(1, 0) {
		t.Fatal("HasEdge wrong")
	}
	if len(d.Succ(0)) != 1 || len(d.Pred(1)) != 1 {
		t.Fatal("adjacency wrong")
	}
}

func TestTopoOrder(t *testing.T) {
	d := NewDigraph(4)
	d.AddEdge(2, 0)
	d.AddEdge(0, 1)
	d.AddEdge(1, 3)
	order, err := d.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, 4)
	for i, v := range order {
		pos[v] = i
	}
	if pos[2] > pos[0] || pos[0] > pos[1] || pos[1] > pos[3] {
		t.Fatalf("bad topo order %v", order)
	}
	if !d.IsAcyclic() {
		t.Fatal("DAG reported cyclic")
	}
}

func TestTopoOrderCycle(t *testing.T) {
	d := NewDigraph(3)
	d.AddEdge(0, 1)
	d.AddEdge(1, 2)
	d.AddEdge(2, 0)
	if _, err := d.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
	if d.IsAcyclic() {
		t.Fatal("cycle reported acyclic")
	}
}

func TestSCCKnownGraph(t *testing.T) {
	// 0 <-> 1 form a cycle; 2 alone; 1 -> 2.
	d := NewDigraph(3)
	d.AddEdge(0, 1)
	d.AddEdge(1, 0)
	d.AddEdge(1, 2)
	comp, n := d.SCC()
	if n != 2 {
		t.Fatalf("SCC count = %d, want 2", n)
	}
	if comp[0] != comp[1] {
		t.Fatal("cycle members in different components")
	}
	if comp[2] == comp[0] {
		t.Fatal("independent vertex merged into the cycle")
	}
}

func TestCondense(t *testing.T) {
	d := NewDigraph(4)
	d.AddEdge(0, 1)
	d.AddEdge(1, 0) // SCC {0,1}
	d.AddEdge(1, 2)
	d.AddEdge(2, 3)
	dag, comp, n := d.Condense()
	if n != 3 {
		t.Fatalf("components = %d, want 3", n)
	}
	if !dag.IsAcyclic() {
		t.Fatal("condensation not acyclic")
	}
	if !dag.HasEdge(comp[1], comp[2]) || !dag.HasEdge(comp[2], comp[3]) {
		t.Fatal("condensation lost edges")
	}
}

func TestSCCCondensationAcyclicProperty(t *testing.T) {
	f := func(edges []uint16) bool {
		const n = 12
		d := NewDigraph(n)
		for _, e := range edges {
			d.AddEdge(int(e)%n, int(e>>8)%n)
		}
		dag, _, _ := d.Condense()
		return dag.IsAcyclic()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSCCDeepChain(t *testing.T) {
	// The iterative Tarjan must survive a long chain without stack overflow.
	const n = 50000
	d := NewDigraph(n)
	for i := 0; i < n-1; i++ {
		d.AddEdge(i, i+1)
	}
	_, numComp := d.SCC()
	if numComp != n {
		t.Fatalf("chain SCC count = %d, want %d", numComp, n)
	}
}
