package deps

import (
	"testing"

	"repro/internal/poly"
	"repro/internal/tags"
	"repro/internal/workloads"
)

// wavefrontSetup builds a 1-D loop A[j] = f(A[j-dist]) with block-sized
// groups, returning everything the analyses need.
func wavefrontSetup(n, dist, blockElems int64) ([]poly.Point, []*poly.Ref, *poly.Layout, *tags.Tagging) {
	a := poly.NewArray("A", n)
	nest := poly.NewNest(poly.RectLoop("j", dist, n-1))
	refs := []*poly.Ref{
		poly.NewRef(a, poly.Read, poly.Var(0, 1).AddConst(-dist)),
		poly.NewRef(a, poly.Write, poly.Var(0, 1)),
	}
	layout := poly.NewLayout(blockElems*8, a)
	iters := nest.Points()
	return iters, refs, layout, tags.Compute(iters, refs, layout)
}

// parallelSetup builds a fully parallel loop B[j] = A[j] + A[j+1].
func parallelSetup(n int64) ([]poly.Point, []*poly.Ref, *poly.Layout, *tags.Tagging) {
	a := poly.NewArray("A", n+1)
	b := poly.NewArray("B", n)
	nest := poly.NewNest(poly.RectLoop("j", 0, n-1))
	refs := []*poly.Ref{
		poly.NewRef(a, poly.Read, poly.Var(0, 1)),
		poly.NewRef(a, poly.Read, poly.Var(0, 1).AddConst(1)),
		poly.NewRef(b, poly.Write, poly.Var(0, 1)),
	}
	layout := poly.NewLayout(256, a, b)
	iters := nest.Points()
	return iters, refs, layout, tags.Compute(iters, refs, layout)
}

func TestAnalyzeFullyParallel(t *testing.T) {
	iters, refs, layout, tg := parallelSetup(256)
	dg, selfDep := Analyze(iters, tg)
	if dg.NumEdges() != 0 {
		t.Fatalf("parallel loop has %d group dep edges", dg.NumEdges())
	}
	for i, s := range selfDep {
		if s {
			t.Fatalf("parallel loop group %d flagged selfDep", i)
		}
	}
	if HasLoopCarried(iters, refs, layout) {
		t.Fatal("parallel loop flagged as carrying dependences")
	}
}

func TestAnalyzeWavefront(t *testing.T) {
	iters, refs, layout, tg := wavefrontSetup(1024, 256, 32)
	dg, _ := Analyze(iters, tg)
	if dg.NumEdges() == 0 {
		t.Fatal("wavefront has no group dependences")
	}
	if !HasLoopCarried(iters, refs, layout) {
		t.Fatal("wavefront not flagged as carrying dependences")
	}
	// Flow direction: the group writing block b precedes the group
	// reading it; the reader comes later in program order, so edges go
	// from earlier groups to later ones here.
	for u := 0; u < dg.N(); u++ {
		for _, v := range dg.Succ(u) {
			// group IDs are first-appearance ordered: u wrote earlier.
			if u >= v {
				t.Fatalf("edge %d -> %d against program order", u, v)
			}
		}
	}
}

func TestSelfDepDetection(t *testing.T) {
	// dist smaller than a block: writer and reader in the same group.
	iters, _, _, tg := wavefrontSetup(1024, 8, 64)
	_, selfDep := Analyze(iters, tg)
	any := false
	for _, s := range selfDep {
		any = any || s
	}
	if !any {
		t.Fatal("intra-block dependences not flagged as selfDep")
	}
}

func TestIterationDepsKinds(t *testing.T) {
	// A[j] = A[j-1]: flow (j-1 writes, j reads) and anti (j reads j, j+1
	// writes j... actually read A[j-1] then write A[j]).
	a := poly.NewArray("A", 64)
	nest := poly.NewNest(poly.RectLoop("j", 1, 63))
	refs := []*poly.Ref{
		poly.NewRef(a, poly.Read, poly.Var(0, 1).AddConst(-1)),
		poly.NewRef(a, poly.Write, poly.Var(0, 1)),
	}
	layout := poly.NewLayout(512, a)
	deps := IterationDeps(nest.Points(), refs, layout, 0)
	if len(deps) == 0 {
		t.Fatal("no deps found")
	}
	kinds := map[Kind]bool{}
	for _, d := range deps {
		kinds[d.Kind] = true
		if !d.Src.Less(d.Dst) {
			t.Fatalf("dep %v -> %v against program order", d.Src, d.Dst)
		}
	}
	if !kinds[Flow] {
		t.Fatal("flow dependence not detected")
	}
}

func TestIterationDepsAntiOutput(t *testing.T) {
	// Anti: iteration j reads A[j+1], iteration j+1 writes A[j+1].
	a := poly.NewArray("A", 64)
	nest := poly.NewNest(poly.RectLoop("j", 0, 62))
	refs := []*poly.Ref{
		poly.NewRef(a, poly.Read, poly.Var(0, 1).AddConst(1)),
		poly.NewRef(a, poly.Write, poly.Var(0, 1)),
	}
	layout := poly.NewLayout(512, a)
	deps := IterationDeps(nest.Points(), refs, layout, 0)
	hasAnti := false
	for _, d := range deps {
		if d.Kind == Anti {
			hasAnti = true
		}
	}
	if !hasAnti {
		t.Fatal("anti dependence not detected")
	}

	// Output: two writes to the same element from different iterations.
	refs2 := []*poly.Ref{
		poly.NewRef(a, poly.Write, poly.Var(0, 1).Scale(0)), // A[0] every iteration
	}
	deps2 := IterationDeps(nest.Points(), refs2, layout, 0)
	hasOutput := false
	for _, d := range deps2 {
		if d.Kind == Output {
			hasOutput = true
		}
	}
	if !hasOutput {
		t.Fatal("output dependence not detected")
	}
}

func TestIterationDepsLimit(t *testing.T) {
	iters, refs, layout, _ := wavefrontSetup(1024, 256, 32)
	deps := IterationDeps(iters, refs, layout, 5)
	if len(deps) != 5 {
		t.Fatalf("limit ignored: %d deps", len(deps))
	}
}

func TestCollapseCyclesNoOp(t *testing.T) {
	iters, _, _, tg := wavefrontSetup(1024, 256, 32)
	dg, selfDep := Analyze(iters, tg)
	if !dg.IsAcyclic() {
		t.Skip("wavefront group graph unexpectedly cyclic")
	}
	groups, dag, self2 := CollapseCycles(tg.Groups, dg, selfDep)
	if len(groups) != len(tg.Groups) {
		t.Fatal("acyclic graph should collapse to itself")
	}
	if dag != dg {
		t.Fatal("acyclic collapse should return the original graph")
	}
	_ = self2
}

func TestCollapseCyclesMerges(t *testing.T) {
	// Build a cyclic group graph: iteration (i, j) reads B[j] and writes
	// A[0]. B's two 32-element blocks split the iterations into a j < 32
	// and a j >= 32 group, and every iteration writes the same element, so
	// program order runs group 0 → group 1 in pass i = 0 and back to group
	// 0 in pass i = 1.
	a := poly.NewArray("A", 64)
	b := poly.NewArray("B", 64)
	nest := poly.NewNest(poly.RectLoop("i", 0, 1), poly.RectLoop("j", 0, 63))
	refs := []*poly.Ref{
		poly.NewRef(b, poly.Read, poly.Var(1, 2)),
		poly.NewRef(a, poly.Write, poly.NewExpr([]int64{0, 0}, 0)),
	}
	layout := poly.NewLayout(256, a, b) // 32-element blocks
	iters := nest.Points()
	tg := tags.Compute(iters, refs, layout)
	dg, selfDep := Analyze(iters, tg)
	if dg.IsAcyclic() {
		t.Fatalf("group graph of %d groups is acyclic; the test needs a cycle", len(tg.Groups))
	}
	groups, dag, self := CollapseCycles(tg.Groups, dg, selfDep)
	if len(groups) >= len(tg.Groups) {
		t.Fatal("cycle not collapsed")
	}
	if !dag.IsAcyclic() {
		t.Fatal("collapsed graph still cyclic")
	}
	// The merged group must cover all iterations of its members, sorted.
	total := 0
	for _, g := range groups {
		total += g.Size()
		for i := 1; i < len(g.Iters); i++ {
			if !g.Iters[i-1].Less(g.Iters[i]) {
				t.Fatal("merged iterations not in program order")
			}
		}
	}
	if total != len(iters) {
		t.Fatalf("collapse lost iterations: %d of %d", total, len(iters))
	}
	// A multi-member SCC must be flagged self-dependent.
	anySelf := false
	for _, s := range self {
		anySelf = anySelf || s
	}
	if !anySelf {
		t.Fatal("merged cycle not flagged selfDep")
	}
}

// TestGroupIndexMatchesStringKeyed checks the binary-search group index
// against a map keyed by each point's string form, on a 1-D wavefront and
// on multi-dimensional Table 2 kernels before and after coarsening (which
// interleaves the members of merged groups).
func TestGroupIndexMatchesStringKeyed(t *testing.T) {
	type indexCase struct {
		iters []poly.Point
		tg    *tags.Tagging
	}
	iters, _, _, wave := wavefrontSetup(1024, 256, 32)
	cases := map[string]indexCase{"wavefront": {iters, wave}}
	for _, name := range []string{"applu", "sp", "h264"} {
		k, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		iters := k.Nest.Points()
		tg := tags.Compute(iters, k.Refs, k.Layout(2048))
		cases[name] = indexCase{iters, tg}
		cases[name+"/coarse"] = indexCase{iters, tags.Coarsen(tg, 16)}
	}
	for name, c := range cases {
		pos := make(map[string]int, len(c.iters))
		for i, p := range c.iters {
			pos[p.String()] = i
		}
		want := make([]int, len(c.iters))
		for gi, g := range c.tg.Groups {
			for _, p := range g.Iters {
				want[pos[p.String()]] = gi
			}
		}
		got := groupIndex(c.iters, c.tg)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: iteration %v in group %d, want %d", name, c.iters[i], got[i], want[i])
			}
		}
	}
}
