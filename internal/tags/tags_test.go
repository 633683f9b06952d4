package tags

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/poly"
	"repro/internal/workloads"
)

func TestTagBasics(t *testing.T) {
	tag := NewTag(130) // cross word boundaries
	if tag.Width() != 130 || !tag.IsZero() {
		t.Fatal("fresh tag wrong")
	}
	tag.Set(0)
	tag.Set(64)
	tag.Set(129)
	if !tag.Get(0) || !tag.Get(64) || !tag.Get(129) || tag.Get(1) {
		t.Fatal("Set/Get wrong")
	}
	if tag.Ones() != 3 {
		t.Fatalf("Ones = %d", tag.Ones())
	}
	tag.Clear(64)
	if tag.Get(64) || tag.Ones() != 2 {
		t.Fatal("Clear wrong")
	}
	blocks := tag.Blocks()
	if len(blocks) != 2 || blocks[0] != 0 || blocks[1] != 129 {
		t.Fatalf("Blocks = %v", blocks)
	}
}

func TestTagOutOfRangePanics(t *testing.T) {
	tag := NewTag(8)
	defer func() {
		if recover() == nil {
			t.Fatal("Set(8) on width-8 tag should panic")
		}
	}()
	tag.Set(8)
}

func TestTagWidthMismatchPanics(t *testing.T) {
	a, b := NewTag(8), NewTag(16)
	defer func() {
		if recover() == nil {
			t.Fatal("Dot across widths should panic")
		}
	}()
	a.Dot(b)
}

func TestTagDotPaperSemantics(t *testing.T) {
	// The paper's example: θ1100 and θ1000 share one block.
	a := FromBits("1100")
	b := FromBits("1000")
	if a.Dot(b) != 1 {
		t.Fatalf("Dot(1100,1000) = %d, want 1", a.Dot(b))
	}
	if a.Dot(a) != 2 {
		t.Fatalf("Dot(1100,1100) = %d, want 2", a.Dot(a))
	}
	c := FromBits("0011")
	if a.Dot(c) != 0 {
		t.Fatalf("disjoint tags Dot = %d", a.Dot(c))
	}
}

func TestTagOrHamming(t *testing.T) {
	a := FromBits("1100")
	b := FromBits("0110")
	or := a.Or(b)
	if or.String() != "1110" {
		t.Fatalf("Or = %s", or)
	}
	if a.Hamming(b) != 2 {
		t.Fatalf("Hamming = %d", a.Hamming(b))
	}
	// Or must not mutate operands.
	if a.String() != "1100" || b.String() != "0110" {
		t.Fatal("Or mutated operands")
	}
	a.OrInPlace(b)
	if a.String() != "1110" {
		t.Fatalf("OrInPlace = %s", a)
	}
}

func TestTagEqual(t *testing.T) {
	a, b := FromBits("1010"), FromBits("1010")
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("equal tags should compare equal")
	}
	c := FromBits("1011")
	if a.Equal(c) || c.Equal(a) {
		t.Fatal("different tags should differ")
	}
	if a.Equal(NewTag(5)) {
		t.Fatal("different widths never equal")
	}
}

func TestTagPropertyDotBounded(t *testing.T) {
	f := func(x, y uint64) bool {
		a, b := NewTag(64), NewTag(64)
		for i := 0; i < 64; i++ {
			if x&(1<<i) != 0 {
				a.Set(i)
			}
			if y&(1<<i) != 0 {
				b.Set(i)
			}
		}
		d := a.Dot(b)
		return d <= a.Ones() && d <= b.Ones() && d == b.Dot(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTagPropertyHammingIdentity(t *testing.T) {
	// |a^b| = |a| + |b| - 2*dot(a,b).
	f := func(x, y uint64) bool {
		a, b := NewTag(64), NewTag(64)
		for i := 0; i < 64; i++ {
			if x&(1<<i) != 0 {
				a.Set(i)
			}
			if y&(1<<i) != 0 {
				b.Set(i)
			}
		}
		return a.Hamming(b) == a.Ones()+b.Ones()-2*a.Dot(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// fig5Tagging builds the paper's §3.5.4 example: a 1-D loop over B with
// references B[j], B[j+2k], B[j-2k], twelve k-element blocks.
func fig5Tagging(k int64) *Tagging {
	m := 12 * k
	b := poly.NewArray("B", m)
	nest := poly.NewNest(poly.RectLoop("j", 2*k, m-2*k-1))
	refs := []*poly.Ref{
		poly.NewRef(b, poly.Read, poly.Var(0, 1)),
		poly.NewRef(b, poly.Read, poly.Var(0, 1).AddConst(2*k)),
		poly.NewRef(b, poly.Read, poly.Var(0, 1).AddConst(-2*k)),
	}
	layout := poly.NewLayout(k*8, b) // blocks of k 8-byte elements
	return ComputeNest(nest, refs, layout)
}

// TestFig10GroupsMatchPaper checks the exact iteration groups of the
// paper's Figure 10(a): eight groups of k iterations with the tags
// 101010000000, 010101000000, ..., 000000010101.
func TestFig10GroupsMatchPaper(t *testing.T) {
	const k = 32
	tg := fig5Tagging(k)
	want := []string{
		"101010000000",
		"010101000000",
		"001010100000",
		"000101010000",
		"000010101000",
		"000001010100",
		"000000101010",
		"000000010101",
	}
	if len(tg.Groups) != len(want) {
		t.Fatalf("got %d groups, want 8", len(tg.Groups))
	}
	for i, g := range tg.Groups {
		if g.Tag.String() != want[i] {
			t.Errorf("group %d tag = %s, want %s", i, g.Tag, want[i])
		}
		if g.Size() != k {
			t.Errorf("group %d size = %d, want %d", i, g.Size(), k)
		}
	}
	if tg.NumBlocks != 12 {
		t.Fatalf("NumBlocks = %d, want 12", tg.NumBlocks)
	}
}

func TestTaggingInvariants(t *testing.T) {
	tg := fig5Tagging(16)
	all := make([]poly.Point, 0)
	for _, g := range tg.Groups {
		all = append(all, g.Iters...)
	}
	// Reconstruct the nest to validate coverage.
	nest := poly.NewNest(poly.RectLoop("j", 32, 12*16-32-1))
	if err := tg.Validate(nest.Points()); err != nil {
		t.Fatal(err)
	}
	if tg.TotalIters != len(all) {
		t.Fatalf("TotalIters = %d, members = %d", tg.TotalIters, len(all))
	}
}

func TestGroupOf(t *testing.T) {
	tg := fig5Tagging(16)
	p := poly.Pt(40) // j=40: second j-block region
	g := tg.GroupOf(p)
	if g == nil {
		t.Fatal("GroupOf returned nil for covered iteration")
	}
	found := false
	for _, q := range g.Iters {
		if q.Equal(p) {
			found = true
		}
	}
	if !found {
		t.Fatal("GroupOf returned a group not containing the point")
	}
}

func TestSplitGroup(t *testing.T) {
	tg := fig5Tagging(16)
	g := tg.Groups[0]
	a, b := SplitGroup(g, 5, 100, 101)
	if a.Size() != 5 || b.Size() != g.Size()-5 {
		t.Fatalf("split sizes %d/%d", a.Size(), b.Size())
	}
	if a.ID != 100 || b.ID != 101 {
		t.Fatal("split ids wrong")
	}
	if !a.Tag.Equal(g.Tag) || !b.Tag.Equal(g.Tag) {
		t.Fatal("split pieces must inherit the tag")
	}
	// Pieces preserve program order.
	if !a.Iters[len(a.Iters)-1].Less(b.Iters[0]) {
		t.Fatal("split pieces out of order")
	}
}

func TestSplitGroupPanics(t *testing.T) {
	tg := fig5Tagging(16)
	defer func() {
		if recover() == nil {
			t.Fatal("SplitGroup(0) should panic")
		}
	}()
	SplitGroup(tg.Groups[0], 0, 1, 2)
}

func TestCoarsen(t *testing.T) {
	tg := fig5Tagging(32)
	limit := 3
	c := Coarsen(tg, limit)
	if len(c.Groups) > limit {
		t.Fatalf("Coarsen left %d groups, limit %d", len(c.Groups), limit)
	}
	// Iterations preserved.
	total := 0
	for _, g := range c.Groups {
		total += g.Size()
	}
	if total != tg.TotalIters {
		t.Fatalf("Coarsen lost iterations: %d of %d", total, tg.TotalIters)
	}
	// IDs dense.
	for i, g := range c.Groups {
		if g.ID != i {
			t.Fatalf("group %d has ID %d", i, g.ID)
		}
	}
	// No-op cases.
	if got := Coarsen(tg, 0); got != tg {
		t.Fatal("limit 0 should be a no-op")
	}
	if got := Coarsen(tg, 100); got != tg {
		t.Fatal("limit above count should be a no-op")
	}
}

func TestCoarsenMergesNeighborsBySharing(t *testing.T) {
	tg := fig5Tagging(32)
	c := Coarsen(tg, 4)
	// Merged tags must be supersets (ORs) of member activity: every
	// iteration's own tag is a subset of its coarse group's tag.
	for _, g := range c.Groups {
		for _, p := range g.Iters {
			fine := TagOf(p, tg.Refs, tg.Layout, tg.NumBlocks)
			if fine.Dot(g.Tag) != fine.Ones() {
				t.Fatalf("iteration %v tag %s not covered by coarse tag %s", p, fine, g.Tag)
			}
		}
	}
}

func TestSortGroupsBySize(t *testing.T) {
	tg := fig5Tagging(16)
	a, _ := SplitGroup(tg.Groups[0], 3, 50, 51)
	groups := append([]*Group{a}, tg.Groups...)
	sorted := SortGroupsBySize(groups)
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Size() > sorted[i-1].Size() {
			t.Fatal("not sorted by size desc")
		}
	}
}

func TestSelectBlockSize(t *testing.T) {
	// 32KB L1, 4 blocks per iteration -> at most 8KB blocks.
	got := SelectBlockSize(32<<10, 4, 256, 8192)
	if got != 8192 {
		t.Fatalf("SelectBlockSize = %d, want 8192", got)
	}
	// 16 blocks per iteration -> 2KB, the paper's default outcome.
	got = SelectBlockSize(32<<10, 16, 256, 8192)
	if got != 2048 {
		t.Fatalf("SelectBlockSize = %d, want 2048", got)
	}
	// Degenerate inputs clamp to the floor.
	got = SelectBlockSize(1024, 64, 256, 8192)
	if got != 256 {
		t.Fatalf("SelectBlockSize floor = %d", got)
	}
}

// naiveGroups is the reference grouping: one fresh tag per iteration, keyed
// by its string form, groups in first-appearance order.
func naiveGroups(iters []poly.Point, refs []*poly.Ref, layout *poly.Layout) []*Group {
	byKey := make(map[string]*Group)
	var groups []*Group
	for _, p := range iters {
		tag := TagOf(p, refs, layout, layout.NumBlocks())
		g, ok := byKey[tag.String()]
		if !ok {
			g = &Group{ID: len(groups), Tag: tag}
			byKey[tag.String()] = g
			groups = append(groups, g)
		}
		g.Iters = append(g.Iters, p)
	}
	return groups
}

// sameGroups reports the first difference between two groupings.
func sameGroups(want, got []*Group) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.ID != w.ID || !g.Tag.Equal(w.Tag) || g.Size() != w.Size() {
			return fmt.Errorf("group %d = %d %s{%d}, want %d %s{%d}", i, g.ID, g.Tag, g.Size(), w.ID, w.Tag, w.Size())
		}
		for j, p := range w.Iters {
			if !g.Iters[j].Equal(p) {
				return fmt.Errorf("group %d iteration %d = %v, want %v", i, j, g.Iters[j], p)
			}
		}
	}
	return nil
}

// groupingCase is one iteration list to group.
type groupingCase struct {
	name   string
	iters  []poly.Point
	refs   []*poly.Ref
	layout *poly.Layout
}

// groupingCases are taggings with one-word and multi-word tags: the paper's
// Fig 5 example and small Table 2 kernels at two block sizes.
func groupingCases(t *testing.T) []groupingCase {
	t.Helper()
	fig5 := fig5Tagging(16)
	cases := []groupingCase{{"fig5", poly.NewNest(poly.RectLoop("j", 32, 12*16-32-1)).Points(), fig5.Refs, fig5.Layout}}
	for _, name := range []string{"galgel", "cg", "mesa"} {
		k, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, bb := range []int64{256, 2048} {
			cases = append(cases, groupingCase{fmt.Sprintf("%s/%dB", name, bb), k.Nest.Points(), k.Refs, k.Layout(bb)})
		}
	}
	return cases
}

// TestComputeMatchesStringKeyed checks the hashed, scratch-tag grouping
// against the naive string-keyed one.
func TestComputeMatchesStringKeyed(t *testing.T) {
	for _, c := range groupingCases(t) {
		want := naiveGroups(c.iters, c.refs, c.layout)
		tg := Compute(c.iters, c.refs, c.layout)
		if err := sameGroups(want, tg.Groups); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if tg.TotalIters != len(c.iters) || tg.NumBlocks != c.layout.NumBlocks() {
			t.Errorf("%s: TotalIters %d NumBlocks %d", c.name, tg.TotalIters, tg.NumBlocks)
		}
	}
}

// TestComputeHashCollisions folds the hash into eight values, so distinct
// tags share chains and only Equal tells them apart: they must still form
// separate groups, exactly as the string-keyed grouping does.
func TestComputeHashCollisions(t *testing.T) {
	coarse := func(tag Tag, touched []int) uint64 { return hashWords(tag, touched) % 8 }
	for _, c := range groupingCases(t) {
		want := naiveGroups(c.iters, c.refs, c.layout)
		hashes := make(map[uint64]bool)
		for _, g := range want {
			hashes[coarse(g.Tag, wordsOf(g.Tag))] = true
		}
		if len(hashes) == len(want) {
			t.Fatalf("%s: no two of the %d tags collide", c.name, len(want))
		}
		tg := compute(c.iters, c.refs, c.layout, coarse)
		if err := sameGroups(want, tg.Groups); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// wordsOf lists the nonzero words of a tag.
func wordsOf(tag Tag) []int {
	var ws []int
	for i, w := range tag.words {
		if w != 0 {
			ws = append(ws, i)
		}
	}
	return ws
}

// TestHashWordsOrderFree checks the hash depends on the tag only, not on
// the order its words were touched in.
func TestHashWordsOrderFree(t *testing.T) {
	tag := NewTag(200)
	for _, b := range []int{3, 70, 140, 199} {
		tag.Set(b)
	}
	if hashWords(tag, []int{0, 1, 2, 3}) != hashWords(tag, []int{3, 1, 0, 2}) {
		t.Fatal("hash depends on touch order")
	}
	other := NewTag(200)
	other.Set(3)
	if hashWords(tag, []int{0, 1, 2, 3}) == hashWords(other, []int{0}) {
		t.Fatal("different tags hash alike")
	}
}
