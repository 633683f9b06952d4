package poly

import (
	"strings"
	"testing"
)

func TestNestPointsOrder(t *testing.T) {
	n := NewNest(RectLoop("i", 0, 1), RectLoop("j", 10, 12))
	pts := n.Points()
	want := []Point{Pt(0, 10), Pt(0, 11), Pt(0, 12), Pt(1, 10), Pt(1, 11), Pt(1, 12)}
	if len(pts) != len(want) {
		t.Fatalf("got %d points, want %d", len(pts), len(want))
	}
	for i := range want {
		if !pts[i].Equal(want[i]) {
			t.Fatalf("Points[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
	if n.Size() != 6 {
		t.Fatalf("Size = %d, want 6", n.Size())
	}
}

func TestNestTriangular(t *testing.T) {
	// for i in 0..3; for j in 0..i — bounds depending on the outer var.
	n := NewNest(
		RectLoop("i", 0, 3),
		Loop{Name: "j", Lower: Constant(0), Upper: Var(0, 2), Step: 1},
	)
	pts := n.Points()
	if len(pts) != 10 {
		t.Fatalf("triangular nest has %d points, want 10", len(pts))
	}
	if n.Size() != 10 {
		t.Fatalf("Size = %d, want 10", n.Size())
	}
	for _, p := range pts {
		if p[1] > p[0] {
			t.Fatalf("point %v outside triangle", p)
		}
		if !n.Contains(p) {
			t.Fatalf("Contains(%v) = false for enumerated point", p)
		}
	}
	if n.Contains(Pt(1, 2)) {
		t.Fatal("point above diagonal should be outside")
	}
}

func TestNestStep(t *testing.T) {
	n := NewNest(Loop{Name: "i", Lower: Constant(0), Upper: Constant(9), Step: 3})
	pts := n.Points()
	want := []int64{0, 3, 6, 9}
	if len(pts) != len(want) {
		t.Fatalf("stepped nest: %d points, want %d", len(pts), len(want))
	}
	for i, p := range pts {
		if p[0] != want[i] {
			t.Fatalf("point %d = %v", i, p)
		}
	}
	if n.Contains(Pt(4)) {
		t.Fatal("off-step point should be outside")
	}
	if n.Size() != 4 {
		t.Fatalf("Size = %d, want 4", n.Size())
	}
}

func TestNestEmptyBounds(t *testing.T) {
	n := NewNest(RectLoop("i", 5, 4))
	if n.Size() != 0 || len(n.Points()) != 0 {
		t.Fatal("inverted bounds should yield empty nest")
	}
}

func TestNestSetConversion(t *testing.T) {
	n := NewNest(RectLoop("i", 1, 4), RectLoop("j", 2, 5))
	s := n.Set()
	for _, p := range n.Points() {
		if !s.Contains(p) {
			t.Fatalf("Set misses nest point %v", p)
		}
	}
	cnt, err := s.Count()
	if err != nil {
		t.Fatal(err)
	}
	if cnt != n.Size() {
		t.Fatalf("Set count %d != nest size %d", cnt, n.Size())
	}
}

func TestNestString(t *testing.T) {
	n := NewNest(RectLoop("i", 0, 7))
	got := n.String()
	if !strings.Contains(got, "for (i = 0; i <= 7; i++)") {
		t.Fatalf("String = %q", got)
	}
}

func TestNestNames(t *testing.T) {
	n := NewNest(RectLoop("a", 0, 1), RectLoop("b", 0, 1))
	names := n.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
	if n.Depth() != 2 {
		t.Fatalf("Depth = %d", n.Depth())
	}
}

// recursivePoints is the enumeration Points used before it built the
// iteration space in one allocation, kept verbatim as its reference.
func recursivePoints(n *Nest) []Point {
	var out []Point
	p := make(Point, n.Depth())
	var rec func(d int)
	rec = func(d int) {
		if d == n.Depth() {
			out = append(out, p.Clone())
			return
		}
		l := n.Loops[d]
		lo, hi := l.Lower.Eval(p), l.Upper.Eval(p)
		for v := lo; v <= hi; v += l.Step {
			p[d] = v
			rec(d + 1)
		}
	}
	rec(0)
	return out
}

// referenceNests covers the bound shapes Points must enumerate exactly as
// recursivePoints does.
func referenceNests() map[string]*Nest {
	return map[string]*Nest{
		"rectangular": NewNest(RectLoop("i", 0, 6), RectLoop("j", -3, 4)),
		"triangular": NewNest(
			RectLoop("i", 0, 9),
			Loop{Name: "j", Lower: Constant(0), Upper: Var(0, 2), Step: 1}),
		"trapezoidal": NewNest(
			RectLoop("i", 1, 8),
			Loop{Name: "j", Lower: Var(0, 2), Upper: Var(0, 2).Add(Constant(5)), Step: 1}),
		"stepped": NewNest(
			Loop{Name: "i", Lower: Constant(0), Upper: Constant(20), Step: 3},
			Loop{Name: "j", Lower: Var(0, 2), Upper: Constant(20), Step: 4}),
		"1-D":   NewNest(RectLoop("i", 5, 40)),
		"empty": NewNest(RectLoop("i", 0, 3), RectLoop("j", 4, 2)),
		"3-D": NewNest(
			RectLoop("i", 0, 4),
			Loop{Name: "j", Lower: Constant(0), Upper: Var(0, 3), Step: 1},
			Loop{Name: "k", Lower: Var(1, 3), Upper: Var(0, 3).Add(Constant(2)), Step: 2}),
	}
}

// TestPointsMatchRecursive: the flat enumeration yields the reference's
// points, in the reference's order, and Size counts them.
func TestPointsMatchRecursive(t *testing.T) {
	for name, n := range referenceNests() {
		got, want := n.Points(), recursivePoints(n)
		if len(got) != len(want) || (got == nil) != (want == nil) {
			t.Fatalf("%s: %d points (nil %v), want %d (nil %v)", name, len(got), got == nil, len(want), want == nil)
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s: point %d = %v, want %v", name, i, got[i], want[i])
			}
		}
		if n.Size() != len(want) {
			t.Fatalf("%s: Size = %d, want %d", name, n.Size(), len(want))
		}
	}
}

// TestPointsAppendIsolated: the points share one backing array, but each
// is capped at its own length, so appending to one leaves the next intact.
func TestPointsAppendIsolated(t *testing.T) {
	n := NewNest(RectLoop("i", 0, 2), RectLoop("j", 0, 2))
	pts := n.Points()
	want := pts[1].Clone()
	grown := append(pts[0], 99)
	if !pts[1].Equal(want) {
		t.Fatalf("append to point 0 overwrote point 1: %v, want %v", pts[1], want)
	}
	if len(grown) != 3 || grown[2] != 99 || !pts[0].Equal(Pt(0, 0)) {
		t.Fatalf("append to point 0 = %v, point 0 now %v", grown, pts[0])
	}
}

// BenchmarkNestPoints enumerates a 98176-point trapezoidal nest: three
// allocations per call (scratch point, flat array, point slice), whatever
// the size.
func BenchmarkNestPoints(b *testing.B) {
	n := NewNest(
		RectLoop("i", 0, 255),
		Loop{Name: "j", Lower: Constant(0), Upper: Var(0, 2).Add(Constant(255)), Step: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(n.Points()) == 0 {
			b.Fatal("no points")
		}
	}
}
