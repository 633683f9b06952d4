package tags

import (
	"testing"

	"repro/internal/poly"
)

func benchTagging(b *testing.B, blockBytes int64) {
	const n = 1 << 16
	a := poly.NewArray("A", n)
	w := poly.NewArray("W", n)
	nest := poly.NewNest(poly.RectLoop("j", 0, n-1))
	refs := []*poly.Ref{
		poly.NewRef(a, poly.Read, poly.Var(0, 1)),
		poly.NewRef(a, poly.Read, poly.Var(0, 1).Scale(-1).AddConst(n-1)),
		poly.NewRef(w, poly.Write, poly.Var(0, 1)),
	}
	layout := poly.NewLayout(blockBytes, a, w)
	pts := nest.Points()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tg := Compute(pts, refs, layout)
		if len(tg.Groups) == 0 {
			b.Fatal("no groups")
		}
	}
}

func BenchmarkCompute2KB(b *testing.B)  { benchTagging(b, 2048) }
func BenchmarkCompute256B(b *testing.B) { benchTagging(b, 256) }

func BenchmarkTagDot(b *testing.B) {
	t1, t2 := NewTag(4096), NewTag(4096)
	for i := 0; i < 4096; i += 3 {
		t1.Set(i)
	}
	for i := 0; i < 4096; i += 5 {
		t2.Set(i)
	}
	b.ResetTimer()
	acc := 0
	for i := 0; i < b.N; i++ {
		acc += t1.Dot(t2)
	}
	_ = acc
}

func BenchmarkCoarsen(b *testing.B) {
	const n = 1 << 15
	a := poly.NewArray("A", n)
	nest := poly.NewNest(poly.RectLoop("j", 0, n-1))
	refs := []*poly.Ref{poly.NewRef(a, poly.Read, poly.Var(0, 1))}
	layout := poly.NewLayout(256, a)
	pts := nest.Points()
	tg := Compute(pts, refs, layout)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := Coarsen(tg, 256)
		if len(out.Groups) > 256 {
			b.Fatal("coarsen failed")
		}
	}
}
