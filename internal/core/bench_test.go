package core

import (
	"testing"

	"repro/internal/tags"
	"repro/internal/topology"
	"repro/internal/workloads"
)

func benchDistribute(b *testing.B, name string, m *topology.Machine, maxGroups int) {
	k, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	layout := k.Layout(2048)
	tg := tags.Coarsen(tags.ComputeNest(k.Nest, k.Refs, layout), maxGroups)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Distribute(tg, m, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributeGalgel768(b *testing.B) {
	benchDistribute(b, "galgel", topology.Dunnington(), 768)
}
func BenchmarkDistributeGalgel256(b *testing.B) {
	benchDistribute(b, "galgel", topology.Dunnington(), 256)
}
func BenchmarkDistributeSp(b *testing.B) { benchDistribute(b, "sp", topology.Dunnington(), 768) }

// BenchmarkDistributeDunnington24 is the core-scaling shape: the 24-core
// scaled Dunnington at the pipeline's default 64 groups per core.
func BenchmarkDistributeDunnington24(b *testing.B) {
	m, err := topology.ScaleDunnington(24)
	if err != nil {
		b.Fatal(err)
	}
	benchDistribute(b, "galgel", m, 64*m.NumCores())
}
