package experiments

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// smallOpt restricts experiments to two fast kernels.
func smallOpt(t *testing.T) Options {
	t.Helper()
	fig5, err := workloads.ByName("fig5")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := workloads.ByName("sp")
	if err != nil {
		t.Fatal(err)
	}
	return Options{Kernels: []*workloads.Kernel{fig5, sp}, Quick: true}
}

func TestTable1Contents(t *testing.T) {
	out := Table1()
	for _, want := range []string{"Harpertown", "Nehalem", "Dunnington", "3.2GHz", "12"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Contents(t *testing.T) {
	out := Table2(Options{})
	for _, k := range workloads.All() {
		if !strings.Contains(out, k.Name) {
			t.Errorf("Table2 missing %s", k.Name)
		}
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner()
	k, _ := workloads.ByName("fig5")
	m := topology.Dunnington()
	cfg := repro.DefaultConfig()
	a, err := r.Evaluate(k, m, repro.SchemeBase, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Evaluate(k, m, repro.SchemeBase, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Runner did not memoize identical evaluations")
	}
	// Different block size must not collide.
	cfg2 := cfg
	cfg2.BlockBytes = 4096
	c, err := r.Evaluate(k, m, repro.SchemeBase, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("Runner cache key ignores block size")
	}
}

func TestFig13Structure(t *testing.T) {
	r := NewRunner()
	res, err := Fig13(r, smallOpt(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"Harpertown", "Nehalem", "Dunnington"} {
		if _, ok := res.PerMachine[m]; !ok {
			t.Errorf("Fig13 missing machine %s", m)
		}
		if res.AvgTopology[m] <= 0 || res.AvgTopology[m] > 1.5 {
			t.Errorf("Fig13 %s TA average out of range: %f", m, res.AvgTopology[m])
		}
	}
	if !strings.Contains(res.Rendered, "Figure 13") {
		t.Error("Fig13 rendering missing title")
	}
	for l := 1; l <= 3; l++ {
		if _, ok := res.MissReductionVsBase[l]; !ok {
			t.Errorf("Fig13 missing L%d miss reduction", l)
		}
	}
}

func TestFig15Renders(t *testing.T) {
	r := NewRunner()
	out, err := Fig15(r, smallOpt(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"TopologyAware", "Local", "Combined", "average"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig15 missing %q", want)
		}
	}
}

func TestFig16Renders(t *testing.T) {
	r := NewRunner()
	out, err := Fig16(r, smallOpt(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"512B", "2048B", "8192B", "map-time"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig16 missing %q:\n%s", want, out)
		}
	}
}

func TestFig19Renders(t *testing.T) {
	r := NewRunner()
	out, err := Fig19(r, smallOpt(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Dunnington-half") {
		t.Errorf("Fig19 missing halved machine:\n%s", out)
	}
}

func TestDependenceModesRenders(t *testing.T) {
	r := NewRunner()
	out, err := DependenceModes(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "synchronized") || !strings.Contains(out, "conservative") {
		t.Errorf("deps experiment incomplete:\n%s", out)
	}
}

func TestAblationRenders(t *testing.T) {
	r := NewRunner()
	fig5, _ := workloads.ByName("fig5")
	out, err := Ablation(r, Options{Kernels: []*workloads.Kernel{fig5}})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"full algorithm", "no merge cap", "no balance polish", "hamming"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation missing %q:\n%s", want, out)
		}
	}
}

func TestCompileTimeRenders(t *testing.T) {
	r := NewRunner()
	fig5, _ := workloads.ByName("fig5")
	out, err := CompileTime(r, Options{Kernels: []*workloads.Kernel{fig5}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fig5") || !strings.Contains(out, "groups") {
		t.Errorf("compiletime incomplete:\n%s", out)
	}
}

func TestSteadyStateRenders(t *testing.T) {
	r := NewRunner()
	fig5, _ := workloads.ByName("fig5")
	out, err := SteadyState(r, Options{Kernels: []*workloads.Kernel{fig5}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Dunnington-half") || !strings.Contains(out, "3 passes") {
		t.Errorf("steadystate incomplete:\n%s", out)
	}
}

func TestAlphaBetaRenders(t *testing.T) {
	r := NewRunner()
	out, err := AlphaBeta(r, smallOpt(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "a=0.50 b=0.50") {
		t.Errorf("alphabeta missing default point:\n%s", out)
	}
}

// TestFig17WeakHonorsKernels checks that the weak-scaling figure runs only
// the selected kernels with scaled variants and rejects a selection that
// has none.
func TestFig17WeakHonorsKernels(t *testing.T) {
	pick := func(names ...string) Options {
		var ks []*workloads.Kernel
		for _, name := range names {
			k, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			ks = append(ks, k)
		}
		return Options{Kernels: ks, Quick: true}
	}
	r := NewRunner()
	if _, err := Fig17Weak(r, pick("cg", "fig5")); err == nil || !strings.Contains(err.Error(), "galgel, bodytrack, namd") {
		t.Fatalf("selection without scaled variants: err = %v", err)
	}
	if n := r.Evaluations(); n != 0 {
		t.Fatalf("rejected selection evaluated %d cells", n)
	}
	out, err := Fig17Weak(r, pick("cg", "galgel"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "24 cores (2x data)") {
		t.Errorf("missing the 24-core row:\n%s", out)
	}
	stats := r.Metrics().Stats()
	if len(stats) != 4 { // Base and TopologyAware at 12 and 24 cores
		t.Fatalf("evaluated %d cells, want 4", len(stats))
	}
	for _, s := range stats {
		if !strings.Contains(s.Key, "galgel-x") {
			t.Errorf("cell %s is not a scaled galgel", s.Key)
		}
	}
}
