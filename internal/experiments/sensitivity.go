package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/optimal"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// Fig16 reproduces the data-block-size sensitivity study on Dunnington:
// smaller blocks give finer clustering (better performance) at the cost of
// longer compilation (mapping) time.
func Fig16(r *Runner, opt Options) (string, error) {
	m := topology.Dunnington()
	sizes := []int64{256, 512, 1024, 2048, 4096, 8192}
	if opt.Quick {
		sizes = []int64{512, 2048, 8192}
	}
	var cells []Cell
	for _, bs := range sizes {
		cfg := repro.DefaultConfig()
		cfg.BlockBytes = bs
		cells = append(cells, ratioCells(m, opt.kernels(), []repro.Scheme{repro.SchemeTopologyAware}, cfg)...)
	}
	_ = r.Prefetch(cells)
	t := metrics.NewTable("Figure 16 (Dunnington): data block size sensitivity (TopologyAware vs Base)",
		"norm-cycles", "map-time")
	for _, bs := range sizes {
		cfg := repro.DefaultConfig()
		cfg.BlockBytes = bs
		var ratios []float64
		var mapTime time.Duration
		for _, k := range opt.kernels() {
			ratio, err := r.ratio(k, m, repro.SchemeTopologyAware, cfg)
			if err != nil {
				return "", fmt.Errorf("fig16 block=%d %s: %w", bs, k.Name, err)
			}
			run, err := r.Evaluate(k, m, repro.SchemeTopologyAware, cfg)
			if err != nil {
				return "", err
			}
			ratios = append(ratios, ratio)
			mapTime += run.MapTime
		}
		t.AddRow(fmt.Sprintf("%dB", bs),
			fmt.Sprintf("%.3f", metrics.Mean(ratios)),
			mapTime.Round(time.Millisecond).String())
	}
	return t.String(), nil
}

// Fig17 reproduces the core-count scaling study: the Dunnington topology
// grown to 8/12/18/24 cores; the paper reports the TopologyAware win over
// Base growing from 29% at 12 cores to 46% at 24.
func Fig17(r *Runner, opt Options) (string, error) {
	counts := []int{8, 12, 18, 24}
	if opt.Quick {
		counts = []int{8, 12, 24}
	}
	cfg := repro.DefaultConfig()
	machines := make([]*topology.Machine, len(counts))
	for i, n := range counts {
		m, err := topology.ScaleDunnington(n)
		if err != nil {
			return "", err
		}
		machines[i] = m
	}
	_ = r.Prefetch(Grid(machines, opt.kernels(),
		[]repro.Scheme{repro.SchemeBase, repro.SchemeBasePlus, repro.SchemeTopologyAware}, cfg))
	t := metrics.NewTable("Figure 17: core-count scaling (normalized to Base on the same machine)",
		"Base+", "TopologyAware")
	for i, n := range counts {
		m := machines[i]
		var bp, ta []float64
		for _, k := range opt.kernels() {
			rbp, err := r.ratio(k, m, repro.SchemeBasePlus, cfg)
			if err != nil {
				return "", fmt.Errorf("fig17 cores=%d %s: %w", n, k.Name, err)
			}
			rta, err := r.ratio(k, m, repro.SchemeTopologyAware, cfg)
			if err != nil {
				return "", fmt.Errorf("fig17 cores=%d %s: %w", n, k.Name, err)
			}
			bp, ta = append(bp, rbp), append(ta, rta)
		}
		t.AddRatios(fmt.Sprintf("%d cores", n), metrics.Mean(bp), metrics.Mean(ta))
	}
	return t.String(), nil
}

// Fig17Weak is the weak-scaling companion to Fig 17: the dataset grows
// with the machine (bigger machines run bigger problems), holding
// per-socket pressure constant. Uses the selected kernels that have scaled
// variants (galgel, bodytrack and namd by default) and fails when none
// does.
func Fig17Weak(r *Runner, opt Options) (string, error) {
	names := scaledNames(opt.kernels())
	if len(names) == 0 {
		return "", fmt.Errorf("fig17weak: no selected kernel has a scaled variant (available: %s)",
			strings.Join(scaledNames(workloads.All()), ", "))
	}
	counts := []int{12, 24}
	if !opt.Quick {
		counts = []int{8, 12, 18, 24}
	}
	cfg := repro.DefaultConfig()
	var cells []Cell
	for _, n := range counts {
		m, err := topology.ScaleDunnington(n)
		if err != nil {
			return "", err
		}
		factor := (n + 11) / 12
		for _, name := range names {
			k, err := workloads.Scaled(name, factor)
			if err != nil {
				return "", err
			}
			cells = append(cells, ratioCells(m, []*workloads.Kernel{k}, []repro.Scheme{repro.SchemeTopologyAware}, cfg)...)
		}
	}
	_ = r.Prefetch(cells)
	t := metrics.NewTable("Figure 17 (weak scaling): dataset grows with cores (normalized to Base)",
		"TopologyAware")
	for _, n := range counts {
		m, err := topology.ScaleDunnington(n)
		if err != nil {
			return "", err
		}
		factor := (n + 11) / 12 // 1x at <=12 cores, 2x at 24
		var ta []float64
		for _, name := range names {
			k, err := workloads.Scaled(name, factor)
			if err != nil {
				return "", err
			}
			ratio, err := r.ratio(k, m, repro.SchemeTopologyAware, cfg)
			if err != nil {
				return "", fmt.Errorf("fig17weak cores=%d %s: %w", n, name, err)
			}
			ta = append(ta, ratio)
		}
		t.AddRatios(fmt.Sprintf("%d cores (%dx data)", n, factor), metrics.Mean(ta))
	}
	return t.String(), nil
}

// scaledNames lists, in order, the names of the kernels that have a
// workloads.Scaled variant.
func scaledNames(ks []*workloads.Kernel) []string {
	var names []string
	for _, k := range ks {
		if _, err := workloads.Scaled(k.Name, 1); err == nil {
			names = append(names, k.Name)
		}
	}
	return names
}

// Fig18 reproduces the hierarchy-depth study: the default Dunnington
// against the deeper Arch-I and Arch-II of Figure 12; the topology-aware
// win should grow with depth.
func Fig18(r *Runner, opt Options) (string, error) {
	machines := []*topology.Machine{topology.Dunnington(), topology.ArchI(), topology.ArchII()}
	cfg := repro.DefaultConfig()
	_ = r.Prefetch(Grid(machines, opt.kernels(),
		[]repro.Scheme{repro.SchemeBase, repro.SchemeBasePlus, repro.SchemeTopologyAware, repro.SchemeCombined}, cfg))
	t := metrics.NewTable("Figure 18: on-chip hierarchy depth (normalized to Base on the same machine)",
		"Base+", "TopologyAware", "Combined")
	for _, m := range machines {
		var bp, ta, co []float64
		for _, k := range opt.kernels() {
			rbp, err := r.ratio(k, m, repro.SchemeBasePlus, cfg)
			if err != nil {
				return "", fmt.Errorf("fig18 %s/%s: %w", m.Name, k.Name, err)
			}
			rta, err := r.ratio(k, m, repro.SchemeTopologyAware, cfg)
			if err != nil {
				return "", err
			}
			rco, err := r.ratio(k, m, repro.SchemeCombined, cfg)
			if err != nil {
				return "", err
			}
			bp, ta, co = append(bp, rbp), append(ta, rta), append(co, rco)
		}
		name := m.Name
		if name == "Dunnington" {
			name = "Default"
		}
		t.AddRatios(name, metrics.Mean(bp), metrics.Mean(ta), metrics.Mean(co))
	}
	return t.String(), nil
}

// Fig19 reproduces the cache-pressure study: every Dunnington cache halved.
// The paper reports Base+ at 21% and TopologyAware at 33% improvement,
// rising to 29%/41% with scheduling.
func Fig19(r *Runner, opt Options) (string, error) {
	full := topology.Dunnington()
	half := topology.HalveCapacities(topology.Dunnington())
	cfg := repro.DefaultConfig()
	_ = r.Prefetch(Grid([]*topology.Machine{full, half}, opt.kernels(),
		[]repro.Scheme{repro.SchemeBase, repro.SchemeBasePlus, repro.SchemeTopologyAware, repro.SchemeCombined}, cfg))
	t := metrics.NewTable("Figure 19: halved cache capacities (normalized to Base on the same machine)",
		"Base+", "TopologyAware", "Combined")
	for _, m := range []*topology.Machine{full, half} {
		var bp, ta, co []float64
		for _, k := range opt.kernels() {
			rbp, err := r.ratio(k, m, repro.SchemeBasePlus, cfg)
			if err != nil {
				return "", fmt.Errorf("fig19 %s/%s: %w", m.Name, k.Name, err)
			}
			rta, err := r.ratio(k, m, repro.SchemeTopologyAware, cfg)
			if err != nil {
				return "", err
			}
			rco, err := r.ratio(k, m, repro.SchemeCombined, cfg)
			if err != nil {
				return "", err
			}
			bp, ta, co = append(bp, rbp), append(ta, rta), append(co, rco)
		}
		t.AddRatios(m.Name, metrics.Mean(bp), metrics.Mean(ta), metrics.Mean(co))
	}
	return t.String(), nil
}

// Fig20 reproduces the partial-hierarchy + optimal study on Arch-I: the
// mapper limited to seeing L1+L2, L1+L2+L3, the full four-level hierarchy,
// and the (searched) optimal mapping. All variants use coarse grouping so
// the optimal search stays tractable, mirroring the paper's per-nest ILP.
func Fig20(r *Runner, opt Options) (string, error) {
	m := topology.ArchI()
	cfg := repro.DefaultConfig()
	cfg.MaxGroups = 48 // coarse groups keep the optimal search tractable
	kernels := opt.kernels()
	if len(kernels) > 6 && opt.Quick {
		kernels = kernels[:4]
	}
	views := []struct {
		name string
		view *topology.Machine
	}{
		{"L1+L2", topology.Truncate(m, 2)},
		{"L1+L2+L3", topology.Truncate(m, 3)},
		{"L1..L4 (full)", nil},
	}
	var cells []Cell
	for _, k := range kernels {
		cells = append(cells, Cell{Kernel: k, Machine: m, Scheme: repro.SchemeBase, Config: cfg})
		for _, v := range views {
			vcfg := cfg
			vcfg.MapView = v.view
			cells = append(cells, Cell{Kernel: k, Machine: m, Scheme: repro.SchemeTopologyAware, Config: vcfg})
		}
	}
	_ = r.Prefetch(cells)
	t := metrics.NewTable("Figure 20 (Arch-I): partial-hierarchy versions and optimal (normalized to Base)",
		"L1+L2", "L1+L2+L3", "full", "optimal")
	var sums [4]float64
	n := 0
	for _, k := range kernels {
		base, err := r.Evaluate(k, m, repro.SchemeBase, cfg)
		if err != nil {
			return "", err
		}
		row := make([]float64, 0, 4)
		for _, v := range views {
			vcfg := cfg
			vcfg.MapView = v.view
			run, err := r.Evaluate(k, m, repro.SchemeTopologyAware, vcfg)
			if err != nil {
				return "", fmt.Errorf("fig20 %s/%s: %w", k.Name, v.name, err)
			}
			row = append(row, float64(run.Sim.TotalCycles)/float64(base.Sim.TotalCycles))
		}
		optRatio, err := optimalRatio(k, m, cfg, base.Sim.TotalCycles, opt)
		if err != nil {
			return "", fmt.Errorf("fig20 optimal %s: %w", k.Name, err)
		}
		row = append(row, optRatio)
		for i, v := range row {
			sums[i] += v
		}
		n++
		t.AddRatios(k.Name, row...)
	}
	t.AddRatios("average", sums[0]/float64(n), sums[1]/float64(n), sums[2]/float64(n), sums[3]/float64(n))
	return t.String(), nil
}

// optimalRatio searches for the best group-to-core mapping using the
// exhaustive/local-search stand-in for the paper's ILP. The search starts
// from the full TopologyAware mapping, which NewSearchContext recomputes,
// so Fig 20 needs no Mapping from the runner's cells (a checkpoint
// restores none).
func optimalRatio(k *workloads.Kernel, m *topology.Machine, cfg repro.Config, baseCycles uint64, opt Options) (float64, error) {
	sc, err := repro.NewSearchContext(k, m, cfg)
	if err != nil {
		return 0, err
	}
	evals := 600
	if opt.Quick {
		evals = 150
	}
	sres, err := optimal.Search(sc.NumGroups(), m.NumCores(), [][][]int{sc.Seed()}, sc.Cost, optimal.Options{
		MaxEvals:        evals,
		ExhaustiveLimit: 2000,
	})
	if err != nil {
		return 0, err
	}
	return float64(sres.Cost) / float64(baseCycles), nil
}

// AlphaBeta reproduces the §4.2 α/β discussion: equal weights are best;
// skewing toward either extreme hurts the corresponding cache level.
func AlphaBeta(r *Runner, opt Options) (string, error) {
	m := topology.Dunnington()
	settings := [][2]float64{{1, 0}, {0.75, 0.25}, {0.5, 0.5}, {0.25, 0.75}, {0, 1}}
	if opt.Quick {
		settings = [][2]float64{{1, 0}, {0.5, 0.5}, {0, 1}}
	}
	var cells []Cell
	for _, ab := range settings {
		cfg := repro.DefaultConfig()
		cfg.Alpha, cfg.Beta = ab[0], ab[1]
		cells = append(cells, ratioCells(m, opt.kernels(), []repro.Scheme{repro.SchemeCombined}, cfg)...)
	}
	_ = r.Prefetch(cells)
	t := metrics.NewTable("Alpha/Beta sensitivity (Dunnington, Combined vs Base)",
		"norm-cycles")
	for _, ab := range settings {
		cfg := repro.DefaultConfig()
		cfg.Alpha, cfg.Beta = ab[0], ab[1]
		var ratios []float64
		for _, k := range opt.kernels() {
			ratio, err := r.ratio(k, m, repro.SchemeCombined, cfg)
			if err != nil {
				return "", fmt.Errorf("alphabeta %g/%g %s: %w", ab[0], ab[1], k.Name, err)
			}
			ratios = append(ratios, ratio)
		}
		t.AddRow(fmt.Sprintf("a=%.2f b=%.2f", ab[0], ab[1]),
			fmt.Sprintf("%.3f", metrics.Mean(ratios)))
	}
	return t.String(), nil
}

// SteadyState augments Figure 19 with warm-cache (multi-pass) runs: the
// paper's applications execute their nests many times, so their Base kept
// multi-megabyte working sets resident and suffered when capacities were
// halved. A single cold pass cannot show that; three passes can.
func SteadyState(r *Runner, opt Options) (string, error) {
	full := topology.Dunnington()
	half := topology.HalveCapacities(topology.Dunnington())
	warm := repro.DefaultConfig()
	warm.Passes = 3
	_ = r.Prefetch(Grid([]*topology.Machine{full, half}, opt.kernels(),
		[]repro.Scheme{repro.SchemeBase, repro.SchemeBasePlus, repro.SchemeTopologyAware, repro.SchemeCombined}, warm))
	t := metrics.NewTable("Steady state (3 passes, Dunnington, normalized to Base on the same machine)",
		"Base+", "TopologyAware", "Combined")
	for _, m := range []*topology.Machine{full, half} {
		var bp, ta, co []float64
		for _, k := range opt.kernels() {
			cfg := repro.DefaultConfig()
			cfg.Passes = 3
			rbp, err := r.ratio(k, m, repro.SchemeBasePlus, cfg)
			if err != nil {
				return "", fmt.Errorf("steady %s/%s: %w", m.Name, k.Name, err)
			}
			rta, err := r.ratio(k, m, repro.SchemeTopologyAware, cfg)
			if err != nil {
				return "", err
			}
			rco, err := r.ratio(k, m, repro.SchemeCombined, cfg)
			if err != nil {
				return "", err
			}
			bp, ta, co = append(bp, rbp), append(ta, rta), append(co, rco)
		}
		t.AddRatios(m.Name, metrics.Mean(bp), metrics.Mean(ta), metrics.Mean(co))
	}
	return t.String(), nil
}

// CompileTime reproduces the §4.1 compilation-overhead observation: the
// paper reports 65-94% mapping-time overhead over parallelization alone.
// We compare the wall time of the full topology-aware mapping passes with
// the (near-zero) Base preparation, per kernel.
func CompileTime(r *Runner, opt Options) (string, error) {
	m := topology.Dunnington()
	cfg := repro.DefaultConfig()
	_ = r.Prefetch(Grid([]*topology.Machine{m}, opt.kernels(),
		[]repro.Scheme{repro.SchemeTopologyAware, repro.SchemeCombined}, cfg))
	t := metrics.NewTable("Mapping (compile) time, Dunnington", "TopologyAware", "Combined", "groups")
	for _, k := range opt.kernels() {
		ta, err := r.Evaluate(k, m, repro.SchemeTopologyAware, cfg)
		if err != nil {
			return "", err
		}
		co, err := r.Evaluate(k, m, repro.SchemeCombined, cfg)
		if err != nil {
			return "", err
		}
		t.AddRow(k.Name,
			ta.MapTime.Round(time.Millisecond).String(),
			co.MapTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", ta.Groups))
	}
	return t.String(), nil
}

// Ablation quantifies the design choices DESIGN.md calls out: the merge
// size cap, the balance polish, and the balance threshold, all as the
// TopologyAware-vs-Base average on Dunnington.
func Ablation(r *Runner, opt Options) (string, error) {
	m := topology.Dunnington()
	variants := []struct {
		name   string
		scheme repro.Scheme
		mut    func(*repro.Config)
	}{
		{"full algorithm", repro.SchemeTopologyAware, func(*repro.Config) {}},
		{"no merge cap", repro.SchemeTopologyAware, func(c *repro.Config) { c.NoMergeCap = true }},
		{"no balance polish", repro.SchemeTopologyAware, func(c *repro.Config) { c.NoPolish = true }},
		{"no polish, 30% threshold", repro.SchemeTopologyAware, func(c *repro.Config) { c.NoPolish = true; c.BalanceThreshold = 0.30 }},
		{"threshold 2%", repro.SchemeTopologyAware, func(c *repro.Config) { c.BalanceThreshold = 0.02 }},
		{"threshold 30%", repro.SchemeTopologyAware, func(c *repro.Config) { c.BalanceThreshold = 0.30 }},
		{"coarse groups (128)", repro.SchemeTopologyAware, func(c *repro.Config) { c.MaxGroups = 128 }},
		{"combined, dot product", repro.SchemeCombined, func(*repro.Config) {}},
		{"combined, hamming", repro.SchemeCombined, func(c *repro.Config) { c.HammingSched = true }},
	}
	var cells []Cell
	for _, v := range variants {
		cfg := repro.DefaultConfig()
		v.mut(&cfg)
		cells = append(cells, ratioCells(m, opt.kernels(), []repro.Scheme{v.scheme}, cfg)...)
	}
	_ = r.Prefetch(cells)
	t := metrics.NewTable("Ablation (Dunnington, vs Base)", "norm-cycles")
	for _, v := range variants {
		cfg := repro.DefaultConfig()
		v.mut(&cfg)
		var ratios []float64
		for _, k := range opt.kernels() {
			ratio, err := r.ratio(k, m, v.scheme, cfg)
			if err != nil {
				return "", fmt.Errorf("ablation %s %s: %w", v.name, k.Name, err)
			}
			ratios = append(ratios, ratio)
		}
		t.AddRow(v.name, fmt.Sprintf("%.3f", metrics.Mean(ratios)))
	}
	return t.String(), nil
}

// DependenceModes exercises §3.5.2 on the two dependence kernels:
// conservative clustering (no synchronization, dependence-connected groups
// serialize on one core) against barrier-synchronized distribution, both
// normalized to the (unsynchronized, illegal-in-practice) Base for scale.
// Wavefront's dependence chain favours the conservative mode; the
// tree-reduction's wide DAG favours synchronization — the trade-off the
// paper describes.
func DependenceModes(r *Runner) (string, error) {
	m := topology.Dunnington()
	var cells []Cell
	for _, name := range []string{"wavefront", "treereduce"} {
		k, err := workloads.ByName(name)
		if err != nil {
			return "", err
		}
		for _, mode := range []repro.DepsMode{repro.DepsSync, repro.DepsConservative} {
			cfg := repro.DefaultConfig()
			cfg.Deps = mode
			cells = append(cells, ratioCells(m, []*workloads.Kernel{k}, []repro.Scheme{repro.SchemeCombined}, cfg)...)
		}
	}
	_ = r.Prefetch(cells)
	t := metrics.NewTable("Dependence handling (Dunnington, Combined normalized to Base)",
		"synchronized", "sync-barriers", "conservative")
	for _, name := range []string{"wavefront", "treereduce"} {
		k, err := workloads.ByName(name)
		if err != nil {
			return "", err
		}
		row := make([]string, 0, 3)
		var syncBarriers int
		for _, mode := range []repro.DepsMode{repro.DepsSync, repro.DepsConservative} {
			cfg := repro.DefaultConfig()
			cfg.Deps = mode
			base, err := r.Evaluate(k, m, repro.SchemeBase, cfg)
			if err != nil {
				return "", err
			}
			run, err := r.Evaluate(k, m, repro.SchemeCombined, cfg)
			if err != nil {
				return "", err
			}
			row = append(row, fmt.Sprintf("%.3f", float64(run.Sim.TotalCycles)/float64(base.Sim.TotalCycles)))
			if mode == repro.DepsSync {
				syncBarriers = run.Sim.Barriers
			}
		}
		t.AddRow(name, row[0], fmt.Sprintf("%d", syncBarriers), row[1])
	}
	return t.String(), nil
}
