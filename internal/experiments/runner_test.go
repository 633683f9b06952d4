package experiments

import (
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// smallGrid is a cheap but non-trivial grid: two fast kernels, two
// machines, three schemes.
func smallGrid(t *testing.T) []Cell {
	t.Helper()
	fig5, err := workloads.ByName("fig5")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := workloads.ByName("sp")
	if err != nil {
		t.Fatal(err)
	}
	return Grid(
		[]*topology.Machine{topology.Dunnington(), topology.Nehalem()},
		[]*workloads.Kernel{fig5, sp},
		[]repro.Scheme{repro.SchemeBase, repro.SchemeTopologyAware, repro.SchemeCombined},
		repro.DefaultConfig())
}

// TestRunCellsDeterministic asserts the paper-grid guarantee the README
// documents: the aggregated results are identical at any pool size —
// results are keyed by cell, never by completion order.
func TestRunCellsDeterministic(t *testing.T) {
	cells := smallGrid(t)
	cycles := func(workers int) []uint64 {
		r := NewRunner()
		r.SetWorkers(workers)
		runs, err := r.RunCells(cells)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out := make([]uint64, len(runs))
		for i, run := range runs {
			out[i] = run.Sim.TotalCycles
		}
		return out
	}
	want := cycles(1)
	for _, j := range []int{2, 8} {
		got := cycles(j)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: cell %d (%s) = %d cycles, serial harness got %d",
					j, i, cells[i].Key(), got[i], want[i])
			}
		}
	}
}

// stripDurations blanks measured wall-clock tokens (map-time columns in
// Fig16/CompileTime). Those columns report real elapsed time, so they are
// not reproducible between any two runs — serial or parallel — and are
// excluded from the byte-identity guarantee, which covers every simulated
// quantity (cycles, miss rates, ratios, group counts).
var durationToken = regexp.MustCompile(`[0-9][0-9.µa-z]*s`)
var spaceRun = regexp.MustCompile(` +`)

func stripDurations(s string) string {
	// Collapse space runs too: column padding tracks the width of the
	// duration strings being blanked.
	return spaceRun.ReplaceAllString(durationToken.ReplaceAllString(s, "_"), " ")
}

// TestDriverOutputIdenticalAcrossWorkers runs full experiment drivers at
// -j 1/2/8 and requires byte-identical rendered tables (modulo measured
// wall-clock columns, see stripDurations).
func TestDriverOutputIdenticalAcrossWorkers(t *testing.T) {
	opt := smallOpt(t)
	render := func(workers int) string {
		r := NewRunner()
		r.SetWorkers(workers)
		var b strings.Builder
		f13, err := Fig13(r, opt)
		if err != nil {
			t.Fatalf("workers=%d fig13: %v", workers, err)
		}
		b.WriteString(f13.Rendered)
		for _, drv := range []func(*Runner, Options) (string, error){Fig15, Fig16, AlphaBeta} {
			out, err := drv(r, opt)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			b.WriteString(stripDurations(out))
		}
		return b.String()
	}
	want := render(1)
	for _, j := range []int{2, 8} {
		if got := render(j); got != want {
			t.Errorf("driver output at %d workers differs from serial output", j)
		}
	}
}

// TestRunCellsDedup: the same grid point requested twice must be computed
// once and yield the same *Run.
func TestRunCellsDedup(t *testing.T) {
	fig5, _ := workloads.ByName("fig5")
	m := topology.Dunnington()
	c := Cell{Kernel: fig5, Machine: m, Scheme: repro.SchemeBase, Config: repro.DefaultConfig()}
	r := NewRunner()
	r.SetWorkers(4)
	runs, err := r.RunCells([]Cell{c, c, c})
	if err != nil {
		t.Fatal(err)
	}
	if runs[0] != runs[1] || runs[1] != runs[2] {
		t.Error("duplicate cells returned distinct runs")
	}
	if n := r.Metrics().Len(); n != 1 {
		t.Errorf("expected 1 computed cell, metrics recorded %d", n)
	}
}

// TestRunCellsError: a failing cell reports its error, and the result
// slice keeps positional correspondence with nil at the failed cell.
func TestRunCellsError(t *testing.T) {
	fig5, _ := workloads.ByName("fig5")
	m := topology.Dunnington()
	cfg := repro.DefaultConfig()
	good := Cell{Kernel: fig5, Machine: m, Scheme: repro.SchemeBase, Config: cfg}
	bad := Cell{Kernel: fig5, Machine: m, Scheme: repro.Scheme(99), Config: cfg}
	r := NewRunner()
	r.SetWorkers(2)
	runs, err := r.RunCells([]Cell{good, bad})
	if err == nil {
		t.Fatal("expected error from unknown scheme")
	}
	if runs[0] == nil || runs[1] != nil {
		t.Errorf("positional results wrong: good=%v bad=%v", runs[0], runs[1])
	}
}

// TestProgressReporting: every computed cell produces one update, done
// counts stay in range, and the final update reports done == total.
func TestProgressReporting(t *testing.T) {
	cells := smallGrid(t)
	r := NewRunner()
	r.SetWorkers(4)
	var mu sync.Mutex
	var dones []int
	lastTotal := 0
	r.SetProgress(func(done, total int, elapsed, eta time.Duration) {
		mu.Lock()
		dones = append(dones, done)
		lastTotal = total
		mu.Unlock()
	})
	if err := r.Prefetch(cells); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(dones) != len(cells) {
		t.Fatalf("got %d progress updates, want %d", len(dones), len(cells))
	}
	if lastTotal != len(cells) {
		t.Errorf("total = %d, want %d", lastTotal, len(cells))
	}
	seen := make(map[int]bool)
	for _, d := range dones {
		if d < 1 || d > len(cells) || seen[d] {
			t.Fatalf("bad done sequence %v", dones)
		}
		seen[d] = true
	}
	if !seen[len(cells)] {
		t.Errorf("final update missing: %v", dones)
	}
}

// TestStreamedCellsUnderWorkerPool exercises the streaming trace path —
// every cell feeds its simulator from lazy cursors — across a Fig 17-weak
// style grid of scaled kernels on scaled machines at -j 8, and requires the
// pooled results to equal the serial harness. Run under -race (the full
// verify recipe does) this also checks the generators share no mutable
// state between concurrently simulated cells.
func TestStreamedCellsUnderWorkerPool(t *testing.T) {
	var cells []Cell
	for _, name := range []string{"galgel", "bodytrack"} {
		for _, cores := range []int{12, 24} {
			k, err := workloads.Scaled(name, (cores+11)/12) // the Fig17Weak growth rule
			if err != nil {
				t.Fatal(err)
			}
			m, err := topology.ScaleDunnington(cores)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []repro.Scheme{repro.SchemeBase, repro.SchemeTopologyAware} {
				cells = append(cells, Cell{Kernel: k, Machine: m, Scheme: s, Config: repro.DefaultConfig()})
			}
		}
	}
	cycles := func(workers int) []uint64 {
		r := NewRunner()
		r.SetWorkers(workers)
		runs, err := r.RunCells(cells)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out := make([]uint64, len(runs))
		for i, run := range runs {
			out[i] = run.Sim.TotalCycles
		}
		return out
	}
	want := cycles(1)
	got := cycles(8)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("j=8: streamed cell %d (%s) = %d cycles, serial got %d",
				i, cells[i].Key(), got[i], want[i])
		}
	}
}

// TestCrossEvaluateMemoized: cross-machine cells are cached like any other.
func TestCrossEvaluateMemoized(t *testing.T) {
	fig5, _ := workloads.ByName("fig5")
	r := NewRunner()
	cfg := repro.DefaultConfig()
	a, err := r.CrossEvaluate(fig5, topology.Dunnington(), topology.Nehalem(), repro.SchemeCombined, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.CrossEvaluate(fig5, topology.Dunnington(), topology.Nehalem(), repro.SchemeCombined, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cross-evaluation was not memoized")
	}
	// The native cell must not collide with the cross cell.
	native, err := r.Evaluate(fig5, topology.Nehalem(), repro.SchemeCombined, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if native == a {
		t.Error("cross cell collided with native cell")
	}
}

// TestCellMetricsRecorded: every computed cell logs wall time and cycles.
func TestCellMetricsRecorded(t *testing.T) {
	cells := smallGrid(t)
	r := NewRunner()
	r.SetWorkers(2)
	if err := r.Prefetch(cells); err != nil {
		t.Fatal(err)
	}
	stats := r.Metrics().Stats()
	if len(stats) == 0 {
		t.Fatal("no cell metrics recorded")
	}
	for _, s := range stats {
		if s.Wall <= 0 {
			t.Errorf("cell %s: non-positive wall time", s.Key)
		}
		if s.SimCycles == 0 {
			t.Errorf("cell %s: zero simulated cycles", s.Key)
		}
		if s.Accesses == 0 {
			t.Errorf("cell %s: zero simulated accesses", s.Key)
		}
	}
	if sum := r.Metrics().Summary(3); !strings.Contains(sum, "cells") {
		t.Errorf("summary malformed: %q", sum)
	}
}
