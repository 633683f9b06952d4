package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/poly"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// panicKernel builds a kernel that passes upfront validation (declared
// array, matching subscript count) but whose subscript expression spans
// more variables than the nest has loops, so evaluating it at an iteration
// point panics deep inside the address computation at simulate time.
func panicKernel() *workloads.Kernel {
	a := poly.NewArray("boom", 64)
	nest := poly.NewNest(poly.RectLoop("i", 0, 7), poly.RectLoop("j", 0, 7))
	return &workloads.Kernel{
		Name:   "panic-inject",
		Arrays: []*poly.Array{a},
		Nest:   nest,
		Refs:   []*poly.Ref{poly.NewRef(a, poly.Read, poly.Var(4, 5))},
	}
}

// TestPanicContainment is the tentpole acceptance test: a cell whose kernel
// panics mid-simulation becomes a structured *CellError carrying the cell
// key and a stack trace, the process does not crash, and every other cell
// of the grid completes with results byte-identical to a run that never saw
// the poisoned cell.
func TestPanicContainment(t *testing.T) {
	good := smallGrid(t)
	bad := Cell{Kernel: panicKernel(), Machine: topology.Dunnington(),
		Scheme: repro.SchemeBase, Config: repro.DefaultConfig()}

	want := make(map[string]uint64)
	clean := NewRunner()
	clean.SetWorkers(4)
	cleanRuns, err := clean.RunCells(good)
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range cleanRuns {
		want[good[i].Key()] = run.Sim.TotalCycles
	}

	mixed := append([]Cell{}, good[:3]...)
	mixed = append(mixed, bad)
	mixed = append(mixed, good[3:]...)
	r := NewRunner()
	r.SetWorkers(4)
	runs, err := r.RunCells(mixed)
	if err == nil {
		t.Fatal("expected the poisoned cell to fail")
	}
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *CellError: %v", err, err)
	}
	if ce.Key != bad.Key() {
		t.Errorf("CellError.Key = %q, want %q", ce.Key, bad.Key())
	}
	if len(ce.Stack) == 0 {
		t.Error("CellError.Stack is empty for a contained panic")
	}
	var pe *repro.PanicError
	if !errors.As(err, &pe) {
		t.Errorf("CellError does not unwrap to *repro.PanicError: %v", err)
	} else if ce.Stage != pe.Stage {
		t.Errorf("CellError.Stage = %q, PanicError stage = %q", ce.Stage, pe.Stage)
	}

	for i, c := range mixed {
		if c.Key() == bad.Key() {
			if runs[i] != nil {
				t.Error("poisoned cell returned a non-nil run")
			}
			continue
		}
		if runs[i] == nil {
			t.Fatalf("healthy cell %s returned nil alongside the poisoned cell", c.Key())
		}
		if got := runs[i].Sim.TotalCycles; got != want[c.Key()] {
			t.Errorf("cell %s = %d cycles with poisoned neighbor, %d without", c.Key(), got, want[c.Key()])
		}
	}

	fails := r.Failures()
	if len(fails) != 1 || fails[0].Key != bad.Key() {
		t.Errorf("Failures() = %v, want exactly the poisoned cell", fails)
	}
}

// TestGridCancellation: cancelling the sweep context stops the grid
// promptly, cells skipped by the cancellation are not falsely memoized, and
// a re-run on a live context completes every cell.
func TestGridCancellation(t *testing.T) {
	cells := smallGrid(t)
	r := NewRunner()
	r.SetWorkers(2)
	ctx, cancel := context.WithCancel(context.Background())
	r.SetProgress(func(done, total int, elapsed, eta time.Duration) {
		if done == 1 {
			cancel()
		}
	})
	runs, err := r.RunCellsContext(ctx, cells)
	cancel()
	if err == nil {
		t.Fatal("expected an error from the cancelled sweep")
	}
	var ce *CellError
	if errors.As(err, &ce) && ce.Stage != "canceled" && ce.Stage != "timeout" {
		// The first error in cell order may also be a completed cell's; only
		// check classification when the cancellation itself surfaced.
		for _, f := range r.Failures() {
			if f.Stage != "canceled" {
				t.Errorf("failure %s classified %q, want canceled", f.Key, f.Stage)
			}
		}
	}
	nils := 0
	for _, run := range runs {
		if run == nil {
			nils++
		}
	}
	if nils == 0 {
		t.Error("cancellation after one cell left no cell unfinished")
	}

	r.SetProgress(nil)
	runs, err = r.RunCells(cells)
	if err != nil {
		t.Fatalf("re-run on live context failed: %v", err)
	}
	for i, run := range runs {
		if run == nil {
			t.Fatalf("cell %s still nil after re-run", cells[i].Key())
		}
	}
	if len(r.Failures()) != 0 {
		t.Errorf("failures remain after successful re-run: %v", r.Failures())
	}
}

// TestCheckpointResume: a second runner pointed at the first runner's
// checkpoint file serves every cell from disk — zero pipeline evaluations,
// verified by the cell-evaluation counter — and reproduces identical
// simulation results.
func TestCheckpointResume(t *testing.T) {
	cells := smallGrid(t)
	path := filepath.Join(t.TempDir(), "grid.ckpt")

	first := NewRunner()
	first.SetWorkers(4)
	grid := GridSignature("faults-test")
	if n, err := first.SetCheckpoint(path, grid); err != nil || n != 0 {
		t.Fatalf("SetCheckpoint = %d, %v on a fresh file", n, err)
	}
	firstRuns, err := first.RunCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.CloseCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if first.Evaluations() == 0 {
		t.Fatal("first run recorded zero evaluations")
	}

	second := NewRunner()
	second.SetWorkers(4)
	n, err := second.SetCheckpoint(path, grid)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no cells restored from checkpoint")
	}
	secondRuns, err := second.RunCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	if got := second.Evaluations(); got != 0 {
		t.Errorf("checkpointed re-run executed %d evaluations, want 0", got)
	}
	if got := second.RestoredCells(); got == 0 {
		t.Error("checkpointed re-run restored zero cells")
	}
	for i := range cells {
		if secondRuns[i].Sim.TotalCycles != firstRuns[i].Sim.TotalCycles {
			t.Errorf("cell %s: restored %d cycles, computed %d",
				cells[i].Key(), secondRuns[i].Sim.TotalCycles, firstRuns[i].Sim.TotalCycles)
		}
		if secondRuns[i].Groups != firstRuns[i].Groups || secondRuns[i].HasDeps != firstRuns[i].HasDeps {
			t.Errorf("cell %s: restored Groups/HasDeps differ", cells[i].Key())
		}
	}
	if err := second.CloseCheckpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestFig20ResumesFromCheckpoint: a restored checkpoint record carries no
// Mapping, so Fig 20 must render from restored cells exactly as it did when
// it computed them.
func TestFig20ResumesFromCheckpoint(t *testing.T) {
	fig5, err := workloads.ByName("fig5")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Kernels: []*workloads.Kernel{fig5}, Quick: true}
	path := filepath.Join(t.TempDir(), "fig20.ckpt")
	grid := GridSignature("fig20-resume")
	render := func() (string, *Runner) {
		r := NewRunner()
		if _, err := r.SetCheckpoint(path, grid); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := r.CloseCheckpoint(); err != nil {
				t.Fatal(err)
			}
		}()
		out, err := Fig20(r, opt)
		if err != nil {
			t.Fatal(err)
		}
		return out, r
	}
	want, _ := render()
	got, resumed := render()
	if resumed.RestoredCells() == 0 {
		t.Fatal("resumed Fig 20 restored no cells")
	}
	if got != want {
		t.Errorf("resumed Fig 20 differs from the first render\nfirst:\n%s\nresumed:\n%s", want, got)
	}
}

// TestCheckpointSkipsTornLine: a truncated final record (a crash mid-
// append) costs one cell, not the checkpoint.
func TestCheckpointSkipsTornLine(t *testing.T) {
	fig5, _ := workloads.ByName("fig5")
	c := Cell{Kernel: fig5, Machine: topology.Dunnington(), Scheme: repro.SchemeBase, Config: repro.DefaultConfig()}
	path := filepath.Join(t.TempDir(), "torn.ckpt")

	grid := GridSignature("torn-test")
	first := NewRunner()
	if _, err := first.SetCheckpoint(path, grid); err != nil {
		t.Fatal(err)
	}
	if _, err := first.RunCells([]Cell{c}); err != nil {
		t.Fatal(err)
	}
	if err := first.CloseCheckpoint(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(data, []byte(`{"key":"half-written`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	second := NewRunner()
	n, err := second.SetCheckpoint(path, grid)
	if err != nil {
		t.Fatalf("torn checkpoint rejected: %v", err)
	}
	if n != 1 {
		t.Errorf("restored %d cells from torn checkpoint, want 1", n)
	}
	if err := second.CloseCheckpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestCellTimeout: a per-cell wall-time budget classifies the overrun as
// stage "timeout" and leaves other cells untouched.
func TestCellTimeout(t *testing.T) {
	fig5, _ := workloads.ByName("fig5")
	c := Cell{Kernel: fig5, Machine: topology.Dunnington(), Scheme: repro.SchemeBase, Config: repro.DefaultConfig()}
	r := NewRunner()
	r.SetTimeout(time.Nanosecond)
	_, err := r.Evaluate(c.Kernel, c.Machine, c.Scheme, c.Config)
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *CellError: %v", err, err)
	}
	if ce.Stage != "timeout" {
		t.Errorf("stage = %q, want timeout", ce.Stage)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timeout error does not unwrap to DeadlineExceeded: %v", err)
	}
	if !strings.Contains(err.Error(), "wall-time budget") {
		t.Errorf("timeout error does not name the exhausted budget: %v", err)
	}

	// Timeout errors are memoized like any other cell error (so rendering
	// replays the prefetch's failure), but never checkpointed: a fresh
	// runner — a re-run of the sweep — recomputes the cell cleanly.
	r2 := NewRunner()
	if _, err := r2.Evaluate(c.Kernel, c.Machine, c.Scheme, c.Config); err != nil {
		t.Fatalf("fresh runner without timeout failed: %v", err)
	}
}

// TestCycleBudget: a simulated-cycle budget aborts the cell with stage
// "cycle-budget", and a cell whose own config sets a budget keeps it.
func TestCycleBudget(t *testing.T) {
	fig5, _ := workloads.ByName("fig5")
	c := Cell{Kernel: fig5, Machine: topology.Dunnington(), Scheme: repro.SchemeBase, Config: repro.DefaultConfig()}
	r := NewRunner()
	r.SetMaxCycles(1)
	_, err := r.Evaluate(c.Kernel, c.Machine, c.Scheme, c.Config)
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *CellError: %v", err, err)
	}
	if ce.Stage != "cycle-budget" {
		t.Errorf("stage = %q, want cycle-budget", ce.Stage)
	}

	// The budget is an execution guard, not experiment identity: the cell
	// key is unchanged, yet a runner without the guard computes it fine.
	r2 := NewRunner()
	if _, err := r2.Evaluate(c.Kernel, c.Machine, c.Scheme, c.Config); err != nil {
		t.Fatalf("cell without budget failed: %v", err)
	}
}

// TestRetries: a deterministic failure consumes every allowed attempt and
// reports the count; the evaluation counter sees each attempt.
func TestRetries(t *testing.T) {
	fig5, _ := workloads.ByName("fig5")
	bad := Cell{Kernel: fig5, Machine: topology.Dunnington(), Scheme: repro.Scheme(99), Config: repro.DefaultConfig()}
	r := NewRunner()
	r.SetRetries(2)
	_, err := r.Evaluate(bad.Kernel, bad.Machine, bad.Scheme, bad.Config)
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *CellError: %v", err, err)
	}
	if ce.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3 (1 + 2 retries)", ce.Attempts)
	}
	if got := r.Evaluations(); got != 3 {
		t.Errorf("Evaluations() = %d, want 3", got)
	}
}

// TestValidationErrors: malformed inputs are rejected up front with stage
// "validate" instead of panicking deep in the pipeline.
func TestValidationErrors(t *testing.T) {
	fig5, _ := workloads.ByName("fig5")
	m := topology.Dunnington()
	r := NewRunner()
	def := repro.DefaultConfig()
	negBlock := def
	negBlock.BlockBytes = -5
	cases := []struct {
		name string
		k    *workloads.Kernel
		m    *topology.Machine
		cfg  repro.Config
	}{
		{"nil kernel", nil, m, def},
		{"nil machine", fig5, nil, def},
		{"no refs", &workloads.Kernel{Name: "empty", Nest: fig5.Nest, Arrays: fig5.Arrays}, m, def},
		{"negative block size", fig5, m, negBlock},
	}
	for _, tc := range cases {
		_, err := r.Evaluate(tc.k, tc.m, repro.SchemeBase, tc.cfg)
		if !errors.Is(err, repro.ErrInvalidInput) {
			t.Errorf("%s: error %v does not wrap ErrInvalidInput", tc.name, err)
			continue
		}
		var ce *CellError
		if errors.As(err, &ce) && ce.Stage != "validate" {
			t.Errorf("%s: stage = %q, want validate", tc.name, ce.Stage)
		}
	}
}

// TestFig13DegradesPerKernel: a poisoned kernel in the workload set renders
// as a "fail" row while the healthy kernels' ratios and the miss-reduction
// summary still appear — the driver reports partial results instead of
// aborting the figure.
func TestFig13DegradesPerKernel(t *testing.T) {
	fig5, _ := workloads.ByName("fig5")
	opt := Options{Kernels: []*workloads.Kernel{fig5, panicKernel()}, Quick: true}
	r := NewRunner()
	r.SetWorkers(2)
	res, err := Fig13(r, opt)
	if err != nil {
		t.Fatalf("Fig13 aborted instead of degrading: %v", err)
	}
	if !strings.Contains(res.Rendered, "fail") {
		t.Error("rendering does not mark the poisoned kernel as failed")
	}
	if !strings.Contains(res.Rendered, "fig5") {
		t.Error("rendering lost the healthy kernel")
	}
	if !strings.Contains(res.Rendered, "miss reduction by TopologyAware") {
		t.Error("miss-reduction summary missing despite a healthy kernel")
	}
	if _, ok := res.PerMachine["Dunnington"]["fig5"]; !ok {
		t.Error("healthy kernel missing from PerMachine results")
	}
	if _, ok := res.PerMachine["Dunnington"]["panic-inject"]; ok {
		t.Error("poisoned kernel leaked into PerMachine results")
	}
	if len(r.Failures()) == 0 {
		t.Error("no failures recorded for the poisoned kernel")
	}
}

// TestFig15DegradesPerKernel: same contract for the scheduling study.
func TestFig15DegradesPerKernel(t *testing.T) {
	fig5, _ := workloads.ByName("fig5")
	opt := Options{Kernels: []*workloads.Kernel{fig5, panicKernel()}, Quick: true}
	r := NewRunner()
	r.SetWorkers(2)
	out, err := Fig15(r, opt)
	if err != nil {
		t.Fatalf("Fig15 aborted instead of degrading: %v", err)
	}
	if !strings.Contains(out, "fail") || !strings.Contains(out, "fig5") {
		t.Errorf("Fig15 degradation rendering wrong:\n%s", out)
	}
}
