package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/chaos"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// chaosCellFor searches kernel × machine × scheme space for a cell the
// injector assigns the wanted fault class under some small seed. The search
// is deterministic, so each test run exercises the same cell.
func chaosCellFor(t *testing.T, want chaos.Fault) (int64, Cell) {
	t.Helper()
	kernels := workloads.All()
	machines := topology.Commercial()
	schemes := []repro.Scheme{repro.SchemeBase, repro.SchemeTopologyAware, repro.SchemeCombined}
	for seed := int64(1); seed <= 16; seed++ {
		for _, k := range kernels {
			for _, m := range machines {
				for _, s := range schemes {
					if f, ok := repro.ChaosFaultFor(seed, k.Name, m.Name, "", s); ok && f == want {
						return seed, Cell{Kernel: k, Machine: m, Scheme: s, Config: repro.DefaultConfig()}
					}
				}
			}
		}
	}
	t.Fatalf("no cell resolves to fault %v within 16 seeds", want)
	return 0, Cell{}
}

// TestChaosFaultClassesDetected is the chaos acceptance matrix: every
// injectable fault class, run on a cell the injector actually poisons with
// it, is caught by the checking layer the fault was designed to slip past
// everything else — stream-structure faults by the runtime invariants,
// semantic faults (a flipped address bit, a perturbed replacement decision)
// by the differential oracle. Each detection writes a replay bundle whose
// re-execution reproduces the same failure stage.
func TestChaosFaultClassesDetected(t *testing.T) {
	wantStage := map[chaos.Fault]string{
		chaos.BitFlip:     "diverged",
		chaos.Truncate:    "invariant",
		chaos.Duplicate:   "invariant",
		chaos.BadIndex:    "invariant",
		chaos.Replacement: "diverged",
	}
	dir := t.TempDir()
	for _, f := range chaos.Injectable() {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			seed, c := chaosCellFor(t, f)
			r := NewRunner()
			r.SetChaos(seed)
			r.SetReplayDir(dir)
			_, err := r.Evaluate(c.Kernel, c.Machine, c.Scheme, c.Config)
			if err == nil {
				t.Fatalf("fault %v on %s (seed %d) was not detected", f, c.Key(), seed)
			}
			var ce *CellError
			if !errors.As(err, &ce) {
				t.Fatalf("error is %T, want *CellError: %v", err, err)
			}
			if ce.Stage != wantStage[f] {
				t.Errorf("fault %v detected at stage %q, want %q: %v", f, ce.Stage, wantStage[f], err)
			}
			// The structured cause survives the CellError wrapping.
			var ie *repro.InvariantError
			var de *repro.DivergenceError
			switch wantStage[f] {
			case "invariant":
				if !errors.As(err, &ie) {
					t.Errorf("fault %v error does not unwrap to *InvariantError: %v", f, err)
				}
			case "diverged":
				if !errors.As(err, &de) {
					t.Errorf("fault %v error does not unwrap to *DivergenceError: %v", f, err)
				}
			}

			if ce.Bundle == "" {
				t.Fatalf("fault %v detection wrote no replay bundle: %v", f, err)
			}
			b, err := LoadBundle(ce.Bundle)
			if err != nil {
				t.Fatalf("bundle written for %v does not load: %v", f, err)
			}
			if b.Fault != f.String() {
				t.Errorf("bundle records fault %q, want %q", b.Fault, f.String())
			}
			if b.Stage != ce.Stage {
				t.Errorf("bundle records stage %q, CellError has %q", b.Stage, ce.Stage)
			}
			_, rerr := Replay(context.Background(), b)
			if rerr == nil {
				t.Fatalf("replay of %v bundle did not reproduce the failure", f)
			}
			if got := StageOf(rerr); got != ce.Stage {
				t.Errorf("replay of %v failed at stage %q, original was %q: %v", f, got, ce.Stage, rerr)
			}
		})
	}
}

// TestChaosGridDegradesOnlyPoisonedCells: under an armed fault injector,
// every poisoned cell is detected and rendered as a failure while every
// healthy cell's result is byte-identical to a clean run's — corruption
// never leaks a wrong number into a neighboring cell. The chaos sweep's
// checkpoint stays empty (header only): poisoned sweeps exist to test the
// detectors, never to persist results.
func TestChaosGridDegradesOnlyPoisonedCells(t *testing.T) {
	cells := smallGrid(t)
	var seed int64
	poisoned := map[string]bool{}
	for s := int64(1); s <= 64; s++ {
		p := map[string]bool{}
		for _, c := range cells {
			if _, ok := repro.ChaosFaultFor(s, c.Kernel.Name, c.Machine.Name, "", c.Scheme); ok {
				p[c.Key()] = true
			}
		}
		if len(p) > 0 && len(p) < len(cells) {
			seed, poisoned = s, p
			break
		}
	}
	if seed == 0 {
		t.Fatal("no seed within 64 poisons a strict subset of the grid")
	}

	clean := NewRunner()
	clean.SetWorkers(4)
	cleanRuns, err := clean.RunCells(cells)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "chaos.ckpt")
	r := NewRunner()
	r.SetWorkers(4)
	r.SetChaos(seed)
	if _, err := r.SetCheckpoint(ckpt, GridSignature("chaos-grid")); err != nil {
		t.Fatal(err)
	}
	runs, err := r.RunCells(cells)
	if err == nil {
		t.Fatal("poisoned grid reported no failure")
	}
	if err := r.CloseCheckpoint(); err != nil {
		t.Fatal(err)
	}

	for i, c := range cells {
		key := c.Key()
		if poisoned[key] {
			if runs[i] != nil {
				t.Errorf("poisoned cell %s (seed %d) went undetected", key, seed)
			}
			continue
		}
		if runs[i] == nil {
			t.Errorf("healthy cell %s failed under the chaos sweep", key)
			continue
		}
		if !reflect.DeepEqual(runs[i].Sim, cleanRuns[i].Sim) {
			t.Errorf("healthy cell %s differs from the clean run under chaos", key)
		}
	}
	for _, f := range r.Failures() {
		if !poisoned[f.Key] {
			t.Errorf("unpoisoned cell %s stands failed: %v", f.Key, f.Err)
		}
	}

	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, l := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(l) != "" {
			lines++
		}
	}
	if lines != 1 {
		t.Errorf("chaos sweep checkpoint holds %d lines, want 1 (header only)", lines)
	}
}

// TestFailuresSortedByKey: the standing-failure listing (what the tools
// print on stderr at exit) is ordered by cell key regardless of worker
// count or completion order.
func TestFailuresSortedByKey(t *testing.T) {
	fig5, err := workloads.ByName("fig5")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := workloads.ByName("sp")
	if err != nil {
		t.Fatal(err)
	}
	var bad []Cell
	for _, k := range []*workloads.Kernel{sp, fig5} {
		for _, m := range []*topology.Machine{topology.Nehalem(), topology.Dunnington()} {
			bad = append(bad, Cell{Kernel: k, Machine: m, Scheme: repro.Scheme(99), Config: repro.DefaultConfig()})
		}
	}
	r := NewRunner()
	r.SetWorkers(4)
	if _, err := r.RunCells(bad); err == nil {
		t.Fatal("invalid-scheme cells did not fail")
	}
	fails := r.Failures()
	if len(fails) != len(bad) {
		t.Fatalf("Failures() = %d entries, want %d", len(fails), len(bad))
	}
	for i := 1; i < len(fails); i++ {
		if fails[i-1].Key >= fails[i].Key {
			t.Errorf("Failures() out of order: %q before %q", fails[i-1].Key, fails[i].Key)
		}
	}
}
