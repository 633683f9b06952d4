package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// ReplayBundle is the on-disk record of one failed self-check: everything
// needed to re-execute exactly that cell — kernel, machines, scheme, the
// distinguishing config fields and the chaos seed — plus what failed, for
// the human reading it. benchtool -replay <bundle> re-runs the cell with
// full checking and a materialized trace.
//
// Only named kernels and machines replay: a scaled kernel ("<name>-x4") or
// a synthesized machine has no registry entry to rebuild it from, and the
// load reports that clearly instead of replaying the wrong cell.
type ReplayBundle struct {
	// Key is the failing cell's canonical identity (Cell.Key()).
	Key string `json:"key"`
	// Kernel and Machine name the cell's workload and execution machine.
	Kernel  string `json:"kernel"`
	Machine string `json:"machine"`
	// MapMachine names the mapping machine for cross-evaluated cells.
	MapMachine string `json:"map_machine,omitempty"`
	// Scheme is the mapping scheme (repro.Scheme ordinal); SchemeName
	// restates it for readers.
	Scheme     int    `json:"scheme"`
	SchemeName string `json:"scheme_name"`
	// Config carries the cell's distinguishing configuration.
	Config BundleConfig `json:"config"`
	// ChaosSeed is the fault-injector seed the cell ran under (0 = none)
	// and Fault the class it resolved to for this cell.
	ChaosSeed int64  `json:"chaos_seed,omitempty"`
	Fault     string `json:"fault,omitempty"`
	// Stage, Error and AccessIndex describe the detection: the runner's
	// failure stage, the error text, and the access-stream position the
	// check fired at (-1 when the failure is not tied to one access).
	Stage       string `json:"stage"`
	Error       string `json:"error"`
	AccessIndex int64  `json:"access_index"`
	// Attempts is how many evaluation attempts the cell made before the
	// bundle was written.
	Attempts int `json:"attempts"`
}

// BundleConfig is repro.Config flattened to JSON-stable scalars. MapView is
// stored by machine name (repro.Config holds a pointer whose node tree has
// parent cycles JSON cannot express).
type BundleConfig struct {
	BlockBytes       int64   `json:"block_bytes"`
	BalanceThreshold float64 `json:"balance_threshold"`
	Alpha            float64 `json:"alpha"`
	Beta             float64 `json:"beta"`
	Deps             int     `json:"deps"`
	MaxGroups        int     `json:"max_groups,omitempty"`
	MapView          string  `json:"map_view,omitempty"`
	NoMergeCap       bool    `json:"no_merge_cap,omitempty"`
	NoPolish         bool    `json:"no_polish,omitempty"`
	HammingSched     bool    `json:"hamming_sched,omitempty"`
	Passes           int     `json:"passes,omitempty"`
	MaxSimCycles     uint64  `json:"max_sim_cycles,omitempty"`
}

// bundleConfig flattens a cell's config for the bundle.
//
//topovet:keyof repro.Config exempt=Materialize,Check,ChaosSeed -- replay pins Materialize and CheckFull on reconstruction, and the chaos seed rides the bundle's own ChaosSeed field
func bundleConfig(cfg repro.Config) BundleConfig {
	b := BundleConfig{
		BlockBytes:       cfg.BlockBytes,
		BalanceThreshold: cfg.BalanceThreshold,
		Alpha:            cfg.Alpha,
		Beta:             cfg.Beta,
		Deps:             int(cfg.Deps),
		MaxGroups:        cfg.MaxGroups,
		NoMergeCap:       cfg.NoMergeCap,
		NoPolish:         cfg.NoPolish,
		HammingSched:     cfg.HammingSched,
		Passes:           cfg.Passes,
		MaxSimCycles:     cfg.MaxSimCycles,
	}
	if cfg.MapView != nil {
		b.MapView = cfg.MapView.Name
	}
	return b
}

// bundleStages are the failure stages worth a replay bundle: the
// self-checking detections plus contained panics. Budget and cancellation
// failures are execution-guard outcomes, not suspected simulator bugs.
func bundleStage(stage string) bool {
	return stage == "invariant" || stage == "diverged" || stage == "oracle" || stage == "panic"
}

// writeReplayBundle persists a replay bundle for a qualifying cell failure
// and records its path in the CellError. Write failures are reported on
// stderr but never mask the cell's own error.
func (r *Runner) writeReplayBundle(c Cell, ce *CellError) {
	r.mu.Lock()
	dir := r.replayDir
	seed := r.chaosSeed
	r.mu.Unlock()
	if dir == "" || !bundleStage(ce.Stage) {
		return
	}
	if c.Config.ChaosSeed != 0 {
		seed = c.Config.ChaosSeed
	}
	b := &ReplayBundle{
		Key:         ce.Key,
		Scheme:      int(c.Scheme),
		SchemeName:  c.Scheme.String(),
		Config:      bundleConfig(c.Config),
		ChaosSeed:   seed,
		Stage:       ce.Stage,
		Error:       ce.Err.Error(),
		AccessIndex: -1,
		Attempts:    ce.Attempts,
	}
	if c.Kernel != nil {
		b.Kernel = c.Kernel.Name
	}
	if c.Machine != nil {
		b.Machine = c.Machine.Name
	}
	if c.MapMachine != nil {
		b.MapMachine = c.MapMachine.Name
	}
	var ie *repro.InvariantError
	var de *repro.DivergenceError
	switch {
	case errors.As(ce.Err, &ie):
		b.AccessIndex = ie.AccessIndex
	case errors.As(ce.Err, &de):
		b.AccessIndex = de.AccessIndex
	}
	if seed != 0 {
		if f, ok := repro.ChaosFaultFor(seed, b.Kernel, b.Machine, b.MapMachine, c.Scheme); ok {
			b.Fault = f.String()
		}
	}
	path := filepath.Join(dir, bundleFilename(ce.Key))
	data, err := json.MarshalIndent(b, "", "  ")
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		//lint:ignore cellboundary best-effort stderr diagnostic; a bundle that cannot be written must not turn a contained cell failure into a sweep failure
		fmt.Fprintf(os.Stderr, "experiments: replay bundle for %s: %v\n", ce.Key, err)
		return
	}
	ce.Bundle = path
}

// bundleFilename derives a deterministic, filesystem-safe name from the
// cell key, so re-running the same failing sweep overwrites rather than
// accumulates.
func bundleFilename(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key)) //lint:ignore cellboundary hash.Hash.Write never returns an error (hash package contract)
	return fmt.Sprintf("replay-%016x.json", h.Sum64())
}

// LoadBundle reads a replay bundle written by a previous run.
func LoadBundle(path string) (*ReplayBundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b := &ReplayBundle{}
	if err := json.Unmarshal(data, b); err != nil {
		return nil, fmt.Errorf("experiments: replay bundle %s: %w", path, err)
	}
	if b.Kernel == "" || b.Machine == "" {
		return nil, fmt.Errorf("experiments: replay bundle %s names no kernel/machine", path)
	}
	return b, nil
}

// Cell reconstructs the failing cell from the bundle with the replay
// overrides applied: full checking, a materialized trace, and the original
// chaos seed so the same fault is re-injected. Kernels and machines resolve
// by registry name; scaled or synthesized ones cannot be rebuilt from a
// name and return a descriptive error.
//
//topovet:keyof repro.Config
func (b *ReplayBundle) Cell() (Cell, error) {
	k, err := workloads.ByName(b.Kernel)
	if err != nil {
		return Cell{}, fmt.Errorf("experiments: replay: kernel %q is not a named Table 2 kernel (scaled/custom kernels cannot be replayed from a bundle): %w", b.Kernel, err)
	}
	m, err := topology.ByName(b.Machine)
	if err != nil {
		return Cell{}, fmt.Errorf("experiments: replay: machine %q is not a named machine: %w", b.Machine, err)
	}
	c := Cell{Kernel: k, Machine: m}
	if b.MapMachine != "" {
		if c.MapMachine, err = topology.ByName(b.MapMachine); err != nil {
			return Cell{}, fmt.Errorf("experiments: replay: mapping machine %q is not a named machine: %w", b.MapMachine, err)
		}
	}
	if b.Scheme < 0 || repro.Scheme(b.Scheme) > repro.SchemeCombined {
		return Cell{}, fmt.Errorf("experiments: replay: scheme ordinal %d out of range", b.Scheme)
	}
	c.Scheme = repro.Scheme(b.Scheme)
	bc := b.Config
	c.Config = repro.Config{
		BlockBytes:       bc.BlockBytes,
		BalanceThreshold: bc.BalanceThreshold,
		Alpha:            bc.Alpha,
		Beta:             bc.Beta,
		Deps:             repro.DepsMode(bc.Deps),
		MaxGroups:        bc.MaxGroups,
		NoMergeCap:       bc.NoMergeCap,
		NoPolish:         bc.NoPolish,
		HammingSched:     bc.HammingSched,
		Passes:           bc.Passes,
		MaxSimCycles:     bc.MaxSimCycles,
		Materialize:      true,
		Check:            repro.CheckFull,
		ChaosSeed:        b.ChaosSeed,
	}
	if bc.MapView != "" {
		if c.Config.MapView, err = topology.ByName(bc.MapView); err != nil {
			return Cell{}, fmt.Errorf("experiments: replay: map-view machine %q is not a named machine: %w", bc.MapView, err)
		}
	}
	return c, nil
}

// Replay re-executes the bundle's cell with the replay overrides and
// returns what the fresh evaluation produced. A reproduced failure comes
// back as the error (classify it with StageOf); a nil error means the
// failure did not reproduce.
func Replay(ctx context.Context, b *ReplayBundle) (*repro.Run, error) {
	c, err := b.Cell()
	if err != nil {
		return nil, err
	}
	if c.MapMachine != nil {
		return repro.CrossEvaluateContext(ctx, c.Kernel, c.MapMachine, c.Machine, c.Scheme, c.Config)
	}
	return repro.EvaluateContext(ctx, c.Kernel, c.Machine, c.Scheme, c.Config)
}

// StageOf classifies an evaluation error the way the runner does
// ("invariant", "diverged", "panic", ...), for callers comparing a replay
// outcome against a bundle's recorded stage.
func StageOf(err error) string {
	var ce *CellError
	if errors.As(err, &ce) {
		return ce.Stage
	}
	stage, _ := classifyStage(err)
	return stage
}
