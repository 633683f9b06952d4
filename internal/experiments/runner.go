package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// Cell identifies one point of the experiment grid: one kernel mapped onto
// one machine under one scheme and configuration. Every cell is an
// independent job — a self-contained discrete-event simulation with no
// shared mutable state — which is what lets the runner execute the grid on
// a worker pool.
type Cell struct {
	Kernel  *workloads.Kernel
	Machine *topology.Machine
	// MapMachine, when non-nil, requests cross-evaluation: the mapping is
	// computed for MapMachine's topology but executed on Machine (the
	// porting studies of Figures 2 and 14).
	MapMachine *topology.Machine
	Scheme     repro.Scheme
	Config     repro.Config
}

// Key returns the cell's canonical identity: the memoization key under
// which its result is cached and checkpointed, and the sort key under which
// aggregated results are reported. Two cells with equal keys are the same
// experiment. Execution guards (per-cell timeouts, cycle budgets, retries)
// are deliberately not part of the key: they bound how a cell runs, not
// what it computes, and a guard-aborted cell yields an error, which is
// never checkpointed.
//
//topovet:keyof Cell
//topovet:keyof repro.Config exempt=MaxSimCycles -- execution knob: MaxSimCycles bounds how a cell runs (a budget-aborted cell yields an error and is never checkpointed)
func (c Cell) Key() string {
	kname, mname := "<nil>", "<nil>"
	if c.Kernel != nil {
		kname = c.Kernel.Name
	}
	if c.Machine != nil {
		mname = c.Machine.Name
	}
	cfg := c.Config
	key := fmt.Sprintf("%s|%s|%v|%d|%g|%g|%g|%d|%v|%v|%v|%v|%d|%v", kname, mname, c.Scheme,
		cfg.BlockBytes, cfg.BalanceThreshold, cfg.Alpha, cfg.Beta, cfg.MaxGroups, cfg.Deps,
		cfg.NoMergeCap, cfg.NoPolish, cfg.HammingSched, cfg.Passes, cfg.Materialize)
	if cfg.MapView != nil {
		key += "|view=" + cfg.MapView.Name
	}
	if c.MapMachine != nil {
		key += "|mapfor=" + c.MapMachine.Name
	}
	// Self-checking is part of the identity when armed: a chaos seed changes
	// what a poisoned cell computes, and a checked cell's result certifies
	// more than an unchecked one, so neither may be served from the other's
	// memo or checkpoint. Defaults add nothing, keeping old keys valid.
	if cfg.Check != repro.CheckOff {
		key += "|check=" + cfg.Check.String()
	}
	if cfg.ChaosSeed != 0 {
		key += fmt.Sprintf("|chaos=%d", cfg.ChaosSeed)
	}
	return key
}

// ProgressFunc receives completion updates while a grid executes: cells
// done so far, the total, elapsed wall time, and the estimated time to
// completion (zero until the first cell lands). The runner serializes
// calls, so implementations need no locking of their own.
type ProgressFunc func(done, total int, elapsed, eta time.Duration)

// cacheEntry is one memoized cell. The sync.Once gives single-flight
// semantics: concurrent workers asking for the same cell share one
// computation instead of racing to duplicate it.
type cacheEntry struct {
	once sync.Once
	run  *repro.Run
	err  error
}

// Runner executes experiment-grid cells, memoizing results so one
// experiment's Base runs are reused by the next. Cells run either inline
// (Evaluate/CrossEvaluate) or batched on a bounded worker pool (RunCells/
// Prefetch). Results are keyed and aggregated by cell, never by completion
// order, so every output a driver renders is byte-identical to a serial
// run regardless of the pool size. Safe for concurrent use.
//
// The runner is also the grid's fault-isolation boundary. Every cell runs
// under panic containment: a panicking kernel becomes a *CellError carrying
// the cell key, pipeline stage and stack, the remaining cells complete
// normally, and Failures lists what was lost. Per-cell wall-time and
// simulated-cycle budgets (SetTimeout/SetMaxCycles), bounded retry
// (SetRetries), cooperative cancellation (RunCellsContext/SetBaseContext)
// and checkpoint/resume (SetCheckpoint) complete the contract: a sweep
// degrades cell by cell instead of dying, and an interrupted sweep resumes
// without recomputing finished work.
type Runner struct {
	mu    sync.Mutex
	cache map[string]*cacheEntry

	workers   int
	baseCtx   context.Context
	timeout   time.Duration
	retries   int
	retryWait Backoff
	maxCycles uint64
	checkMode repro.CheckMode
	chaosSeed int64
	replayDir string

	// evals counts actual pipeline executions (including retries);
	// restored counts cells served from the checkpoint instead. Together
	// they verify a resumed sweep recomputes nothing.
	evals        atomic.Uint64
	restoredHits atomic.Uint64

	failMu   sync.Mutex
	failures map[string]*CellError

	ckptMu sync.Mutex
	ckpt   *CheckpointFile

	progressMu sync.Mutex
	progress   ProgressFunc
	log        metrics.CellLog
}

// NewRunner returns an empty memoizing runner executing cells serially
// (one worker) until SetWorkers raises the pool size, with no budgets, no
// retries and no checkpoint.
func NewRunner() *Runner {
	return &Runner{
		cache:    make(map[string]*cacheEntry),
		failures: make(map[string]*CellError),
		workers:  1,
	}
}

// SetWorkers bounds the worker pool RunCells uses: n <= 0 selects
// GOMAXPROCS, n == 1 reproduces the serial harness exactly, larger n runs
// up to n cells concurrently. The aggregated results are identical at any
// setting; only wall-clock time changes.
func (r *Runner) SetWorkers(n int) {
	r.mu.Lock()
	r.workers = n
	r.mu.Unlock()
}

// Workers reports the effective pool size.
func (r *Runner) Workers() int {
	r.mu.Lock()
	n := r.workers
	r.mu.Unlock()
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// SetBaseContext installs the context the no-context entry points
// (Evaluate, CrossEvaluate, RunCells, Prefetch) run under, so drivers that
// only hold a Runner inherit sweep-wide cancellation without signature
// changes. nil restores context.Background().
func (r *Runner) SetBaseContext(ctx context.Context) {
	r.mu.Lock()
	r.baseCtx = ctx
	r.mu.Unlock()
}

// base returns the runner's base context.
func (r *Runner) base() context.Context {
	r.mu.Lock()
	ctx := r.baseCtx
	r.mu.Unlock()
	if ctx == nil {
		//lint:ignore ctxflow deliberate fallback: a runner used standalone (no SetBaseContext) has no sweep context to inherit, and Background here restores the pre-PR-4 behavior exactly
		return context.Background()
	}
	return ctx
}

// SetTimeout bounds each cell's wall-clock time (mapping + simulation);
// a cell past its budget fails with a "timeout" CellError while the rest
// of the grid continues. Zero (the default) means unlimited.
func (r *Runner) SetTimeout(d time.Duration) {
	r.mu.Lock()
	r.timeout = d
	r.mu.Unlock()
}

// SetRetries allows each failing cell up to n additional evaluation
// attempts before its error is recorded — insurance against transient
// failures in long sweeps. Attempts are separated by the jittered
// exponential backoff of SetRetryBackoff (defaulting to DefaultBackoff),
// so a transient shared cause — memory pressure, a co-tenant burst — has
// time to clear instead of being hammered immediately. Cancellation of the
// sweep context is never retried. Zero (the default) disables retry.
func (r *Runner) SetRetries(n int) {
	r.mu.Lock()
	r.retries = n
	r.mu.Unlock()
}

// SetRetryBackoff replaces the delay policy between a cell's retry
// attempts. The zero Backoff selects DefaultBackoff.
func (r *Runner) SetRetryBackoff(b Backoff) {
	r.mu.Lock()
	r.retryWait = b
	r.mu.Unlock()
}

// SetMaxCycles bounds each cell's simulated cycle count: any core's clock
// passing the budget aborts the cell with a "cycle-budget" CellError. Cells
// whose Config already sets MaxSimCycles keep their own bound. Zero (the
// default) means unlimited.
func (r *Runner) SetMaxCycles(n uint64) {
	r.mu.Lock()
	r.maxCycles = n
	r.mu.Unlock()
}

// SetCheck installs a default self-checking level applied to every cell
// whose Config leaves Check at CheckOff: CheckInvariants turns on the
// simulator's runtime invariants, CheckSampled adds the differential oracle
// on a deterministic one-in-four cell subset, CheckFull checks every cell.
// Cells that set their own Check keep it.
func (r *Runner) SetCheck(m repro.CheckMode) {
	r.mu.Lock()
	r.checkMode = m
	r.mu.Unlock()
}

// SetChaos arms the fault injector for every cell whose Config leaves
// ChaosSeed zero: roughly one cell in three is deterministically corrupted
// and must be caught by the checking layers (see internal/chaos). While a
// chaos seed is armed no cell is checkpointed — a poisoned sweep exists to
// test the detectors, not to produce reusable results. Zero disarms.
func (r *Runner) SetChaos(seed int64) {
	r.mu.Lock()
	r.chaosSeed = seed
	r.mu.Unlock()
}

// SetReplayDir selects where replay bundles are written: when a cell fails
// a self-check (stage "invariant" or "diverged") or panics, a JSON bundle
// identifying the cell, its config and chaos seed lands there, and
// benchtool -replay re-executes it with full checking. Empty disables
// bundle writing.
func (r *Runner) SetReplayDir(dir string) {
	r.mu.Lock()
	r.replayDir = dir
	r.mu.Unlock()
}

// SetProgress installs a callback invoked after every completed cell of a
// RunCells batch (nil disables reporting).
func (r *Runner) SetProgress(fn ProgressFunc) {
	r.progressMu.Lock()
	r.progress = fn
	r.progressMu.Unlock()
}

// Metrics exposes the per-cell execution log: wall time, simulated cycles
// and allocation volume for every cell this runner computed (checkpoint-
// restored cells are not re-logged).
func (r *Runner) Metrics() *metrics.CellLog { return &r.log }

// Evaluations reports how many pipeline evaluations the runner has actually
// executed, counting retries and failed attempts but not memo hits or
// checkpoint restores. A fully checkpointed re-run reports zero.
func (r *Runner) Evaluations() uint64 { return r.evals.Load() }

// RestoredCells reports how many cells were served from the checkpoint
// instead of being recomputed.
func (r *Runner) RestoredCells() uint64 { return r.restoredHits.Load() }

// Failures returns the cells that currently stand failed, sorted by cell
// key. A cell that later succeeds (a retried transient, or a cancelled cell
// recomputed on a fresh context) is removed from the list.
func (r *Runner) Failures() []*CellError {
	r.failMu.Lock()
	out := make([]*CellError, 0, len(r.failures))
	for _, ce := range r.failures {
		out = append(out, ce)
	}
	r.failMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// recordFailure files (or clears, for err == nil) a cell's standing failure.
func (r *Runner) recordFailure(key string, ce *CellError) {
	r.failMu.Lock()
	if ce == nil {
		delete(r.failures, key)
	} else {
		r.failures[key] = ce
	}
	r.failMu.Unlock()
}

// Evaluate memoizes one cell keyed by kernel, machine, scheme and the
// distinguishing config fields. Concurrent callers of the same cell share
// a single computation.
func (r *Runner) Evaluate(k *workloads.Kernel, m *topology.Machine, s repro.Scheme, cfg repro.Config) (*repro.Run, error) {
	return r.runCell(r.base(), Cell{Kernel: k, Machine: m, Scheme: s, Config: cfg})
}

// CrossEvaluate memoizes repro.CrossEvaluate: the kernel is mapped for
// mapM's topology but executed on runM.
func (r *Runner) CrossEvaluate(k *workloads.Kernel, mapM, runM *topology.Machine, s repro.Scheme, cfg repro.Config) (*repro.Run, error) {
	return r.runCell(r.base(), Cell{Kernel: k, Machine: runM, MapMachine: mapM, Scheme: s, Config: cfg})
}

// runCell returns the cell's memoized result, computing and instrumenting
// it on first use. Errors are memoized too, so the serial rendering path
// reports the same failure a prefetch encountered — with one exception:
// failures caused by the sweep context being cancelled are evicted, so a
// later run on a live context recomputes them instead of replaying the
// cancellation.
func (r *Runner) runCell(ctx context.Context, c Cell) (*repro.Run, error) {
	key := c.Key()
	e := r.entryFor(key)
	e.once.Do(func() { r.computeCell(ctx, key, c, e) })
	if e.err != nil && ctx.Err() != nil {
		r.mu.Lock()
		if r.cache[key] == e {
			delete(r.cache, key)
		}
		r.mu.Unlock()
	}
	return e.run, e.err
}

// entryFor returns the cell's cache entry, creating it when absent.
func (r *Runner) entryFor(key string) *cacheEntry {
	r.mu.Lock()
	e, ok := r.cache[key]
	if !ok {
		e = &cacheEntry{}
		r.cache[key] = e
	}
	r.mu.Unlock()
	return e
}

// computeCell fills a cache entry: from the checkpoint when the cell was
// already completed by an earlier run, otherwise by evaluating the pipeline
// under panic containment, the per-cell budgets and the retry policy.
func (r *Runner) computeCell(ctx context.Context, key string, c Cell, e *cacheEntry) {
	if rec, ok := r.restoredRecord(key); ok {
		e.run = rec.ToRun(c)
		r.restoredHits.Add(1)
		r.recordFailure(key, nil)
		return
	}
	attempts := 1
	r.mu.Lock()
	attempts += r.retries
	wait := r.retryWait
	r.mu.Unlock()

	made := 0
	for made < attempts {
		if made > 0 {
			// Jittered exponential backoff between attempts. A dead sweep
			// context ends the retry loop instead of sleeping on it.
			if !SleepContext(ctx, wait.Delay(key, made)) {
				break
			}
		}
		made++
		start := time.Now() //lint:ignore nondeterminism wall-clock instrumentation: CellStat.Wall is diagnostics, never rendered into a figure table
		allocs := heapAllocBytes()
		e.run, e.err = r.evaluateOnce(ctx, c)
		r.evals.Add(1)
		//lint:ignore nondeterminism wall-clock instrumentation: CellStat.Wall is diagnostics, never rendered into a figure table
		stat := metrics.CellStat{Key: key, Wall: time.Since(start), AllocBytes: heapAllocBytes() - allocs}
		if e.run != nil {
			stat.SimCycles = e.run.Sim.TotalCycles
			stat.Accesses = e.run.Sim.Accesses
			stat.Status = "ok"
		} else {
			stat.Status, _ = classifyStage(e.err)
		}
		r.log.Record(stat)
		if e.err == nil || ctx.Err() != nil {
			break
		}
	}
	if e.err != nil {
		ce := newCellError(key, made, e.err)
		r.writeReplayBundle(c, ce)
		e.err = ce
		r.recordFailure(key, ce)
		return
	}
	r.recordFailure(key, nil)
	// A chaos-armed sweep exists to test the detectors; its cells are never
	// persisted, so a later clean sweep cannot inherit them.
	if !r.chaosArmed(c) {
		r.appendCheckpoint(key, e.run)
	}
}

// chaosArmed reports whether the cell runs under a chaos seed, from its own
// config or the runner default.
func (r *Runner) chaosArmed(c Cell) bool {
	r.mu.Lock()
	seed := r.chaosSeed
	r.mu.Unlock()
	return seed != 0 || c.Config.ChaosSeed != 0
}

// evaluateOnce runs one evaluation attempt under the per-cell wall-time
// budget, converting any panic that escapes the repro boundary into a
// CellError (stage "panic") instead of crashing the worker.
func (r *Runner) evaluateOnce(ctx context.Context, c Cell) (run *repro.Run, err error) {
	r.mu.Lock()
	timeout := r.timeout
	maxCycles := r.maxCycles
	checkMode := r.checkMode
	chaosSeed := r.chaosSeed
	r.mu.Unlock()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
		defer func() {
			// Name the budget in the error while keeping the sentinel
			// reachable: errors.Is(err, context.DeadlineExceeded) must hold
			// through the CellError chain so callers and the stage
			// classifier can still tell a timeout from a real failure.
			if err != nil && errors.Is(err, context.DeadlineExceeded) {
				err = fmt.Errorf("cell wall-time budget %v exhausted: %w", timeout, err)
			}
		}()
	}
	defer func() {
		if v := recover(); v != nil {
			run = nil
			err = &CellError{Key: c.Key(), Stage: "panic", Err: fmt.Errorf("panic: %v", v), Stack: debug.Stack(), Attempts: 1}
		}
	}()
	cfg := c.Config
	if maxCycles > 0 && cfg.MaxSimCycles == 0 {
		cfg.MaxSimCycles = maxCycles
	}
	if checkMode != repro.CheckOff && cfg.Check == repro.CheckOff {
		cfg.Check = checkMode
	}
	if chaosSeed != 0 && cfg.ChaosSeed == 0 {
		cfg.ChaosSeed = chaosSeed
	}
	if c.MapMachine != nil {
		return repro.CrossEvaluateContext(ctx, c.Kernel, c.MapMachine, c.Machine, c.Scheme, cfg)
	}
	return repro.EvaluateContext(ctx, c.Kernel, c.Machine, c.Scheme, cfg)
}

// RunCells executes the cells on the worker pool under the runner's base
// context. See RunCellsContext.
func (r *Runner) RunCells(cells []Cell) ([]*repro.Run, error) {
	return r.RunCellsContext(r.base(), cells)
}

// RunCellsContext executes the cells on the worker pool and returns their
// results in cell order — never completion order. Duplicate cells (the same
// grid point requested twice, e.g. one Base run shared by several ratios)
// are computed once. The returned error is the first failing cell's, by
// cell order; the runs slice always has len(cells) entries with nil at
// failed cells, so callers render the completed cells and report the rest.
// Cancelling the context stops the grid: in-flight cells abort within a
// fraction of a simulation round, queued cells are never started, and
// already-completed cells keep their memoized results.
func (r *Runner) RunCellsContext(ctx context.Context, cells []Cell) ([]*repro.Run, error) {
	unique := make([]Cell, 0, len(cells))
	seen := make(map[string]bool, len(cells))
	for _, c := range cells {
		if key := c.Key(); !seen[key] {
			seen[key] = true
			unique = append(unique, c)
		}
	}
	total := len(unique)
	start := time.Now() //lint:ignore nondeterminism wall-clock instrumentation: feeds the progress callback's elapsed/ETA, not any result
	var done atomic.Int64

	workers := r.Workers()
	if workers > len(unique) {
		workers = len(unique)
	}
	jobs := make(chan Cell)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				if ctx.Err() == nil {
					// The result is memoized; failures land in r.failures and
					// resurface on render, so the worker discards both returns.
					_, _ = r.runCell(ctx, c)
				}
				r.reportProgress(int(done.Add(1)), total, start)
			}
		}()
	}
feed:
	for _, c := range unique {
		select {
		case jobs <- c:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	runs := make([]*repro.Run, len(cells))
	var firstErr error
	for i, c := range cells {
		// Memoized for every cell the pool completed; cells skipped by a
		// cancellation fail fast here on the dead context.
		run, err := r.runCell(ctx, c)
		runs[i] = run
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return runs, firstErr
}

// Prefetch warms the runner's cache with the cells on the worker pool and
// discards the results. Drivers call it before their serial rendering
// loop: the loop then reads only memoized results, so its output — and its
// error messages, since errors are memoized as well — is byte-identical to
// running without Prefetch, just faster.
func (r *Runner) Prefetch(cells []Cell) error {
	_, err := r.RunCells(cells)
	return err
}

// PrefetchContext is Prefetch under an explicit context.
func (r *Runner) PrefetchContext(ctx context.Context, cells []Cell) error {
	_, err := r.RunCellsContext(ctx, cells)
	return err
}

// reportProgress serializes and forwards one completion update.
func (r *Runner) reportProgress(done, total int, start time.Time) {
	r.progressMu.Lock()
	fn := r.progress
	if fn != nil {
		elapsed := time.Since(start) //lint:ignore nondeterminism wall-clock instrumentation: feeds the progress callback's elapsed/ETA, not any result
		var eta time.Duration
		if done > 0 && done < total {
			eta = elapsed / time.Duration(done) * time.Duration(total-done)
		}
		fn(done, total, elapsed, eta)
	}
	r.progressMu.Unlock()
}

// Grid enumerates the full machines × kernels × schemes cross product
// under one configuration, in deterministic (machine-major) order.
func Grid(machines []*topology.Machine, kernels []*workloads.Kernel, schemes []repro.Scheme, cfg repro.Config) []Cell {
	cells := make([]Cell, 0, len(machines)*len(kernels)*len(schemes))
	for _, m := range machines {
		for _, k := range kernels {
			for _, s := range schemes {
				cells = append(cells, Cell{Kernel: k, Machine: m, Scheme: s, Config: cfg})
			}
		}
	}
	return cells
}

// ratioCells lists the cells a set of ratio computations needs: Base plus
// each scheme, per kernel, on one machine.
func ratioCells(m *topology.Machine, kernels []*workloads.Kernel, schemes []repro.Scheme, cfg repro.Config) []Cell {
	withBase := append([]repro.Scheme{repro.SchemeBase}, schemes...)
	return Grid([]*topology.Machine{m}, kernels, withBase, cfg)
}

// heapAllocBytes reads the runtime's cumulative heap allocation counter
// (cheaper than runtime.ReadMemStats; no stop-the-world).
func heapAllocBytes() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() == rtmetrics.KindUint64 {
		return s[0].Value.Uint64()
	}
	return 0
}
