// Package cli holds the runner plumbing the command-line tools share:
// the fault-isolation flags (-checkpoint, -timeout, -retries, -maxcycles),
// the self-checking flags (-check, -chaos-seed, -replaydir), the
// worker-pool (-j) and progress flags, and the end-of-run
// failure report. benchtool and topomap bind these to their own flag sets
// so both expose the same execution-guard vocabulary; every cell runs in
// this process.
// topomapd's flags (ServeFlags) live here too.
package cli

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/serve"
)

// RunnerFlags carries the flag values that configure a Runner's execution
// guards and self-checking. Bind with AddRunnerFlags, then Configure after
// flag parsing.
type RunnerFlags struct {
	Jobs       *int
	Progress   *bool
	Checkpoint *string
	Timeout    *time.Duration
	Retries    *int
	MaxCycles  *uint64
	Check      *string
	ChaosSeed  *int64
	ReplayDir  *string
}

// AddRunnerFlags registers the shared runner flags on a flag set.
// defaultJobs distinguishes benchtool (0 = GOMAXPROCS) from topomap
// (1 = serial), matching each tool's historical default.
func AddRunnerFlags(fs *flag.FlagSet, defaultJobs int) *RunnerFlags {
	return &RunnerFlags{
		Jobs:       fs.Int("j", defaultJobs, "worker pool size for grid cells (0 = GOMAXPROCS, 1 = serial; output is identical at any value)"),
		Progress:   fs.Bool("progress", false, "report cells done/total and ETA on stderr"),
		Checkpoint: fs.String("checkpoint", "", "persist completed cells to this file and restore them on re-runs (errors are never checkpointed; the file is bound to this sweep's grid signature)"),
		Timeout:    fs.Duration("timeout", 0, "per-cell wall-time budget (0 = unlimited); an over-budget cell fails, the rest of the grid continues"),
		Retries:    fs.Int("retries", 0, "extra evaluation attempts for a failing cell"),
		MaxCycles:  fs.Uint64("maxcycles", 0, "per-cell simulated-cycle budget (0 = unlimited)"),
		Check:      fs.String("check", "off", "self-checking level: off, invariants (runtime checks in the simulator), sampled (plus differential oracle on 1-in-4 cells), full (oracle on every cell); a failed check turns the cell into a fail row"),
		ChaosSeed:  fs.Int64("chaos-seed", 0, "arm the fault injector with this seed: ~1 in 3 cells is deterministically corrupted and must be caught by the checks (testing aid; cells are not checkpointed while armed)"),
		ReplayDir:  fs.String("replaydir", "", "write a replay bundle here for each cell failing a self-check or panicking; re-execute with benchtool -replay <bundle>"),
	}
}

// GridParts returns the flag values that belong in the sweep's grid
// signature: everything that changes which cells run or what they compute.
// Tools append their own sweep-defining flags (kernel/machine/scheme
// selections, figure choice, config overrides) and hash the lot with
// experiments.GridSignature. -j is deliberately absent: it only changes how
// cells execute, never what they compute, so a checkpoint written at one
// worker count resumes at any other.
func (rf *RunnerFlags) GridParts() []string {
	return []string{
		fmt.Sprintf("maxcycles=%d", *rf.MaxCycles),
		"check=" + *rf.Check,
		fmt.Sprintf("chaos=%d", *rf.ChaosSeed),
	}
}

// Configure builds a Runner from the parsed flags. grid is the sweep's
// identity signature (experiments.GridSignature over the tool's
// sweep-defining flags); the checkpoint file is stamped with it so a resume
// against a different sweep is rejected instead of silently reusing foreign
// cells. The returned cleanup closes the checkpoint (reporting any append
// error to stderr) and must run before the process exits — call it deferred
// from a function that returns an exit code rather than calling os.Exit
// directly.
func (rf *RunnerFlags) Configure(tool, grid string) (*experiments.Runner, func(), error) {
	mode, err := repro.ParseCheckMode(*rf.Check)
	if err != nil {
		return nil, nil, err
	}
	r := experiments.NewRunner()
	r.SetWorkers(*rf.Jobs)
	r.SetTimeout(*rf.Timeout)
	r.SetRetries(*rf.Retries)
	r.SetMaxCycles(*rf.MaxCycles)
	r.SetCheck(mode)
	r.SetChaos(*rf.ChaosSeed)
	r.SetReplayDir(*rf.ReplayDir)
	if *rf.Progress {
		r.SetProgress(ProgressReporter())
	}
	cleanup := func() {}
	if *rf.Checkpoint != "" {
		n, err := r.SetCheckpoint(*rf.Checkpoint, grid)
		if err != nil {
			return nil, nil, fmt.Errorf("checkpoint %s: %w", *rf.Checkpoint, err)
		}
		if n > 0 {
			fmt.Fprintf(os.Stderr, "%s: restored %d cells from %s\n", tool, n, *rf.Checkpoint)
		}
		cleanup = func() {
			if err := r.CloseCheckpoint(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: checkpoint: %v\n", tool, err)
			}
		}
	}
	return r, cleanup, nil
}

// ReportFailures prints every cell that stands failed — key, pipeline stage
// and cause, ordered by cell key so the listing is deterministic at any
// worker count — to stderr and returns the count. Tools exit nonzero when
// it is positive, after rendering whatever completed. Failures that wrote a
// replay bundle point at it. Each cell is listed once: a retried cell that
// failed at two different stages reports only the last failure.
func ReportFailures(r *experiments.Runner, tool string) int {
	fails := dedupeFailures(r.Failures())
	for _, ce := range fails {
		fmt.Fprintf(os.Stderr, "%s: FAILED cell %s [stage %s]: %v\n", tool, ce.Key, ce.Stage, ce.Err)
		if ce.Bundle != "" {
			fmt.Fprintf(os.Stderr, "%s:   replay bundle: %s (re-run: benchtool -replay %s)\n", tool, ce.Bundle, ce.Bundle)
		}
	}
	if len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d cell(s) failed; completed cells were rendered above\n", tool, len(fails))
	}
	return len(fails)
}

// dedupeFailures collapses a failure list to one entry per cell key,
// keeping the last entry — the most recent stage a retried cell failed at —
// and returns the survivors sorted by key.
func dedupeFailures(fails []*experiments.CellError) []*experiments.CellError {
	byKey := make(map[string]*experiments.CellError, len(fails))
	for _, ce := range fails {
		byKey[ce.Key] = ce
	}
	out := make([]*experiments.CellError, 0, len(byKey))
	for _, ce := range byKey {
		out = append(out, ce)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// ServeFlags carries the flag values that configure the topomapd
// mapping-as-a-service server (internal/serve). Bind with AddServeFlags,
// then build the server from Options() after flag parsing.
type ServeFlags struct {
	Listen       *string
	Queue        *int
	Workers      *int
	AdhocWorkers *int
	Watermark    *float64
	LRU          *int
	Timeout      *time.Duration
	MaxTimeout   *time.Duration
	MaxCycles    *uint64
	BodyLimit    *int64
	DrainTimeout *time.Duration
	Checkpoint   *string
}

// AddServeFlags registers the topomapd flags on a flag set.
func AddServeFlags(fs *flag.FlagSet) *ServeFlags {
	return &ServeFlags{
		Listen:       fs.String("listen", "127.0.0.1:8723", "HTTP listen address (host:port; port 0 picks an ephemeral port, printed on startup)"),
		Queue:        fs.Int("queue", 64, "admission queue bound for cold evaluations (queued + running); a full queue answers 429 queue-full"),
		Workers:      fs.Int("workers", 4, "concurrently running evaluations (0 = default)"),
		AdhocWorkers: fs.Int("adhoc-workers", 0, "concurrency cap for ad-hoc kernel_source/machine_json requests (0 = half of -workers); keeps uploads from starving registry traffic"),
		Watermark:    fs.Float64("shed-watermark", 0.75, "queue-occupancy fraction beyond which cold requests are shed with 429 + Retry-After (cached results keep serving)"),
		LRU:          fs.Int("lru", 1024, "bounded shared result cache size, in records"),
		Timeout:      fs.Duration("timeout", 30*time.Second, "default per-request evaluation budget (clients tighten it with a Request-Timeout header)"),
		MaxTimeout:   fs.Duration("max-timeout", 2*time.Minute, "hard cap on any client-requested budget"),
		MaxCycles:    fs.Uint64("maxcycles", 0, "default simulated-cycle budget per evaluation (0 = unlimited); client max_cycles is clamped to it when set"),
		BodyLimit:    fs.Int64("body-limit", 1<<20, "request body size cap in bytes"),
		DrainTimeout: fs.Duration("drain-timeout", 15*time.Second, "graceful-drain bound after SIGTERM: in-flight requests finish within it, stragglers are canceled"),
		Checkpoint:   fs.String("checkpoint", "", "warm the result cache from this checkpoint file and append computed cells to it (lockfile-guarded; a concurrent sweep on the same file is rejected)"),
	}
}

// Options resolves the parsed flags into server options.
func (sf *ServeFlags) Options() serve.Options {
	return serve.Options{
		Queue:          *sf.Queue,
		Workers:        *sf.Workers,
		AdhocWorkers:   *sf.AdhocWorkers,
		ShedWatermark:  *sf.Watermark,
		LRUSize:        *sf.LRU,
		DefaultTimeout: *sf.Timeout,
		MaxTimeout:     *sf.MaxTimeout,
		MaxCycles:      *sf.MaxCycles,
		BodyLimit:      *sf.BodyLimit,
		DrainTimeout:   *sf.DrainTimeout,
		Checkpoint:     *sf.Checkpoint,
	}
}

// ProgressReporter returns a ProgressFunc that rewrites one stderr status
// line per batch: cells done / total, percent, elapsed and ETA. Updates are
// throttled to one per 100ms except the final one, which ends the line.
func ProgressReporter() experiments.ProgressFunc {
	var last time.Time
	return func(done, total int, elapsed, eta time.Duration) {
		if done < total && time.Since(last) < 100*time.Millisecond {
			return
		}
		last = time.Now()
		fmt.Fprintf(os.Stderr, "\r%d/%d cells (%.0f%%), elapsed %s, eta %s    ",
			done, total, 100*float64(done)/float64(total),
			elapsed.Round(time.Second), eta.Round(time.Second))
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
}
