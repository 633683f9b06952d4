// Command benchtool regenerates the paper's tables and figures.
//
// Usage:
//
//	benchtool                     # run every experiment
//	benchtool -experiment fig13   # run one (table1, table2, fig2, fig13,
//	                              # fig14, fig15, fig16, fig17, fig18,
//	                              # fig19, fig20, alphabeta, deps,
//	                              # ablation, compiletime, steadystate)
//	benchtool -quick              # shrink sweeps for a fast pass
//	benchtool -kernels galgel,cg  # restrict the workload set
//	benchtool -j 8                # run grid cells on 8 workers (0 = all
//	                              # cores, 1 = serial); output is identical
//	                              # at every -j, only wall time changes
//	benchtool -cpuprofile p.prof  # write a CPU profile for the whole run
//	benchtool -memprofile m.prof  # write a heap profile at exit
//	benchtool -progress           # report cells done/total + ETA on stderr
//	benchtool -cellstats          # per-cell wall-time/cycles/alloc summary
//	benchtool -benchjson out.json # write per-cell wall-time/cycles/access/
//	                              # alloc metrics as JSON at exit
//	benchtool -checkpoint f.ckpt  # persist completed cells; a re-run with
//	                              # the same file recomputes nothing (the
//	                              # file is bound to this sweep's identity)
//	benchtool -timeout 30s        # per-cell wall-time budget
//	benchtool -maxcycles N        # per-cell simulated-cycle budget
//	benchtool -retries 1          # retry failing cells
//	benchtool -check sampled      # self-check: runtime invariants plus the
//	                              # differential oracle on 1-in-4 cells
//	                              # (invariants / sampled / full)
//	benchtool -chaos-seed 7       # corrupt ~1 in 3 cells deterministically
//	                              # to prove the checks fire (testing aid)
//	benchtool -replaydir d        # write replay bundles for failed checks
//	benchtool -replay b.json      # re-execute one failed cell from its
//	                              # bundle, full checking + materialized
//	                              # trace; exit 0 iff the failure reproduces
//
// Failures degrade, not abort: a failing cell renders as "fail" in figures
// that support partial results, the remaining experiments still run, every
// failed cell's key and pipeline stage is listed on stderr at exit, and
// the exit status is nonzero.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

func main() { os.Exit(run()) }

// run carries the whole tool so deferred work (cellstats, benchjson, the
// checkpoint file) executes before the process exits; os.Exit in main
// would skip it.
func run() int {
	exp := flag.String("experiment", "all", "experiment to run (all, table1, table2, fig2, fig13, fig14, fig15, fig16, fig17, fig18, fig19, fig20, alphabeta, deps, ablation, compiletime, steadystate)")
	quick := flag.Bool("quick", false, "shrink sweeps for a fast pass")
	kernels := flag.String("kernels", "", "comma-separated kernel subset (default: all twelve)")
	outDir := flag.String("o", "", "also write each experiment's output to <dir>/<name>.txt")
	cellStats := flag.Bool("cellstats", false, "print a per-cell wall-time/cycles/allocation summary on stderr at exit")
	benchJSON := flag.String("benchjson", "", "write per-cell wall-time/cycles/access/allocation metrics as JSON to this path at exit")
	replay := flag.String("replay", "", "re-execute one failed cell from this replay bundle with full checking and a materialized trace, then exit (0 = failure reproduced)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path at exit")
	rf := cli.AddRunnerFlags(flag.CommandLine, 0)
	flag.Parse()
	if flag.NArg() > 0 {
		// The tool takes only flags; a stray word must not silently
		// start a full run.
		return fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fail(err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fail(err)
				return
			}
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
		}()
	}

	if *replay != "" {
		return runReplay(*replay)
	}

	opt := experiments.Options{Quick: *quick}
	if *kernels != "" {
		for _, name := range strings.Split(*kernels, ",") {
			k, err := workloads.ByName(strings.TrimSpace(name))
			if err != nil {
				return fail(err)
			}
			opt.Kernels = append(opt.Kernels, k)
		}
	}
	grid := experiments.GridSignature(append([]string{
		"tool=benchtool",
		"experiment=" + *exp,
		fmt.Sprintf("quick=%v", *quick),
		"kernels=" + *kernels,
	}, rf.GridParts()...)...)
	r, cleanup, err := rf.Configure("benchtool", grid)
	if err != nil {
		return fail(err)
	}
	defer cleanup()
	if *cellStats {
		defer func() { fmt.Fprint(os.Stderr, "\n"+r.Metrics().Summary(10)) }()
	}
	if *benchJSON != "" {
		defer func() {
			if err := writeBenchJSON(r, *benchJSON); err != nil {
				fail(err)
			}
		}()
	}

	type job struct {
		name string
		run  func() (string, error)
	}
	jobs := []job{
		{"table1", func() (string, error) { return experiments.Table1(), nil }},
		{"table2", func() (string, error) { return experiments.Table2(opt), nil }},
		{"fig2", func() (string, error) { return experiments.Fig2(r) }},
		{"fig13", func() (string, error) {
			res, err := experiments.Fig13(r, opt)
			if err != nil {
				return "", err
			}
			return res.Rendered, nil
		}},
		{"fig14", func() (string, error) { return experiments.Fig14(r, opt) }},
		{"fig15", func() (string, error) { return experiments.Fig15(r, opt) }},
		{"fig16", func() (string, error) { return experiments.Fig16(r, opt) }},
		{"fig17", func() (string, error) { return experiments.Fig17(r, opt) }},
		{"fig17weak", func() (string, error) { return experiments.Fig17Weak(r, opt) }},
		{"fig18", func() (string, error) { return experiments.Fig18(r, opt) }},
		{"fig19", func() (string, error) { return experiments.Fig19(r, opt) }},
		{"fig20", func() (string, error) { return experiments.Fig20(r, opt) }},
		{"alphabeta", func() (string, error) { return experiments.AlphaBeta(r, opt) }},
		{"deps", func() (string, error) { return experiments.DependenceModes(r) }},
		{"ablation", func() (string, error) { return experiments.Ablation(r, opt) }},
		{"compiletime", func() (string, error) { return experiments.CompileTime(r, opt) }},
		{"steadystate", func() (string, error) { return experiments.SteadyState(r, opt) }},
	}

	ran, failedJobs := 0, 0
	for _, j := range jobs {
		if *exp != "all" && *exp != j.name {
			continue
		}
		ran++
		start := time.Now()
		out, err := j.run()
		if err != nil {
			// One experiment failing outright (every cell it needs is dead)
			// must not take down the rest of the run: report and move on.
			fmt.Fprintf(os.Stderr, "benchtool: %s: %v\n", j.name, err)
			failedJobs++
			continue
		}
		fmt.Printf("=== %s (%v) ===\n%s\n", j.name, time.Since(start).Round(time.Millisecond), out)
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return fail(err)
			}
			path := filepath.Join(*outDir, j.name+".txt")
			if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
				return fail(err)
			}
		}
	}
	if ran == 0 {
		return fail(fmt.Errorf("unknown experiment %q", *exp))
	}
	if n := cli.ReportFailures(r, "benchtool"); n > 0 || failedJobs > 0 {
		return 1
	}
	return 0
}

// runReplay re-executes the failed cell a replay bundle describes, with
// full checking and a materialized trace, and reports whether the recorded
// failure reproduces. Exit status 0 means it did (the bundle is a live,
// debuggable failure); 1 means the bundle could not be loaded or the cell
// now passes.
func runReplay(path string) int {
	b, err := experiments.LoadBundle(path)
	if err != nil {
		return fail(err)
	}
	what := fmt.Sprintf("%s on %s [%s]", b.Kernel, b.Machine, b.SchemeName)
	if b.MapMachine != "" {
		what += " mapped for " + b.MapMachine
	}
	fmt.Fprintf(os.Stderr, "benchtool: replaying %s (recorded stage %s, chaos seed %d, fault %q)\n",
		what, b.Stage, b.ChaosSeed, b.Fault)
	start := time.Now()
	run, err := experiments.Replay(context.Background(), b)
	elapsed := time.Since(start).Round(time.Millisecond)
	if err != nil {
		stage := experiments.StageOf(err)
		fmt.Fprintf(os.Stderr, "benchtool: replay reproduced a failure in %v [stage %s]: %v\n", elapsed, stage, err)
		if stage != b.Stage {
			fmt.Fprintf(os.Stderr, "benchtool: note: bundle recorded stage %s, replay failed at %s\n", b.Stage, stage)
		}
		return 0
	}
	fmt.Fprintf(os.Stderr, "benchtool: replay did NOT reproduce the failure: cell completed in %v (%s)\n",
		elapsed, run.Summary())
	return 1
}

// writeBenchJSON dumps the runner's per-cell execution log as JSON. The
// cells are sorted by key inside WriteJSON, so the file is deterministic
// for a given experiment selection regardless of -j.
func writeBenchJSON(r *experiments.Runner, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Metrics().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchtool:", err)
	return 1
}
