// Command topomap maps one workload onto one machine and reports the
// outcome: the machine's cache hierarchy tree, the iteration-group
// statistics, the per-core assignment, the simulated cycles and cache miss
// rates of every scheme, and optionally the generated per-core loop
// pseudo-code (the Omega-codegen role of §3.4).
//
// Usage:
//
//	topomap -kernel galgel -machine dunnington
//	topomap -kernel fig5 -machine dunnington -code
//	topomap -kernel wavefront -machine nehalem -scheme combined -deps conservative
//	topomap -kernel galgel -j 0            # evaluate all schemes in parallel
//	topomap -kernel galgel -timeout 30s -retries 1 -checkpoint g.ckpt
//	topomap -kernel galgel -check sampled  # runtime invariants + sampled oracle
//	topomap -kernel galgel -chaos-seed 7 -replaydir b/   # fault-inject the checks
//
// A scheme whose evaluation fails renders as a "FAILED" line in place of
// its statistics; the remaining schemes still run and the exit status is
// nonzero.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/optimal"
)

func main() { os.Exit(run()) }

// run carries the whole tool so the deferred checkpoint close executes
// before the process exits; os.Exit in main would skip it.
func run() int {
	kernelName := flag.String("kernel", "galgel", "workload name (see Table 2; plus fig5, wavefront)")
	srcPath := flag.String("src", "", "compile a loop-nest source file instead of using -kernel")
	machineName := flag.String("machine", "dunnington", "machine name (harpertown, nehalem, dunnington, arch-i, arch-ii)")
	machineFile := flag.String("machine-file", "", "load a JSON machine description instead of -machine")
	schemeName := flag.String("scheme", "", "run a single scheme (base, base+, local, topology, combined); default: all")
	depsMode := flag.String("deps", "sync", "dependence handling: sync or conservative")
	block := flag.Int64("block", 2048, "data block size in bytes")
	showCode := flag.Bool("code", false, "print generated per-core loop pseudo-code")
	showSched := flag.Bool("sched", false, "print the per-core round/barrier schedule")
	showCaches := flag.Bool("cachestats", false, "print per-cache-instance hit/miss statistics")
	runOptimal := flag.Bool("optimal", false, "also search for the optimal mapping (coarse groups; can take minutes)")
	showSource := flag.Bool("source", false, "pretty-print the kernel as loop-nest source")
	showTree := flag.Bool("tree", true, "print the machine's cache hierarchy tree")
	rf := cli.AddRunnerFlags(flag.CommandLine, 1)
	flag.Parse()
	if flag.NArg() > 0 {
		// The tool takes only flags; a stray word must not silently
		// start a full run.
		return fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	var k *repro.Kernel
	var err error
	if *srcPath != "" {
		src, rerr := os.ReadFile(*srcPath)
		if rerr != nil {
			return fail(rerr)
		}
		name := filepath.Base(*srcPath)
		name = strings.TrimSuffix(name, filepath.Ext(name))
		k, err = repro.CompileKernel(name, string(src))
	} else {
		k, err = repro.KernelByName(*kernelName)
	}
	if err != nil {
		return fail(err)
	}
	var m *repro.Machine
	if *machineFile != "" {
		data, rerr := os.ReadFile(*machineFile)
		if rerr != nil {
			return fail(rerr)
		}
		m, err = repro.LoadMachine(data)
	} else {
		m, err = repro.MachineByName(*machineName)
	}
	if err != nil {
		return fail(err)
	}
	cfg := repro.DefaultConfig()
	cfg.BlockBytes = *block
	if *depsMode == "conservative" {
		cfg.Deps = repro.DepsConservative
	}

	fmt.Printf("workload: %s\n", k)
	if *showSource {
		fmt.Println("== source ==")
		fmt.Print(repro.RenderKernel(k))
	}
	if *showTree {
		fmt.Println(m)
	}

	schemes := repro.AllSchemes()
	if *schemeName != "" {
		s, err := parseScheme(*schemeName)
		if err != nil {
			return fail(err)
		}
		schemes = []repro.Scheme{s}
	}

	// Evaluate every scheme as one grid batch on the worker pool (serial at
	// the default -j 1), then render in scheme order: the output is
	// identical at any pool size.
	grid := experiments.GridSignature(append([]string{
		"tool=topomap",
		"kernel=" + k.Name,
		"machine=" + m.Name,
		fmt.Sprintf("block=%d", *block),
		"deps=" + *depsMode,
		"scheme=" + *schemeName,
	}, rf.GridParts()...)...)
	r, cleanup, err := rf.Configure("topomap", grid)
	if err != nil {
		return fail(err)
	}
	defer cleanup()
	cells := make([]experiments.Cell, len(schemes))
	for i, s := range schemes {
		cells[i] = experiments.Cell{Kernel: k, Machine: m, Scheme: s, Config: cfg}
	}
	_ = r.Prefetch(cells)

	var baseCycles uint64
	for _, s := range schemes {
		run, err := r.Evaluate(k, m, s, cfg)
		if err != nil {
			// Degrade per scheme: the failed row says so, the rest render.
			fmt.Printf("%-14v FAILED: %v\n", s, err)
			continue
		}
		if s == repro.SchemeBase {
			baseCycles = run.Sim.TotalCycles
		}
		norm := ""
		if baseCycles > 0 {
			norm = fmt.Sprintf(" (%.3f of Base)", float64(run.Sim.TotalCycles)/float64(baseCycles))
		}
		fmt.Printf("%-14v %12d cycles%s  L1 %4.1f%%  L2 %4.1f%%  L3 %4.1f%% miss  %d groups  map %v\n",
			s, run.Sim.TotalCycles, norm,
			100*run.Sim.MissRate(1), 100*run.Sim.MissRate(2), 100*run.Sim.MissRate(3),
			run.Groups, run.MapTime.Round(time.Millisecond))
		if *showSched && run.Schedule != nil {
			fmt.Print(run.Schedule.Render(run.Mapping))
		}
		if *showCaches {
			for _, cs := range run.Sim.PerCache {
				fmt.Printf("  %-6s cores %v: %8d hits %8d misses (%.1f%%), %d writebacks\n",
					cs.Label, cs.Cores, cs.Hits, cs.Misses, 100*cs.MissRate(), cs.Writebacks)
			}
		}
		if *showCode && (s == repro.SchemeTopologyAware || s == repro.SchemeCombined) {
			for c, code := range repro.GeneratePerCoreCode(run) {
				fmt.Printf("--- core %d ---\n%s", c, code)
			}
		}
	}

	if *runOptimal {
		start := time.Now()
		ocfg := cfg
		ocfg.MaxGroups = 48 // coarse groups keep the search tractable
		sc, err := repro.NewSearchContext(k, m, ocfg)
		if err != nil {
			return fail(err)
		}
		res, err := optimal.Search(sc.NumGroups(), m.NumCores(), [][][]int{sc.Seed()}, sc.Cost, optimal.Options{})
		if err != nil {
			return fail(err)
		}
		kind := "best-found"
		if res.Exact {
			kind = "exact optimum"
		}
		seedCost, err := sc.Cost(sc.Seed())
		if err != nil {
			return fail(err)
		}
		fmt.Printf("optimal search (%s, %d evals, %v): %d cycles; heuristic seed %d cycles (gap %.1f%%)\n",
			kind, res.Evals, time.Since(start).Round(time.Millisecond), res.Cost, seedCost,
			100*(float64(seedCost)/float64(res.Cost)-1))
	}

	if cli.ReportFailures(r, "topomap") > 0 {
		return 1
	}
	return 0
}

func parseScheme(s string) (repro.Scheme, error) {
	switch s {
	case "base":
		return repro.SchemeBase, nil
	case "base+", "baseplus":
		return repro.SchemeBasePlus, nil
	case "local":
		return repro.SchemeLocal, nil
	case "topology", "topologyaware", "ta":
		return repro.SchemeTopologyAware, nil
	case "combined":
		return repro.SchemeCombined, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q", s)
	}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "topomap:", err)
	return 1
}
