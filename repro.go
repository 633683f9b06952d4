// Package repro is the public API of the reproduction of "Cache Topology
// Aware Computation Mapping for Multicores" (Kandemir et al., PLDI 2010).
//
// The pipeline mirrors the paper's compiler flow:
//
//  1. describe a parallel loop nest with affine array references (a
//     Kernel — twelve paper workloads ship in this package),
//  2. partition the data into equal-sized blocks and tag iterations by the
//     blocks they touch, clustering same-tag iterations into iteration
//     groups (§3.3),
//  3. distribute the groups over the cores of a target Machine by
//     hierarchically clustering down its cache hierarchy tree (Fig 6),
//  4. schedule each core's groups in dependence-legal, locality-maximizing
//     rounds (Fig 7, §3.5.3), and
//  5. evaluate the mapping on a trace-driven multi-level cache simulator
//     configured from the machine description (the hardware substitute —
//     see DESIGN.md).
//
// Quick start:
//
//	k := repro.KernelByNameMust("galgel")
//	m := repro.Dunnington()
//	run, err := repro.Evaluate(k, m, repro.SchemeCombined, repro.DefaultConfig())
//	// run.Sim.TotalCycles, run.Sim.MissRate(2), ...
package repro

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/affinity"
	"repro/internal/baseline"
	"repro/internal/cachesim"
	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/lang"
	"repro/internal/oracle"
	"repro/internal/poly"
	"repro/internal/schedule"
	"repro/internal/tags"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Re-exported building blocks. Aliases keep the internal packages as the
// single source of truth while letting API users name every type.
type (
	// Kernel is a benchmark loop nest with its arrays and references.
	Kernel = workloads.Kernel
	// Machine is a multicore description: cache hierarchy tree + latencies.
	Machine = topology.Machine
	// SimResult is the simulator's output: cycles and per-level cache stats.
	SimResult = cachesim.Result
	// MapResult is the iteration distribution produced by the Fig 6 pass.
	MapResult = core.Result
	// Sched is the round/barrier execution plan produced by the Fig 7 pass.
	Sched = schedule.Schedule
	// CheckMode is the self-checking level of Config.Check (see
	// internal/check): CheckOff, CheckInvariants, CheckSampled, CheckFull.
	CheckMode = check.Mode
	// InvariantError reports a violated runtime invariant inside the
	// simulator (Config.Check >= CheckInvariants). Detect it with errors.As.
	InvariantError = check.InvariantError
	// DivergenceError reports a cell where the simulator and the
	// differential oracle disagree (Config.Check >= CheckSampled). Detect it
	// with errors.As.
	DivergenceError = oracle.DivergenceError
	// ChaosFault is a fault class of the chaos injector (see internal/chaos).
	ChaosFault = chaos.Fault
)

// Self-checking levels for Config.Check, ordered: each level includes the
// checks of the levels below it.
const (
	// CheckOff runs no self-checking (the default).
	CheckOff = check.Off
	// CheckInvariants enables the runtime invariants inside the simulator.
	CheckInvariants = check.Invariants
	// CheckSampled additionally recomputes a deterministic one-in-four
	// subset of cells on the differential oracle and field-compares.
	CheckSampled = check.Sampled
	// CheckFull recomputes every cell on the oracle.
	CheckFull = check.Full
)

// ParseCheckMode parses a -check flag value ("off", "invariants", "sampled",
// "full") into a CheckMode.
func ParseCheckMode(s string) (CheckMode, error) { return check.ParseMode(s) }

// Machine constructors (Table 1 and Figure 12).
var (
	Harpertown = topology.Harpertown
	Nehalem    = topology.Nehalem
	Dunnington = topology.Dunnington
	ArchI      = topology.ArchI
	ArchII     = topology.ArchII
)

// Kernels returns the twelve Table 2 workloads.
func Kernels() []*Kernel { return workloads.All() }

// KernelByName looks a kernel up by its Table 2 name ("galgel", ...).
func KernelByName(name string) (*Kernel, error) { return workloads.ByName(name) }

// KernelByNameMust is KernelByName for known-good literals; it panics on
// unknown names.
func KernelByNameMust(name string) *Kernel {
	k, err := workloads.ByName(name)
	if err != nil {
		panic(err)
	}
	return k
}

// MachineByName looks a machine up by name ("dunnington", "arch-i", ...).
func MachineByName(name string) (*Machine, error) { return topology.ByName(name) }

// LoadMachine parses a JSON machine description (see internal/topology for
// the format), letting users target custom cache topologies.
func LoadMachine(data []byte) (*Machine, error) { return topology.UnmarshalMachine(data) }

// SaveMachine renders a machine as JSON in the LoadMachine format.
func SaveMachine(m *Machine) ([]byte, error) { return topology.MarshalMachine(m) }

// CompileKernel parses loop-nest source in the paper's Figure 4/5 style
// into a Kernel (see internal/lang for the grammar):
//
//	array A[512][512]
//	array Anew[512][512]
//	for (i = 1; i <= 510) {
//	  for (j = 1; j <= 510) {
//	    Anew[i][j] = A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1];
//	  }
//	}
func CompileKernel(name, src string) (*Kernel, error) { return lang.Compile(name, src) }

// RenderKernel pretty-prints a kernel back into the loop-nest language —
// the inverse of CompileKernel up to statement grouping (rendering then
// recompiling preserves the iteration space and data-block behaviour).
func RenderKernel(k *Kernel) string { return lang.Render(k) }

// Scheme selects which mapping strategy Evaluate applies.
type Scheme int

const (
	// SchemeBase is the unmodified parallel code: contiguous chunks,
	// program order.
	SchemeBase Scheme = iota
	// SchemeBasePlus adds per-core loop permutation + tiling (the paper's
	// state-of-the-art intra-core locality baseline).
	SchemeBasePlus
	// SchemeLocal applies the Fig 7 local reorganization to the default
	// distribution (the "Local" bars of Fig 15).
	SchemeLocal
	// SchemeTopologyAware applies the Fig 6 cache-topology-aware
	// distribution; within a core, groups run in default order
	// ("considering only data dependencies", §4.1).
	SchemeTopologyAware
	// SchemeCombined applies the Fig 6 distribution followed by the Fig 7
	// local scheduling — the paper's best configuration (~37% on
	// Dunnington, Fig 15).
	SchemeCombined
)

// String names the scheme as the paper does.
func (s Scheme) String() string {
	switch s {
	case SchemeBase:
		return "Base"
	case SchemeBasePlus:
		return "Base+"
	case SchemeLocal:
		return "Local"
	case SchemeTopologyAware:
		return "TopologyAware"
	case SchemeCombined:
		return "Combined"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// AllSchemes lists every scheme in presentation order.
func AllSchemes() []Scheme {
	return []Scheme{SchemeBase, SchemeBasePlus, SchemeLocal, SchemeTopologyAware, SchemeCombined}
}

// DepsMode selects how loop-carried dependences are honored (§3.5.2).
type DepsMode int

const (
	// DepsSync distributes dependent groups freely and inserts barrier
	// synchronization (the paper's preferred extension).
	DepsSync DepsMode = iota
	// DepsConservative clusters dependence-connected groups onto one core
	// (the "infinite edge weight" extension): no synchronization needed.
	DepsConservative
)

// AutoBlockBytes selects the §4.1 block-size heuristic: the largest
// power-of-two block such that the most aggressive iteration group's data
// footprint (bounded by the loop body's reference count) fits in the
// target machine's L1.
const AutoBlockBytes int64 = -1

// Config carries the tunables of the scheme, with paper defaults.
type Config struct {
	// BlockBytes is the data block size (§3.3); the paper's default is
	// 2 KB, which 0 also selects. AutoBlockBytes selects the §4.1
	// heuristic; any other negative size fails with ErrInvalidInput.
	BlockBytes int64
	// BalanceThreshold is the Fig 6 load imbalance tolerance (paper: 10%).
	BalanceThreshold float64
	// Alpha and Beta weigh horizontal and vertical reuse in Fig 7
	// (paper: 0.5 each).
	Alpha, Beta float64
	// Deps selects the §3.5.2 dependence handling mode.
	Deps DepsMode
	// MaxGroups caps the iteration-group count fed to the hierarchical
	// clustering (groups beyond it are coarsened by merging neighbours,
	// the Fig 16 granularity/compile-time trade-off). Zero selects 64
	// groups per target core (at least 512), keeping per-core granularity
	// constant as machines scale.
	MaxGroups int
	// MapView, when non-nil, is the machine the *mapper* sees; simulation
	// still runs on the real machine (the Fig 20 partial-hierarchy study).
	MapView *Machine
	// NoMergeCap and NoPolish disable individual distribution heuristics
	// for the ablation studies (see core.Options).
	NoMergeCap bool
	NoPolish   bool
	// HammingSched switches the Fig 7 scheduler to the §3.5.3
	// Hamming-distance objective instead of tag dot products.
	HammingSched bool
	// Passes repeats the parallel loop's execution with warm caches
	// (0 or 1 = single pass). The paper's applications run their nests
	// many times per program; multi-pass simulation exposes the
	// steady-state capacity behaviour single cold passes hide.
	Passes int
	// Materialize is the debugging escape hatch for the streaming trace
	// path: when set, the access trace is fully expanded into memory
	// (O(accesses)) before simulation instead of being generated lazily
	// from per-core cursors (O(cores)). Results are bit-identical either
	// way — see TestStreamingMatchesMaterialized.
	Materialize bool
	// MaxSimCycles aborts the simulation with cachesim.ErrCycleBudget once
	// any core's simulated clock exceeds it (0 = unlimited). It is an
	// execution guard against pathological cells, not part of the
	// experiment's identity: a budget-exceeded evaluation returns an error
	// and no Run, so it never contaminates results.
	MaxSimCycles uint64
	// Check selects the self-checking level: CheckInvariants turns on the
	// runtime invariants inside the simulator, CheckSampled additionally
	// recomputes a deterministic one-in-four subset of cells on the
	// differential oracle (internal/oracle) and field-compares, CheckFull
	// checks every cell. A violation or divergence aborts the evaluation
	// with an *InvariantError or *DivergenceError and no Run — a cell that
	// cannot be trusted reports nothing rather than a wrong number.
	Check CheckMode
	// ChaosSeed, when nonzero, arms the fault injector (internal/chaos):
	// roughly one cell in three — chosen deterministically from the seed
	// and cell identity — has its input stream or replacement decisions
	// corrupted, and is automatically escalated to CheckFull so the
	// corruption is caught. This exists to prove the checking layers fire;
	// production sweeps leave it zero.
	ChaosSeed int64
}

// DefaultConfig returns the paper's experimental settings.
func DefaultConfig() Config {
	return Config{BlockBytes: 2048, BalanceThreshold: 0.10, Alpha: 0.5, Beta: 0.5}
}

// Run is the full outcome of evaluating one (kernel, machine, scheme)
// combination.
type Run struct {
	Kernel  *Kernel
	Machine *Machine
	Scheme  Scheme
	Config  Config

	// Sim holds cycles and cache statistics.
	Sim *SimResult
	// Mapping and Schedule are set for the tag-based schemes
	// (Local/TopologyAware/Combined); nil for Base and Base+.
	Mapping  *MapResult
	Schedule *Sched
	// Groups is the iteration-group count before distribution (0 for
	// Base/Base+).
	Groups int
	// HasDeps reports whether the kernel carries loop dependences.
	HasDeps bool
	// MapTime is the time the mapping passes took — the paper's
	// compilation-time overhead metric (§4.1, Fig 16 discussion).
	MapTime time.Duration
}

// Summary renders a one-line human-readable digest of the run.
func (r *Run) Summary() string {
	s := fmt.Sprintf("%s on %s [%v]: %d cycles, %d accesses, %d mem",
		r.Kernel.Name, r.Machine.Name, r.Scheme, r.Sim.TotalCycles, r.Sim.Accesses, r.Sim.MemAccesses)
	if r.Groups > 0 {
		s += fmt.Sprintf(", %d groups", r.Groups)
	}
	if r.Sim.Barriers > 0 {
		s += fmt.Sprintf(", %d barriers", r.Sim.Barriers)
	}
	return s
}

// ErrInvalidInput is wrapped by every up-front validation failure of
// Evaluate/CrossEvaluate: nil or structurally broken kernels and machines
// that would previously panic deep inside poly/tags/topology, and block
// sizes no computation can honour (NewSearchContext checks those too).
// Detect it with errors.Is.
var ErrInvalidInput = errors.New("repro: invalid input")

// PanicError reports a panic captured at the public API boundary. The
// pipeline's internal packages treat violated invariants as programmer
// errors and panic; Evaluate/CrossEvaluate convert any panic that slips
// past input validation into a PanicError so library callers — and the
// experiment grid above them — never see a crashing goroutine.
type PanicError struct {
	// Stage is the pipeline stage that panicked: "map", "trace",
	// "simulate" or "oracle" (the differential-oracle leg of a checked
	// evaluation).
	Stage string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

// Error renders the panic value and stage.
func (e *PanicError) Error() string {
	return fmt.Sprintf("repro: panic in %s stage: %v", e.Stage, e.Value)
}

// validateEval rejects inputs that would otherwise panic (or silently
// misbehave) deep inside the pipeline. Every returned error wraps
// ErrInvalidInput.
func validateEval(k *Kernel, m *Machine) error {
	switch {
	case k == nil:
		return fmt.Errorf("%w: nil kernel", ErrInvalidInput)
	case k.Nest == nil:
		return fmt.Errorf("%w: kernel %q has no loop nest", ErrInvalidInput, k.Name)
	case len(k.Refs) == 0:
		return fmt.Errorf("%w: kernel %q has no array references", ErrInvalidInput, k.Name)
	case m == nil:
		return fmt.Errorf("%w: nil machine", ErrInvalidInput)
	case m.NumCores() == 0:
		return fmt.Errorf("%w: machine %q has no cores", ErrInvalidInput, m.Name)
	}
	// Every reference must name a declared array (otherwise the layout
	// lookup panics mid-simulation), with one subscript per dimension.
	declared := make(map[*poly.Array]bool, len(k.Arrays))
	for _, a := range k.Arrays {
		declared[a] = true
	}
	for i, r := range k.Refs {
		switch {
		case r == nil || r.Array == nil:
			return fmt.Errorf("%w: kernel %q reference %d is nil", ErrInvalidInput, k.Name, i)
		case !declared[r.Array]:
			return fmt.Errorf("%w: kernel %q reference %d uses undeclared array %s", ErrInvalidInput, k.Name, i, r.Array.Name)
		case len(r.Subs) != len(r.Array.Dims):
			return fmt.Errorf("%w: kernel %q reference %d to %s has %d subscripts for %d dims",
				ErrInvalidInput, k.Name, i, r.Array.Name, len(r.Subs), len(r.Array.Dims))
		}
	}
	// The machine must expose at least one cache on the first core's path:
	// Base+ tile search and the block-size heuristic both assume it.
	path, err := m.PathToRoot(0)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	hasCache := false
	for _, n := range path {
		if n.Kind == topology.Cache {
			hasCache = true
			break
		}
	}
	if !hasCache {
		return fmt.Errorf("%w: machine %q has no caches", ErrInvalidInput, m.Name)
	}
	return nil
}

// validateBlockBytes rejects a negative block size other than
// AutoBlockBytes, which resolveBlockBytes would otherwise silently compute
// at the 2 KB default. 0 selects that default.
func validateBlockBytes(b int64) error {
	if b < 0 && b != AutoBlockBytes {
		return fmt.Errorf("%w: block size %d (want a positive size, 0 for the default or AutoBlockBytes)", ErrInvalidInput, b)
	}
	return nil
}

// capturePanic converts a recovered panic into a PanicError carrying the
// given stage and the captured stack. Install it with defer; stage is read
// at panic time, so the caller can advance it as the pipeline progresses.
func capturePanic(stage *string, runp **Run, errp *error) {
	if v := recover(); v != nil {
		*runp = nil
		*errp = &PanicError{Stage: *stage, Value: v, Stack: debug.Stack()}
	}
}

// Evaluate maps the kernel onto the machine with the given scheme and
// simulates the result.
func Evaluate(k *Kernel, m *Machine, scheme Scheme, cfg Config) (*Run, error) {
	return EvaluateContext(context.Background(), k, m, scheme, cfg)
}

// EvaluateContext is Evaluate with cooperative cancellation: the context is
// checked between pipeline stages and, inside the simulator, between
// simulation rounds and every few thousand accesses (see
// cachesim.RunContext). Inputs are validated up front (ErrInvalidInput) and
// any panic escaping the pipeline is returned as a *PanicError, so callers
// never crash on a malformed kernel or machine.
func EvaluateContext(ctx context.Context, k *Kernel, m *Machine, scheme Scheme, cfg Config) (run *Run, err error) {
	if err := validateEval(k, m); err != nil {
		return nil, err
	}
	if err := validateBlockBytes(cfg.BlockBytes); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	stage := "map"
	defer capturePanic(&stage, &run, &err)
	cfg.BlockBytes = resolveBlockBytes(cfg.BlockBytes, k, m)
	run = &Run{Kernel: k, Machine: m, Scheme: scheme, Config: cfg}
	layout := k.Layout(cfg.BlockBytes)

	// Every scheme yields a lazy trace.Source the simulator pulls from, so
	// trace memory stays O(cores) no matter how large the iteration space
	// is (Config.Materialize restores the expanded form for debugging).
	var prog trace.Source
	start := time.Now()
	switch scheme {
	case SchemeBase:
		prog = trace.StreamOrder(baseline.Base(k, m.NumCores()), k.Refs, layout)
	case SchemeBasePlus:
		order, err := baseline.BasePlus(k, m, cfg.BlockBytes)
		if err != nil {
			return nil, err
		}
		prog = trace.StreamOrder(order, k.Refs, layout)
	case SchemeLocal:
		res, sched, err := baseline.Local(k, m, cfg.BlockBytes, schedule.Options{Alpha: cfg.Alpha, Beta: cfg.Beta, Hamming: cfg.HammingSched})
		if err != nil {
			return nil, err
		}
		run.Mapping, run.Schedule, run.Groups = res, sched, len(res.Groups)
		prog = trace.StreamSchedule(sched, res, k.Refs, layout)
	case SchemeTopologyAware, SchemeCombined:
		res, sched, tg, dg, err := mapTopologyAware(k, m, scheme, cfg, layout)
		if err != nil {
			return nil, err
		}
		run.Mapping, run.Schedule, run.Groups = res, sched, len(tg.Groups)
		run.HasDeps = dg != nil && dg.NumEdges() > 0
		prog = trace.StreamSchedule(sched, res, k.Refs, layout)
	default:
		return nil, fmt.Errorf("repro: unknown scheme %v", scheme)
	}
	run.MapTime = time.Since(start)

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sim, err := simulateChecked(ctx, &stage, m, finishProgram(prog, cfg), evalID(k.Name, m.Name, scheme, ""), cfg)
	if err != nil {
		return nil, err
	}
	run.Sim = sim
	return run, nil
}

// evalID is the cell identity string the self-checking layers key on: it
// decides chaos poisoning and oracle sampling, and tags DivergenceErrors.
// mapfor distinguishes cross-evaluated cells (Fig 2/14 porting runs).
func evalID(kernel, machine string, scheme Scheme, mapfor string) string {
	id := fmt.Sprintf("%s|%s|%v", kernel, machine, scheme)
	if mapfor != "" {
		id += "|mapfor=" + mapfor
	}
	return id
}

// simulateChecked is the shared simulation leg of Evaluate and
// CrossEvaluate with the self-checking plan applied: chaos poisoning (when
// Config.ChaosSeed arms it) wraps the simulator's input — never the
// oracle's — and poisoned cells escalate to CheckFull; the differential
// oracle then recomputes the cell from the clean source at CheckFull, or at
// CheckSampled when the deterministic sample selects this id. stage is the
// panic-capture stage pointer, advanced as the legs run.
func simulateChecked(ctx context.Context, stage *string, m *Machine, src trace.Source, id string, cfg Config) (*SimResult, error) {
	*stage = "simulate"
	lim := cachesim.Limits{MaxCycles: cfg.MaxSimCycles, Check: cfg.Check}
	simSrc := src
	if cfg.ChaosSeed != 0 {
		if f, ok := chaos.Pick(cfg.ChaosSeed, id); ok {
			if lim.Check < check.Full {
				lim.Check = check.Full
			}
			simSrc = chaos.Source(src, f, cfg.ChaosSeed, id)
			if f == chaos.Replacement {
				lim.Replace = chaos.Hook(cfg.ChaosSeed, id)
			}
		}
	}
	sim, err := cachesim.SimulateContext(ctx, m, simSrc, lim)
	if err != nil {
		return nil, err
	}
	if lim.Check >= check.Full || (lim.Check == check.Sampled && check.SampleSelected(id)) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		*stage = "oracle"
		want, err := oracle.Simulate(m, src)
		if err != nil {
			return nil, err
		}
		if d := oracle.Compare(id, sim, want); d != nil {
			return nil, d
		}
	}
	return sim, nil
}

// ChaosFaultFor reports which fault class (if any) the chaos injector
// assigns to the (kernel, machine, scheme) cell under seed — the
// introspection hook replay bundles and the chaos test suite use to know
// what a poisoned cell was poisoned with. mapfor is the mapping machine's
// name for cross-evaluated cells, empty otherwise.
func ChaosFaultFor(seed int64, kernel, machine, mapfor string, scheme Scheme) (ChaosFault, bool) {
	return chaos.Pick(seed, evalID(kernel, machine, scheme, mapfor))
}

// finishProgram applies the config's trace post-processing: Passes
// replicates the rounds back to back (warm-cache repeated executions of
// the parallel loop, an O(1) wrapper — the paper's applications run their
// nests many times per program, and multi-pass simulation exposes the
// steady-state capacity behaviour a single cold pass hides), and
// Materialize expands the stream into a fully materialized Program.
func finishProgram(prog trace.Source, cfg Config) trace.Source {
	// Materialize before repeating: Repeat re-reads the same rounds, so the
	// expanded pass is stored once however many passes run (the pre-
	// streaming repeatProgram shared its round slices the same way).
	if cfg.Materialize {
		prog = trace.Materialize(prog)
	}
	return trace.Repeat(prog, cfg.Passes)
}

// resolveBlockBytes applies the default (2 KB) or the §4.1 automatic
// heuristic (AutoBlockBytes) against the mapping machine's L1.
func resolveBlockBytes(req int64, k *Kernel, m *Machine) int64 {
	switch {
	case req > 0:
		return req
	case req == AutoBlockBytes:
		l1 := int64(32 << 10)
		// validateEval has already established the machine has cores, so
		// the path lookup cannot fail here.
		path, _ := m.PathToRoot(0)
		for _, n := range path {
			if n.Kind == topology.Cache {
				l1 = n.SizeBytes
				break
			}
		}
		return tags.SelectBlockSize(l1, len(k.Refs), 256, 8192)
	default:
		return 2048
	}
}

// mapTopologyAware runs the tagging → dependence analysis → distribution →
// scheduling pipeline.
func mapTopologyAware(k *Kernel, m *Machine, scheme Scheme, cfg Config, layout *poly.Layout) (*core.Result, *schedule.Schedule, *tags.Tagging, *affinity.Digraph, error) {
	iters := k.Nest.Points()
	tg := tags.Compute(iters, k.Refs, layout)
	maxGroups := cfg.MaxGroups
	if maxGroups <= 0 {
		maxGroups = 64 * m.NumCores()
		if maxGroups < 512 {
			maxGroups = 512
		}
	}
	tg = tags.Coarsen(tg, maxGroups)

	dg, selfDep := deps.Analyze(iters, tg)
	var groupDeps *affinity.Digraph
	groups := tg.Groups
	if dg.NumEdges() > 0 {
		groups, groupDeps, selfDep = deps.CollapseCycles(tg.Groups, dg, selfDep)
	}
	work := &tags.Tagging{Groups: groups, Layout: tg.Layout, Refs: tg.Refs, NumBlocks: tg.NumBlocks, TotalIters: tg.TotalIters}

	anySelf := false
	for _, s := range selfDep {
		if s {
			anySelf = true
			break
		}
	}
	if !anySelf {
		selfDep = nil
	}
	opt := core.Options{
		BalanceThreshold: cfg.BalanceThreshold,
		SelfDep:          selfDep,
		NoMergeCap:       cfg.NoMergeCap,
		NoPolish:         cfg.NoPolish,
	}
	if cfg.Deps == DepsConservative && groupDeps != nil {
		opt.ConservativeDeps = true
		opt.Deps = groupDeps
	}
	mapTarget := m
	if cfg.MapView != nil {
		if cfg.MapView.NumCores() != m.NumCores() {
			return nil, nil, nil, nil, fmt.Errorf("repro: MapView has %d cores, machine has %d", cfg.MapView.NumCores(), m.NumCores())
		}
		mapTarget = cfg.MapView
	}
	res, err := core.Distribute(work, mapTarget, opt)
	if err != nil {
		return nil, nil, nil, nil, err
	}

	var sched *schedule.Schedule
	if scheme == SchemeCombined {
		sched, err = schedule.Build(res, groupDeps, schedule.Options{Alpha: cfg.Alpha, Beta: cfg.Beta, Hamming: cfg.HammingSched})
	} else {
		sched, err = schedule.DefaultOrder(res, groupDeps)
	}
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return res, sched, work, groupDeps, nil
}

// CrossEvaluate maps the kernel for mapM's cache topology but executes the
// result on runM — the porting experiments of Figures 2 and 14 ("the first
// bar in the second group gives the execution time of the Harpertown
// version of the code when run on Nehalem"). When the mapping machine has
// more cores than the execution machine, the extra threads fold onto the
// execution cores round-robin; when it has fewer, the surplus execution
// cores idle — both match running a version built for another machine
// with its original thread count (the paper runs the 12-thread Dunnington
// version with one thread per core on the 8-core machines).
func CrossEvaluate(k *Kernel, mapM, runM *Machine, scheme Scheme, cfg Config) (*Run, error) {
	return CrossEvaluateContext(context.Background(), k, mapM, runM, scheme, cfg)
}

// CrossEvaluateContext is CrossEvaluate with cooperative cancellation, input
// validation and panic capture — the same fault-isolation contract as
// EvaluateContext.
func CrossEvaluateContext(ctx context.Context, k *Kernel, mapM, runM *Machine, scheme Scheme, cfg Config) (run *Run, err error) {
	if scheme != SchemeTopologyAware && scheme != SchemeCombined {
		return nil, fmt.Errorf("repro: CrossEvaluate supports the topology-aware schemes, got %v", scheme)
	}
	if err := validateEval(k, mapM); err != nil {
		return nil, err
	}
	if err := validateEval(k, runM); err != nil {
		return nil, err
	}
	if err := validateBlockBytes(cfg.BlockBytes); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	stage := "map"
	defer capturePanic(&stage, &run, &err)
	cfg.BlockBytes = resolveBlockBytes(cfg.BlockBytes, k, mapM)
	run = &Run{Kernel: k, Machine: runM, Scheme: scheme, Config: cfg}
	layout := k.Layout(cfg.BlockBytes)

	start := time.Now()
	res, _, tg, groupDeps, err := mapTopologyAware(k, mapM, scheme, cfg, layout)
	if err != nil {
		return nil, err
	}
	// Re-home the mapping onto the execution machine.
	folded := make([][]int, runM.NumCores())
	for c, gs := range res.PerCore {
		dst := c % runM.NumCores()
		folded[dst] = append(folded[dst], gs...)
	}
	res.PerCore = folded
	res.Machine = runM
	var sched *schedule.Schedule
	if scheme == SchemeCombined {
		sched, err = schedule.Build(res, groupDeps, schedule.Options{Alpha: cfg.Alpha, Beta: cfg.Beta, Hamming: cfg.HammingSched})
	} else {
		sched, err = schedule.DefaultOrder(res, groupDeps)
	}
	if err != nil {
		return nil, err
	}
	run.Mapping, run.Schedule, run.Groups = res, sched, len(tg.Groups)
	run.HasDeps = groupDeps != nil && groupDeps.NumEdges() > 0
	run.MapTime = time.Since(start)

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prog := trace.StreamSchedule(sched, res, k.Refs, layout)
	sim, err := simulateChecked(ctx, &stage, runM, finishProgram(prog, cfg), evalID(k.Name, runM.Name, scheme, mapM.Name), cfg)
	if err != nil {
		return nil, err
	}
	run.Sim = sim
	return run, nil
}

// SearchContext packages everything the optimal-mapping search (the Fig 20
// ILP stand-in) needs: the tagged groups of a kernel, a seed assignment
// from the topology-aware mapper, and a cost oracle that simulates an
// arbitrary group-to-core assignment on the machine.
type SearchContext struct {
	Kernel  *Kernel
	Machine *Machine
	Result  *MapResult
	layout  *poly.Layout
	deps    *affinity.Digraph
}

// NewSearchContext tags the kernel, runs the topology-aware distribution
// as the seed, and returns a context whose Cost function evaluates any
// reassignment of the resulting groups.
func NewSearchContext(k *Kernel, m *Machine, cfg Config) (*SearchContext, error) {
	if err := validateBlockBytes(cfg.BlockBytes); err != nil {
		return nil, err
	}
	cfg.BlockBytes = resolveBlockBytes(cfg.BlockBytes, k, m)
	layout := k.Layout(cfg.BlockBytes)
	res, _, _, groupDeps, err := mapTopologyAware(k, m, SchemeTopologyAware, cfg, layout)
	if err != nil {
		return nil, err
	}
	return &SearchContext{Kernel: k, Machine: m, Result: res, layout: layout, deps: groupDeps}, nil
}

// NumGroups returns the number of assignable groups.
func (sc *SearchContext) NumGroups() int { return len(sc.Result.Groups) }

// Seed returns the topology-aware assignment as a starting point.
func (sc *SearchContext) Seed() [][]int { return sc.Result.PerCore }

// Cost simulates the assignment (default intra-core order) and returns
// total cycles.
func (sc *SearchContext) Cost(perCore [][]int) (uint64, error) {
	trial := &core.Result{
		Groups:    sc.Result.Groups,
		Origin:    sc.Result.Origin,
		PerCore:   perCore,
		SplitPrec: sc.Result.SplitPrec,
		SelfDep:   sc.Result.SelfDep,
		Machine:   sc.Machine,
	}
	sched, err := schedule.DefaultOrder(trial, sc.deps)
	if err != nil {
		return 0, err
	}
	prog := trace.StreamSchedule(sched, trial, sc.Kernel.Refs, sc.layout)
	sim, err := cachesim.SimulateOnce(sc.Machine, prog)
	if err != nil {
		return 0, err
	}
	return sim.TotalCycles, nil
}

// GeneratePerCoreCode renders the per-core loop pseudo-code of a mapping
// (the Omega codegen role, §3.4), one code block per core.
func GeneratePerCoreCode(run *Run) []string {
	if run.Mapping == nil || run.Schedule == nil {
		return nil
	}
	names := run.Kernel.Nest.Names()
	out := make([]string, len(run.Mapping.PerCore))
	perCore := run.Schedule.PerCore()
	for c, gs := range perCore {
		if len(gs) == 0 {
			out[c] = "/* idle */\n"
			continue
		}
		code := ""
		for _, g := range gs {
			grp := run.Mapping.Groups[g]
			code += fmt.Sprintf("/* group %d, tag %s, %d iterations */\n", g, grp.Tag, grp.Size())
			code += poly.Codegen(grp.Iters, names, "body")
		}
		out[c] = code
	}
	return out
}
