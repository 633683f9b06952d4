package cachesim

// Set-partitioned execution: the intra-cell parallel engine behind
// Limits.SimWorkers (DESIGN.md "Intra-cell parallelism").
//
// The sequential event loop is exact but serial: every access flows through
// one global (cycles, core) heap. Under LRU, however, cache sets never
// interact — an access touches exactly one set per level, victim selection
// and recency are decided entirely within that set — so the expensive part
// of the simulation decomposes. What does NOT decompose is time: an
// access's cycle cost depends on shared-level state and off-chip queueing,
// which depend on the global interleaving, which depends on every earlier
// access's cost. The engine therefore splits each barrier round into three
// phases that together reproduce the sequential computation exactly:
//
//  1. split: stream every (round, core) cursor once — the cursor-level
//     invariant checks (Len accounting, address range) run here — and
//     scatter each core's in-order access stream into per-(core, set-class)
//     sub-streams. A set class is a group of addresses whose bits [B, B+g)
//     agree, chosen so that every private cache maps a class into a set
//     range no other class touches.
//  2. private: simulate the private-cache prefix of each (core, class) unit
//     on a bounded worker pool. Private-cache outcomes are independent of
//     the cross-core interleaving (only one core ever touches them, in its
//     own program order), and within one core the class partition owns its
//     sets exclusively, so units race on nothing: hit levels and escaping
//     accesses are recorded into dense position-indexed arrays, counters
//     are kept unit-local and summed in fixed (core, class) order
//     afterwards, and recency state lives in per-set meta blocks a unit
//     owns outright. Merging is order-independent, so any worker count
//     produces identical state.
//  3. replay: run the ordinary discrete-event heap over the recorded
//     annotations. Private hits cost their precomputed level latency;
//     escaping accesses probe the shared levels, queue on the off-chip
//     channel and run the inclusive fill chain with the recorded private
//     victim — the exact op sequence the sequential loop would issue, in
//     the exact global order, because costs (and hence the heap order) are
//     reproduced access for access.
//
// The result is byte-identical to the sequential loop at every worker
// count. The engine declines (partitionPlan returns nil) when a chaos
// Replace hook is installed — the hook is stateful and order-dependent —
// or when some active core has no private leading cache.

import (
	"context"
	"fmt"
	runtimemetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/trace"
)

// escaped marks a position whose access missed every private level and
// must be replayed against the shared hierarchy.
const escaped = 0xff

// maxClassBits caps the number of set classes per core (2^maxClassBits).
// Classes beyond the worker count only add scatter overhead in the split
// phase; 16 classes per core load-balances any worker pool the runner
// grants while keeping the split's append targets cache-resident.
const maxClassBits = 4

// PhaseStats is the per-phase execution attribution of one run, filled
// into Limits.Stats when the caller provides it. It is observational
// output only: nothing here feeds back into the simulation, and it is
// deliberately not part of Result (which is checkpointed and
// oracle-compared, so its shape is frozen to simulation outcomes).
type PhaseStats struct {
	// Workers is the parallelism the run was granted; Partitioned reports
	// whether the set-partitioned engine actually ran (false = sequential
	// loop, either by request or by fallback).
	Workers     int
	Partitioned bool
	// Classes is the number of set classes per core; Units is cores x
	// classes, the parallel work-item count per round.
	Classes int
	Units   int
	// Escaped counts accesses that missed every private level and were
	// replayed against the shared hierarchy — the fraction of the trace
	// that stays serial.
	Escaped uint64
	// SplitWall/PrivateWall/ReplayWall attribute wall-clock time to the
	// three phases, summed over rounds. SplitAlloc/PrivateAlloc/
	// ReplayAlloc attribute heap allocation the same way (process-wide
	// counters: exact under one runner worker, an upper bound otherwise).
	SplitWall    time.Duration
	PrivateWall  time.Duration
	ReplayWall   time.Duration
	SplitAlloc   uint64
	PrivateAlloc uint64
	ReplayAlloc  uint64
}

// partPlan is the per-run decomposition: which leading caches of each
// core's path are private, the precomputed hit costs, and the set-class
// geometry. Built once per RunContext by partitionPlan; read-only during
// the run (shared by every worker).
type partPlan struct {
	workers int
	// priv[c] is the private prefix of paths[c]: the leading caches
	// serving exactly one core. levelCost[c][j] is the cycle cost of a hit
	// at private level j (latencies of levels 0..j summed); privCost[c] is
	// the cost of missing the whole prefix.
	priv      [][]*cache
	levelCost [][]int
	privCost  []int
	// classShift/classes define the set-class function: an address's class
	// is (addr >> classShift) & (classes-1). classes == 1 degenerates to
	// per-core parallelism only (still exact).
	classShift uint
	classes    int
}

// partitionPlan decides whether the set-partitioned engine can run for
// ncores active cores and builds its decomposition. It returns nil — and
// the caller falls back to the sequential loop — when some active core has
// no private leading cache (its L1 is shared, so no phase of the
// simulation is interleaving-independent).
func (s *Simulator) partitionPlan(ncores, workers int) *partPlan {
	if ncores == 0 {
		return nil
	}
	p := &partPlan{
		workers:   workers,
		priv:      make([][]*cache, ncores),
		levelCost: make([][]int, ncores),
		privCost:  make([]int, ncores),
	}
	// Class geometry: class bits must be set-index bits of every private
	// cache, so a class owns its sets exclusively at every private level.
	// With B = max line-offset width and s_i set-index width of private
	// cache i, bits [B, B+g) qualify iff g <= min(b_i + s_i) - B and every
	// private set count is a power of two.
	maxLine := uint(0)
	minTop := uint(64)
	pow2 := true
	for c := 0; c < ncores; c++ {
		path := s.paths[c]
		n := 0
		for n < len(path) && len(path[n].node.Cores()) == 1 {
			n++
		}
		if n == 0 {
			return nil
		}
		p.priv[c] = path[:n]
		costs := make([]int, n)
		sum := 0
		for j, ch := range path[:n] {
			sum += ch.node.Latency
			costs[j] = sum
			if ch.lineBits > maxLine {
				maxLine = ch.lineBits
			}
			setBits := uint(0)
			for (1 << setBits) < ch.sets {
				setBits++
			}
			if ch.mask == 0 && ch.sets > 1 {
				pow2 = false
			}
			if top := ch.lineBits + setBits; top < minTop {
				minTop = top
			}
		}
		p.levelCost[c] = costs
		p.privCost[c] = sum
	}
	p.classShift = maxLine
	p.classes = 1
	if pow2 && minTop > maxLine {
		g := minTop - maxLine
		if g > maxClassBits {
			g = maxClassBits
		}
		p.classes = 1 << g
	}
	return p
}

// partState is the engine's pooled working memory, reused across rounds
// and runs. All slices are scratch in the simulator's buffer-reuse sense:
// they are repopulated every round and must never escape.
type partState struct {
	// Per-(core*classes+class) sub-streams produced by the split phase:
	// addresses in core program order, and pos | write<<63 metadata.
	subAddr [][]int64  //topovet:scratch
	subMeta [][]uint64 //topovet:scratch
	// Dense per-core, per-position annotations produced by the private
	// phase: the private hit level (escaped = missed the whole prefix),
	// and for escaping positions the packed access (addr<<1 | write) and
	// the last private level's victim (victimAddr<<1 | dirty; no victim
	// encodes as -1<<1, whose dirty bit is 0).
	hitLvl [][]uint8 //topovet:scratch
	escAW  [][]int64 //topovet:scratch
	escVic [][]int64 //topovet:scratch
	// Per-unit, per-private-level local counters, merged sequentially
	// after the private phase. Recency state needs no merging: it lives in
	// per-set meta blocks, which units own exclusively.
	unitHits [][]uint64 //topovet:scratch
	unitMiss [][]uint64 //topovet:scratch
	unitWb   [][]uint64 //topovet:scratch
	// cnt[c] is core c's access count this round; pos[c] is the replay
	// cursor into the annotation arrays.
	cnt []int
	pos []int
	// errs/panics collect per-unit outcomes of a parallel phase; the
	// lowest-indexed entry wins, making failures deterministic at any
	// worker count.
	errs   []error
	panics []any
}

// growPart sizes the pooled partition state for ncores cores and the
// plan's unit count, preserving capacity across calls.
func (s *Simulator) growPart(ncores int, plan *partPlan) *partState {
	if s.part == nil {
		s.part = &partState{}
	}
	ps := s.part
	units := ncores * plan.classes
	for len(ps.subAddr) < units {
		ps.subAddr = append(ps.subAddr, nil)
		ps.subMeta = append(ps.subMeta, nil)
	}
	for len(ps.unitHits) < units {
		ps.unitHits = append(ps.unitHits, nil)
		ps.unitMiss = append(ps.unitMiss, nil)
		ps.unitWb = append(ps.unitWb, nil)
	}
	for len(ps.hitLvl) < ncores {
		ps.hitLvl = append(ps.hitLvl, nil)
		ps.escAW = append(ps.escAW, nil)
		ps.escVic = append(ps.escVic, nil)
	}
	for len(ps.cnt) < ncores {
		ps.cnt = append(ps.cnt, 0)
		ps.pos = append(ps.pos, 0)
	}
	for len(ps.errs) < units {
		ps.errs = append(ps.errs, nil)
		ps.panics = append(ps.panics, nil)
	}
	for u := 0; u < units; u++ {
		plen := len(plan.priv[u/plan.classes])
		if cap(ps.unitHits[u]) < plen {
			ps.unitHits[u] = make([]uint64, plen)
			ps.unitMiss[u] = make([]uint64, plen)
			ps.unitWb[u] = make([]uint64, plen)
		}
		ps.unitHits[u] = ps.unitHits[u][:plen]
		ps.unitMiss[u] = ps.unitMiss[u][:plen]
		ps.unitWb[u] = ps.unitWb[u][:plen]
	}
	return ps
}

// runPartitioned is the set-partitioned counterpart of the sequential loop
// in RunContext: identical inputs, identical Result, internal parallelism
// bounded by plan.workers.
func (s *Simulator) runPartitioned(ctx context.Context, prog trace.Source, lim Limits, res *Result, plan *partPlan) (*Result, error) {
	ncores := len(plan.priv)
	ps := s.growPart(ncores, plan)
	units := ncores * plan.classes
	st := lim.Stats
	if st != nil {
		*st = PhaseStats{Workers: plan.workers, Partitioned: true, Classes: plan.classes, Units: units}
	}
	synchronized := prog.Sync()
	for r, rounds := 0, prog.RoundCount(); r < rounds; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		// Phase 1: split each core's cursor into per-class sub-streams.
		t, alloc := phaseStart(st)
		curs := s.curBuf[:0]
		for c := 0; c < ncores; c++ {
			curs = append(curs, prog.Cursor(r, c))
		}
		s.curBuf = curs
		err := s.runUnits(ps, plan.workers, ncores, func(c int) error {
			return s.splitCore(ctx, ps, plan, r, c, curs[c])
		})
		s.releaseCursors()
		phaseEnd(st, t, alloc, stSplit)
		if err != nil {
			return nil, err
		}

		// Phase 2: simulate every (core, class) unit's private prefix in
		// parallel, then merge unit counters in fixed order.
		t, alloc = phaseStart(st)
		err = s.runUnits(ps, plan.workers, units, func(u int) error {
			return s.privUnit(ctx, ps, plan, r, u)
		})
		if err == nil {
			for u := 0; u < units; u++ {
				for j, ch := range plan.priv[u/plan.classes] {
					ch.hits += ps.unitHits[u][j]
					ch.misses += ps.unitMiss[u][j]
					ch.writebacks += ps.unitWb[u][j]
				}
			}
		}
		phaseEnd(st, t, alloc, stPrivate)
		if err != nil {
			return nil, err
		}

		// Phase 3: sequential replay over the annotations.
		t, alloc = phaseStart(st)
		err = s.replayRound(ctx, ps, plan, r, lim, res, st)
		phaseEnd(st, t, alloc, stReplay)
		if err != nil {
			return nil, err
		}

		if synchronized {
			alignBarrier(res)
		}
	}
	return s.finishRun(res)
}

// runUnits executes fn(0..n-1) on min(workers, n) goroutines pulling unit
// indices from a shared counter. Unit outcomes land in ps.errs/ps.panics
// by index; the lowest-indexed failure wins, so the reported error is
// deterministic at any worker count. A panicking unit re-panics on the
// calling goroutine, preserving the repo's panic-containment path
// (repro.capturePanic wraps the simulator's caller).
func (s *Simulator) runUnits(ps *partState, workers, n int, fn func(u int) error) error {
	for u := 0; u < n; u++ {
		ps.errs[u] = nil
		ps.panics[u] = nil
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u := int(next.Add(1)) - 1
				if u >= n {
					return
				}
				func() {
					defer func() {
						if p := recover(); p != nil {
							ps.panics[u] = p
						}
					}()
					ps.errs[u] = fn(u)
				}()
			}
		}()
	}
	wg.Wait()
	for u := 0; u < n; u++ {
		if ps.panics[u] != nil {
			//lint:ignore cellboundary re-raising a worker unit's panic on the calling goroutine, where repro.capturePanic contains it exactly as it contains sequential-loop panics
			panic(ps.panics[u])
		}
		if ps.errs[u] != nil {
			return ps.errs[u]
		}
	}
	return nil
}

// splitCore streams core c's round-r cursor once, scattering its accesses
// into the core's per-class sub-streams. The cursor-level invariants run
// here under checking: exactly Len() accesses, all with non-negative
// addresses. Without checking the sequential loop's semantics are
// preserved bit for bit: a short cursor contributes zero-valued accesses
// up to Len (exactly what the sequential loop simulates when Next runs
// dry), and accesses beyond Len are never pulled.
func (s *Simulator) splitCore(ctx context.Context, ps *partState, plan *partPlan, r, c int, cur trace.Cursor) error {
	n := cur.Len()
	ps.cnt[c] = n
	if cap(ps.hitLvl[c]) < n {
		ps.hitLvl[c] = make([]uint8, n)
		ps.escAW[c] = make([]int64, n)
		ps.escVic[c] = make([]int64, n)
	}
	ps.hitLvl[c] = ps.hitLvl[c][:n]
	ps.escAW[c] = ps.escAW[c][:n]
	ps.escVic[c] = ps.escVic[c][:n]
	u0 := c * plan.classes
	for g := 0; g < plan.classes; g++ {
		ps.subAddr[u0+g] = ps.subAddr[u0+g][:0]
		ps.subMeta[u0+g] = ps.subMeta[u0+g][:0]
	}
	cmask := int64(plan.classes - 1)
	shift := plan.classShift
	for i := 0; i < n; i++ {
		if i&(cancelCheckEvents-1) == cancelCheckEvents-1 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		a, ok := cur.Next()
		if s.chk {
			if !ok {
				return &check.InvariantError{Name: "cursor-short", Core: c, Round: r, AccessIndex: int64(i),
					Detail: fmt.Sprintf("cursor drained with %d of %d accesses outstanding (hits+misses would undercount Len)", n-i, n)}
			}
			if a.Addr < 0 {
				return &check.InvariantError{Name: "negative-address", Core: c, Round: r, AccessIndex: int64(i),
					Detail: fmt.Sprintf("cursor yielded address %#x (out-of-range group index or corrupted synthesis)", a.Addr)}
			}
		} else if !ok {
			a = trace.Access{}
		}
		u := u0 + int((a.Addr>>shift)&cmask)
		m := uint64(i)
		if a.Write {
			m |= 1 << 63
		}
		ps.subAddr[u] = append(ps.subAddr[u], a.Addr)
		ps.subMeta[u] = append(ps.subMeta[u], m)
	}
	if s.chk {
		if _, more := cur.Next(); more {
			return &check.InvariantError{Name: "cursor-overrun", Core: c, Round: r, AccessIndex: int64(n),
				Detail: fmt.Sprintf("cursor yields accesses beyond its Len() of %d", n)}
		}
	}
	return nil
}

// privUnit simulates unit u's private-cache stream: probe and fill the
// private prefix in core program order with unit-local counters,
// recording each position's outcome for replay. Every array write
// is either unit-exclusive (the unit's own counters, positions of its own
// class) or line-disjoint (cache sets owned by the class), so units never
// race.
func (s *Simulator) privUnit(ctx context.Context, ps *partState, plan *partPlan, r, u int) error {
	c := u / plan.classes
	priv := plan.priv[c]
	addrs := ps.subAddr[u]
	metas := ps.subMeta[u]
	hits, miss, wbs := ps.unitHits[u], ps.unitMiss[u], ps.unitWb[u]
	for j := range hits {
		hits[j], miss[j], wbs[j] = 0, 0, 0
	}
	hl, eaw, evc := ps.hitLvl[c], ps.escAW[c], ps.escVic[c]
	vict := make([]int, len(priv))
	for i, addr := range addrs {
		if i&(cancelCheckEvents-1) == cancelCheckEvents-1 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		m := metas[i]
		pos := int(m &^ (1 << 63))
		write := m>>63 == 1
		hit := -1
		for j, ch := range priv {
			h, v := ch.probeAt(addr, write, &hits[j], &miss[j])
			if h {
				hit = j
				break
			}
			vict[j] = v
		}
		fillTo := hit
		if hit >= 0 {
			hl[pos] = uint8(hit)
		} else {
			hl[pos] = escaped
			wbit := int64(0)
			if write {
				wbit = 1
			}
			eaw[pos] = addr<<1 | wbit
			fillTo = len(priv)
		}
		for j := 0; j < fillTo; j++ {
			va, vd := priv[j].fillAtWay(addr, write && j == 0, vict[j], &wbs[j])
			if j+1 < len(priv) {
				if vd {
					priv[j+1].setDirty(va)
				}
				continue
			}
			// The last private level's victim leaves the prefix; replay
			// hands it to the shared hierarchy at this access's global
			// slot. (-1 victims pack to an even value: dirty bit 0.)
			vbit := int64(0)
			if vd {
				vbit = 1
			}
			evc[pos] = va<<1 | vbit
		}
		if s.chk {
			top := hit
			if hit < 0 {
				top = len(priv) - 1
			}
			for j := 0; j <= top; j++ {
				if v := priv[j].verify(addr); v != nil {
					v.Core, v.Round, v.AccessIndex = c, r, int64(pos)
					return v
				}
			}
		}
	}
	return nil
}

// probeAt is cache.probe with externalized counters — the private-phase
// variant, where each (core, class) unit counts into unit-local cells that
// merge after the phase. Recency state needs no externalization at all:
// it is per-set (the recency list in the set's meta block), and a unit
// owns its sets exclusively. Like probe, it returns the fill-time victim
// way on a miss so fillAtWay never re-scans the set.
func (c *cache) probeAt(addr int64, write bool, hits, misses *uint64) (hit bool, victim int) {
	tag := addr >> c.lineBits
	set := c.setOf(tag)
	base := set * c.assoc
	off := set * c.metaStride
	pts := c.meta[off : off+c.assoc]
	tg := c.tags[base : base+c.assoc]
	pt := ptagOf(tag)
	for w := range pts {
		if pts[w] != pt {
			continue
		}
		if t := tg[w]; t>>1 == tag {
			if write {
				tg[w] = t | 1
			}
			touch(c.meta[off+c.assoc:off+2*c.assoc], w)
			*hits++
			return true, 0
		}
	}
	*misses++
	return false, base + int(c.meta[off+2*c.assoc-1])
}

// fillAtWay is cache.fillWay with an externalized write-back counter and
// no replacement hook (the partitioned engine declines to run under chaos
// hooks, which are stateful and order-dependent). victim is the flat way
// index probeAt chose.
func (c *cache) fillAtWay(addr int64, write bool, victim int, writebacks *uint64) (victimAddr int64, evictedDirty bool) {
	tag := addr >> c.lineBits
	set := c.setOf(tag)
	w := victim - set*c.assoc
	victimAddr = -1
	if t := c.tags[victim]; t != -1 {
		victimAddr = (t >> 1) << c.lineBits
		if t&1 != 0 {
			*writebacks++
			evictedDirty = true
		}
	}
	nt := tag << 1
	if write {
		nt |= 1
	}
	c.tags[victim] = nt
	off := set * c.metaStride
	c.meta[off+w] = ptagOf(tag)
	touch(c.meta[off+c.assoc:off+2*c.assoc], w)
	return victimAddr, evictedDirty
}

// replayRound drives the same discrete-event heap as the sequential loop,
// but over the recorded annotations: no cursor pulls, no private-cache
// work — a private hit is a table lookup, and only escaping accesses touch
// shared state. Costs reproduce the sequential loop's exactly, so the heap
// pops events in the identical global order.
func (s *Simulator) replayRound(ctx context.Context, ps *partState, plan *partPlan, r int, lim Limits, res *Result, st *PhaseStats) error {
	ncores := len(plan.priv)
	h := s.heapBuf[:0]
	rem := s.remBuf[:0]
	for c := 0; c < ncores; c++ {
		rem = append(rem, ps.cnt[c])
		ps.pos[c] = 0
		if ps.cnt[c] > 0 {
			h = eventPush(h, coreEvent{core: c, cycles: res.CyclesPerCore[c]})
		}
	}
	defer func() {
		s.heapBuf, s.remBuf = h, rem
	}()
	limMax := lim.MaxCycles
	if limMax == 0 {
		limMax = ^uint64(0)
	}
	chk := s.chk
	lastEv := coreEvent{core: -1}
	popped := false
	sinceCheck := 0
	var escCount uint64
	for len(h) > 0 {
		if sinceCheck++; sinceCheck >= cancelCheckEvents {
			sinceCheck = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		ev := h[0]
		c := ev.core
		if chk {
			if popped && eventLess(ev, lastEv) {
				return &check.InvariantError{Name: "event-clock", Core: c, Round: r, AccessIndex: int64(res.Accesses),
					Detail: fmt.Sprintf("event (cycle %d, core %d) popped after (cycle %d, core %d)", ev.cycles, ev.core, lastEv.cycles, lastEv.core)}
			}
			lastEv, popped = ev, true
		}
		k := ps.pos[c]
		ps.pos[c] = k + 1
		rem[c]--
		var cost int
		memHit := false
		if hl := ps.hitLvl[c][k]; hl != escaped {
			cost = plan.levelCost[c][hl]
		} else {
			escCount++
			var cerr *check.InvariantError
			cost, memHit, cerr = s.replayEscaped(c, k, plan, ps, res)
			if cerr != nil {
				cerr.Core, cerr.Round, cerr.AccessIndex = c, r, int64(res.Accesses)
				return cerr
			}
		}
		res.Accesses++
		res.AccessesPerCore[c]++
		if memHit {
			res.MemAccesses++
			res.MemAccessesPerCore[c]++
		}
		res.CyclesPerCore[c] += uint64(cost)
		if res.CyclesPerCore[c] > limMax {
			return fmt.Errorf("%w: core %d reached %d cycles (budget %d)",
				ErrCycleBudget, c, res.CyclesPerCore[c], lim.MaxCycles)
		}
		if rem[c] > 0 {
			h[0] = coreEvent{core: c, cycles: res.CyclesPerCore[c]}
			eventFix(h)
		} else {
			_, h = eventPop(h)
		}
	}
	if st != nil {
		st.Escaped += escCount
	}
	return nil
}

// replayEscaped replays one recorded escaping access at its global slot:
// probe the shared levels, charge off-chip latency and queueing, then run
// the inclusive fill chain seeded with the recorded private victim —
// exactly the shared-level op sequence (access, setDirty-from-below, fill)
// the sequential accessFrom issues.
func (s *Simulator) replayEscaped(c, k int, plan *partPlan, ps *partState, res *Result) (cost int, memAccess bool, ierr *check.InvariantError) {
	aw := ps.escAW[c][k]
	addr := aw >> 1
	write := aw&1 == 1
	shared := s.paths[c][len(plan.priv[c]):]
	cost = plan.privCost[c]
	hitAt := -1
	for i, ch := range shared {
		cost += ch.node.Latency
		hit, v := ch.probe(addr, write)
		if hit {
			hitAt = i
			break
		}
		s.victimBuf[i] = v
	}
	now := res.CyclesPerCore[c]
	if hitAt == -1 {
		memAccess = true
		hitAt = len(shared)
		cost += s.machine.MemLatency
		if occ := uint64(s.machine.MemOccupancy); occ > 0 {
			arrive := now + uint64(cost) - uint64(s.machine.MemLatency)
			if s.memFreeAt > arrive {
				cost += int(s.memFreeAt - arrive) // queueing delay
				s.memFreeAt += occ
			} else {
				s.memFreeAt = arrive + occ
			}
		}
	}
	v := ps.escVic[c][k]
	vAddr := v >> 1
	vDirty := v&1 == 1
	for i := 0; i < hitAt; i++ {
		if vDirty {
			shared[i].setDirty(vAddr)
		}
		vAddr, vDirty = shared[i].fillWay(addr, false, s.victimBuf[i], nil)
	}
	if vDirty {
		if hitAt < len(shared) {
			shared[hitAt].setDirty(vAddr)
		} else {
			res.Writebacks++
			if occ := uint64(s.machine.MemOccupancy); occ > 0 {
				s.memFreeAt += occ
			}
		}
	}
	if s.chk {
		for i := 0; i <= hitAt && i < len(shared); i++ {
			if v := shared[i].verify(addr); v != nil {
				return cost, memAccess, v
			}
		}
	}
	return cost, memAccess, nil
}

// Phase selectors for phaseEnd.
const (
	stSplit = iota
	stPrivate
	stReplay
)

// phaseStart samples the wall clock and allocation counter for phase
// attribution; a nil st (stats not requested) samples nothing.
func phaseStart(st *PhaseStats) (time.Time, uint64) {
	if st == nil {
		return time.Time{}, 0
	}
	return time.Now(), heapAllocBytes() //lint:ignore nondeterminism phase wall-clock attribution feeds Limits.Stats, which is observational and never part of Result or any figure table
}

// phaseEnd accumulates one phase's wall time and allocation into st.
func phaseEnd(st *PhaseStats, t0 time.Time, alloc0 uint64, phase int) {
	if st == nil {
		return
	}
	d := time.Since(t0) //lint:ignore nondeterminism phase wall-clock attribution feeds Limits.Stats, which is observational and never part of Result or any figure table
	a := heapAllocBytes() - alloc0
	switch phase {
	case stSplit:
		st.SplitWall += d
		st.SplitAlloc += a
	case stPrivate:
		st.PrivateWall += d
		st.PrivateAlloc += a
	case stReplay:
		st.ReplayWall += d
		st.ReplayAlloc += a
	}
}

// heapAllocBytes reads the runtime's cumulative heap allocation counter
// (process-wide; see PhaseStats alloc-field caveat).
func heapAllocBytes() uint64 {
	sample := []runtimemetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	runtimemetrics.Read(sample)
	if sample[0].Value.Kind() != runtimemetrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}
