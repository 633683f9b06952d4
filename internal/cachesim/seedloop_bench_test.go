package cachesim

// BenchmarkSimulatorHotPath compares the fused event loop (batched cursor
// pulls, interleaved way arrays, shift/mask-or-fastmod set indexing, heap
// replace-top, hoisted checks) against a faithful copy of the seed
// implementation — separate tag and stamp arrays, modulo set indexing,
// per-access cursor.Next, pop+push heap re-arm, separate access and fill
// scans, per-access check branches — on the Fig 17-weak headline cell
// (galgel scaled x8 on the 24-core scaled Dunnington, Base order). The
// seed is copied here rather than summoned from git so the comparison runs
// in one binary; record runs into BENCH_simulator_hotpath.json.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// seedCache is a faithful copy of the seed's cache representation: tags,
// stamps and dirty bits in separate parallel arrays and general modulo set
// indexing. The interleaved way array, the mask/fastmod reduction and the
// fused probe all postdate the seed, so the baseline must not have them.
type seedCache struct {
	node     *topology.Node
	sets     int
	assoc    int
	lineBits uint
	lines    []int64
	stamp    []uint64
	dirty    []bool
	tick     uint64

	hits, misses, writebacks uint64
}

// seedSim mirrors the Simulator's topology wiring (paths, cache list
// order) onto seedCache instances; the geometry is borrowed from New so
// the two engines simulate the identical hierarchy.
type seedSim struct {
	machine   *topology.Machine
	paths     [][]*seedCache
	list      []*seedCache
	nodes     []*topology.Node
	memFreeAt uint64

	snapHits, snapMiss, snapWb []uint64
	heapBuf                    []coreEvent
	remBuf                     []int
	curBuf                     []trace.Cursor
}

func newSeedSim(m *topology.Machine) *seedSim {
	real := New(m)
	mirror := make(map[*cache]*seedCache, len(real.cacheList))
	ss := &seedSim{machine: m, nodes: real.cacheNodes}
	for _, c := range real.cacheList {
		k := &seedCache{node: c.node, sets: c.sets, assoc: c.assoc, lineBits: c.lineBits,
			lines: make([]int64, c.sets*c.assoc),
			stamp: make([]uint64, c.sets*c.assoc),
			dirty: make([]bool, c.sets*c.assoc)}
		for i := range k.lines {
			k.lines[i] = -1
		}
		mirror[c] = k
		ss.list = append(ss.list, k)
	}
	ss.paths = make([][]*seedCache, len(real.paths))
	for c, p := range real.paths {
		for _, ch := range p {
			ss.paths[c] = append(ss.paths[c], mirror[ch])
		}
	}
	ss.snapHits = make([]uint64, len(ss.list))
	ss.snapMiss = make([]uint64, len(ss.list))
	ss.snapWb = make([]uint64, len(ss.list))
	return ss
}

// seedAccess is the seed cache.access: modulo set indexing, hit scan only.
func (c *seedCache) seedAccess(addr int64, write bool) bool {
	tag := addr >> c.lineBits
	set := int(tag % int64(c.sets))
	base := set * c.assoc
	c.tick++
	for w := 0; w < c.assoc; w++ {
		if c.lines[base+w] == tag {
			c.stamp[base+w] = c.tick
			if write {
				c.dirty[base+w] = true
			}
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

// seedFill is the seed cache.fill: a second scan of the same set selects
// the LRU victim the fused probe now finds during the hit scan.
func (c *seedCache) seedFill(addr int64, write bool) (victimAddr int64, evictedDirty bool) {
	tag := addr >> c.lineBits
	set := int(tag % int64(c.sets))
	base := set * c.assoc
	victim := base
	for w := 0; w < c.assoc; w++ {
		if c.lines[base+w] == -1 {
			victim = base + w
			break
		}
		if c.stamp[base+w] < c.stamp[victim] {
			victim = base + w
		}
	}
	victimAddr = -1
	if c.lines[victim] != -1 {
		victimAddr = c.lines[victim] << c.lineBits
		if c.dirty[victim] {
			c.writebacks++
			evictedDirty = true
		}
	}
	c.tick++
	c.lines[victim] = tag
	c.stamp[victim] = c.tick
	c.dirty[victim] = write
	return victimAddr, evictedDirty
}

// seedSetDirty is the seed cache.setDirty.
func (c *seedCache) seedSetDirty(addr int64) bool {
	tag := addr >> c.lineBits
	set := int(tag % int64(c.sets))
	base := set * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.lines[base+w] == tag {
			c.dirty[base+w] = true
			return true
		}
	}
	return false
}

// seedAccessFrom is the seed Simulator.accessFrom without the
// self-checking tail (the benchmark runs check-off, where the seed loop
// skipped VerifySet behind the same chk branch the copy keeps upstream).
func (ss *seedSim) seedAccessFrom(c int, addr int64, write bool, now uint64, res *Result) (cost int, memAccess bool) {
	path := ss.paths[c]
	hitAt := -1
	for i, ch := range path {
		cost += ch.node.Latency
		if ch.seedAccess(addr, write) {
			hitAt = i
			break
		}
	}
	if hitAt == -1 {
		memAccess = true
		hitAt = len(path)
		cost += ss.machine.MemLatency
		if occ := uint64(ss.machine.MemOccupancy); occ > 0 {
			arrive := now + uint64(cost) - uint64(ss.machine.MemLatency)
			if ss.memFreeAt > arrive {
				cost += int(ss.memFreeAt - arrive)
				ss.memFreeAt += occ
			} else {
				ss.memFreeAt = arrive + occ
			}
		}
	}
	for i := 0; i < hitAt && i < len(path); i++ {
		victimAddr, dirtyOut := path[i].seedFill(addr, write && i == 0)
		if !dirtyOut {
			continue
		}
		if i+1 < len(path) {
			path[i+1].seedSetDirty(victimAddr)
			continue
		}
		res.Writebacks++
		if occ := uint64(ss.machine.MemOccupancy); occ > 0 {
			ss.memFreeAt += occ
		}
	}
	return cost, memAccess
}

// seedFinish replicates finishRun's aggregation (conservation checking is
// Check-gated and off in both loops being compared).
func (ss *seedSim) seedFinish(res *Result) *Result {
	res.PerCache = make([]CacheStats, 0, len(ss.list))
	for i, c := range ss.list {
		n := ss.nodes[i]
		ls, ok := res.Levels[c.node.Level]
		if !ok {
			ls = &LevelStats{Level: c.node.Level}
			res.Levels[c.node.Level] = ls
		}
		hits := c.hits - ss.snapHits[i]
		misses := c.misses - ss.snapMiss[i]
		ls.Hits += hits
		ls.Misses += misses
		ls.Accesses += hits + misses
		cs := CacheStats{Label: n.Label(), Level: n.Level, Hits: hits, Misses: misses, Writebacks: c.writebacks - ss.snapWb[i]}
		for _, cn := range n.Cores() {
			cs.Cores = append(cs.Cores, cn.CoreID)
		}
		res.PerCache = append(res.PerCache, cs)
	}
	for _, cy := range res.CyclesPerCore {
		if cy > res.TotalCycles {
			res.TotalCycles = cy
		}
	}
	return res
}

// seedRun replicates the seed RunContext event loop: one cursor.Next per
// access, pop+push heap re-arm, per-access check branch (off here, exactly
// as a production check-off run took it).
func seedRun(ss *seedSim, prog trace.Source) (*Result, error) {
	ctx := context.Background()
	ncores := prog.CoreCount()
	res := &Result{
		Machine:            ss.machine.Name,
		CyclesPerCore:      make([]uint64, ss.machine.NumCores()),
		MemAccessesPerCore: make([]uint64, ss.machine.NumCores()),
		AccessesPerCore:    make([]uint64, ss.machine.NumCores()),
		Levels:             make(map[int]*LevelStats),
	}
	for i, c := range ss.list {
		ss.snapHits[i] = c.hits
		ss.snapMiss[i] = c.misses
		ss.snapWb[i] = c.writebacks
	}
	synchronized := prog.Sync()
	sinceCheck := 0
	for r, rounds := 0, prog.RoundCount(); r < rounds; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		h := ss.heapBuf[:0]
		rem := ss.remBuf[:0]
		curs := ss.curBuf[:0]
		for c := 0; c < ncores; c++ {
			cur := prog.Cursor(r, c)
			curs = append(curs, cur)
			n := cur.Len()
			rem = append(rem, n)
			if n > 0 {
				h = eventPush(h, coreEvent{core: c, cycles: res.CyclesPerCore[c]})
			}
		}
		for len(h) > 0 {
			if sinceCheck++; sinceCheck >= cancelCheckEvents {
				sinceCheck = 0
				if err := ctx.Err(); err != nil {
					ss.heapBuf, ss.remBuf, ss.curBuf = h, rem, curs
					return nil, err
				}
			}
			var ev coreEvent
			ev, h = eventPop(h)
			c := ev.core
			a, _ := curs[c].Next()
			rem[c]--
			cost, memHit := ss.seedAccessFrom(c, a.Addr, a.Write, res.CyclesPerCore[c], res)
			res.Accesses++
			res.AccessesPerCore[c]++
			if memHit {
				res.MemAccesses++
				res.MemAccessesPerCore[c]++
			}
			res.CyclesPerCore[c] += uint64(cost)
			if rem[c] > 0 {
				h = eventPush(h, coreEvent{core: c, cycles: res.CyclesPerCore[c]})
			}
		}
		ss.heapBuf, ss.remBuf, ss.curBuf = h, rem, curs
		if synchronized {
			alignBarrier(res)
		}
	}
	for i := range ss.curBuf {
		ss.curBuf[i] = nil
	}
	return ss.seedFinish(res), nil
}

// headlineCell builds the Fig 17-weak headline trace: galgel scaled x8 on
// the 24-core scaled Dunnington under the Base iteration order.
func headlineCell(tb testing.TB) (trace.Source, *topology.Machine) {
	tb.Helper()
	k, err := workloads.Scaled("galgel", 8)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := topology.ScaleDunnington(24)
	if err != nil {
		tb.Fatal(err)
	}
	perCore := baseline.Base(k, m.NumCores())
	layout := k.Layout(2048)
	return trace.StreamOrder(perCore, k.Refs, layout), m
}

// TestSeedLoopMatchesFused pins the benchmark's validity: the copied seed
// implementation and the fused loop produce identical Results on the
// headline cell, so their ns/op compare the same computation.
func TestSeedLoopMatchesFused(t *testing.T) {
	src, m := headlineCell(t)
	want, err := New(m).Run(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := seedRun(newSeedSim(m), src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("seed copy diverges from the fused loop\nseed:  %+v\nfused: %+v", got, want)
	}
}

// BenchmarkSimulatorHotPath: ns/op of one full headline-cell simulation.
// "seed" is the pre-fusion implementation; "fused" the rewritten
// sequential loop.
func BenchmarkSimulatorHotPath(b *testing.B) {
	src, m := headlineCell(b)
	b.Run("seed", func(b *testing.B) {
		ss := newSeedSim(m)
		b.ReportAllocs()
		b.ResetTimer()
		var accesses uint64
		for i := 0; i < b.N; i++ {
			res, err := seedRun(ss, src)
			if err != nil {
				b.Fatal(err)
			}
			accesses = res.Accesses
		}
		b.ReportMetric(float64(accesses), "accesses/cell")
	})
	b.Run("fused", func(b *testing.B) {
		s := New(m)
		b.ReportAllocs()
		b.ResetTimer()
		var accesses uint64
		for i := 0; i < b.N; i++ {
			res, err := s.RunContext(context.Background(), src, Limits{})
			if err != nil {
				b.Fatal(err)
			}
			accesses = res.Accesses
		}
		b.ReportMetric(float64(accesses), "accesses/cell")
	})
}
