package cachesim

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/check"
	"repro/internal/topology"
	"repro/internal/trace"
)

// BarrierCost is the cycle cost charged per synchronized barrier.
const BarrierCost = 100

// cancelCheckEvents is how many simulated accesses the event loop processes
// between context checks. Small enough that cancellation lands promptly even
// inside a single long free-running round, large enough that the check is
// invisible in the per-access cost.
const cancelCheckEvents = 4096

// batchSize is how many accesses the event loop pulls per cursor call.
// Large enough to amortize the interface dispatch and synthesis setup,
// small enough that per-core batch buffers stay cache-resident (256 accesses
// x 16 bytes = 4 KB per core). It is an internal pacing constant, not a
// tunable: any value yields byte-identical results, because batching only
// prefetches each core's own in-order stream.
const batchSize = 256

// ErrCycleBudget is wrapped by RunContext when a core's simulated clock
// exceeds Limits.MaxCycles. Detect it with errors.Is.
var ErrCycleBudget = errors.New("cachesim: simulated-cycle budget exceeded")

// Limits bounds and instruments one simulation. The zero value imposes no
// limits and runs no checks.
type Limits struct {
	// MaxCycles aborts the run with ErrCycleBudget once any core's local
	// clock passes this bound (0 = unlimited). It is a fault-isolation
	// guard for pathological cells, not part of the machine model: an
	// aborted run returns no Result at all, so partial statistics can
	// never be mistaken for a completed simulation.
	MaxCycles uint64
	// Check selects the runtime self-checking level. The simulator itself
	// distinguishes only off (< check.Invariants) from on: at Invariants
	// and above every access verifies set occupancy, tag uniqueness and
	// LRU recency, the event loop verifies cursor Len() accounting and
	// clock monotonicity, and the end of the run verifies cross-level
	// conservation. A violation aborts the run with a *check.InvariantError
	// and no Result. The Sampled/Full oracle layers live above, in repro.
	Check check.Mode
	// Replace, when non-nil, overrides the victim way the replacement
	// policy chose — the chaos-testing hook (internal/chaos). It receives
	// the cache level, set index, LRU-chosen victim way and associativity
	// and returns the way to evict instead. Production runs leave it nil.
	Replace func(level, set, victim, assoc int) int
}

// cache is one set-associative LRU cache instance.
type cache struct {
	node     *topology.Node
	sets     int
	assoc    int
	lineBits uint
	// mask is sets-1 when sets is a power of two (set index = tag & mask,
	// no division on the hot path), 0 otherwise (Lemire fastmod fallback,
	// see setOf).
	mask int64
	// magicHi:magicLo is ceil(2^128 / sets), precomputed for the fastmod
	// set reduction when sets is not a power of two.
	magicHi, magicLo uint64
	// The per-way state is laid out for the miss path, where a probe scans
	// a random set of a multi-megabyte structure and every parallel array
	// is another host-DRAM cache line:
	//
	//   - meta[set*metaStride ...] is one compact per-set block holding the
	//     whole scan: assoc 16-bit partial tags (a multiplicative hash of
	//     the line tag) followed by the set's recency list (meta[assoc+i] =
	//     way at recency rank i, rank 0 most recent, rank assoc-1 the LRU
	//     victim). The stride is padded so a block never straddles cache
	//     lines it doesn't need, and for every Table 1 geometry the whole
	//     block is a single 64-byte line.
	//   - tags[set*assoc+way] holds each way's full packed tag word (line
	//     tag and dirty bit, check.LineTag). It is read only to confirm a
	//     partial-tag match and at the victim way during a fill, so a miss
	//     touches one line of it instead of scanning it.
	//
	// Recency is the explicit rank list, not LRU stamps: a stamp scan needs
	// 8 bytes per way on the miss path, the rank list needs log2(assoc)
	// bits and rides in the block the probe already loaded.
	//
	// Both arrays are pooled across simulations (pool.go), so no alias of
	// them may outlive the run.
	meta       []uint16 //topovet:scratch
	metaStride int
	tags       []int64 //topovet:scratch

	hits, misses uint64
	// writebacks counts dirty lines evicted from this cache.
	writebacks uint64
}

// ptagOf hashes a line tag to its 16-bit partial tag. The low tag bits are
// the set index (identical within a set), so the hash must mix high bits
// down: one odd-constant multiply (Fibonacci hashing) keeping the top 16
// bits does. Collisions only cost a confirming full-tag read.
func ptagOf(tag int64) uint16 {
	return uint16(uint64(tag) * 0x9E3779B97F4A7C15 >> 48)
}

func newCache(n *topology.Node) *cache {
	lineBits := uint(0)
	for (int64(1) << lineBits) < n.LineBytes {
		lineBits++
	}
	sets := int(n.SizeBytes / (int64(n.Assoc) * n.LineBytes))
	if sets < 1 {
		sets = 1
	}
	c := &cache{node: n, sets: sets, assoc: n.Assoc, lineBits: lineBits}
	if sets&(sets-1) == 0 {
		c.mask = int64(sets - 1)
	} else {
		// ceil(2^128/sets) = floor((2^128-1)/sets) + 1: long-divide the
		// all-ones 128-bit value by sets, then add one.
		d := uint64(sets)
		c.magicHi = ^uint64(0) / d
		c.magicLo, _ = bits.Div64(^uint64(0)%d, ^uint64(0), d)
		c.magicLo++
		if c.magicLo == 0 {
			c.magicHi++
		}
	}
	// Meta stride: 2*assoc uint16s rounded up so set blocks stay cache-line
	// aligned — to 8/16/32 elements (16/32/64 bytes, dividing a line), else
	// to a multiple of 32 (whole lines).
	stride := 2 * n.Assoc
	switch {
	case stride <= 8:
		stride = 8
	case stride <= 16:
		stride = 16
	case stride <= 32:
		stride = 32
	default:
		stride = (stride + 31) &^ 31
	}
	c.metaStride = stride
	// The arrays may come from the pools (pool.go) holding another run's
	// state, so every element is reset. Every set starts out the same, so
	// set 0 is written and then replicated: no line resident, partial tags
	// and padding zero.
	c.meta = takeArray[uint16](&metaPools, sets*stride)
	c.tags = takeArray[int64](&tagPools, sets*n.Assoc)
	c.tags[0] = -1
	replicate(c.tags, 1)
	block := c.meta[:stride]
	clear(block)
	// Initial recency lists put way 0 at the LRU tail so cold fills claim
	// ways in ascending index order, matching the reference engines'
	// first-empty-way rule. Untouched (empty) ways keep that relative
	// order at the tail, so the rule holds for partially filled sets too.
	for i := 0; i < n.Assoc; i++ {
		block[n.Assoc+i] = uint16(n.Assoc - 1 - i)
	}
	replicate(c.meta, stride)
	return c
}

// replicate fills a with copies of its first n elements, doubling the
// copied prefix at each step.
func replicate[T int64 | uint16](a []T, n int) {
	for n < len(a) {
		n += copy(a[n:], a[:n])
	}
}

// release hands the cache's arrays back to the pools. The cache must not be
// used afterwards.
func (c *cache) release() {
	putArray(&tagPools, c.tags)
	putArray(&metaPools, c.meta)
	c.tags, c.meta = nil, nil
}

// verify checks the set holding addr's line right after an access or fill
// touched it (check.VerifySet), naming the cache in a violation.
func (c *cache) verify(addr int64) *check.InvariantError {
	tag := addr >> c.lineBits
	set := c.setOf(tag)
	off := set*c.metaStride + c.assoc
	v := check.VerifySet(c.tags, c.meta[off:off+c.assoc], set*c.assoc, c.assoc, tag)
	if v != nil {
		v.Detail = c.node.Label() + ": " + v.Detail
	}
	return v
}

// touch promotes way w to most recent in a set's recency list. The list is
// tiny and already loaded, so the shift is register/L1 work. The two fast
// paths cover the common cases: a re-hit on the most recent way moves
// nothing, and a fill of the LRU tail (every ordinary eviction) is a whole
// rotate with no search.
func touch(lru []uint16, w int) {
	n := len(lru)
	uw := uint16(w)
	if lru[0] == uw {
		return
	}
	if lru[n-1] == uw {
		copy(lru[1:], lru[:n-1])
		lru[0] = uw
		return
	}
	i := 1
	for lru[i] != uw {
		i++
	}
	copy(lru[1:i+1], lru[:i])
	lru[0] = uw
}

// setOf maps a line tag to its set index: a single and-mask when the set
// count is a power of two (every Table 1 L1/L2; Dunnington's 16 MB L3 has
// 12288 sets and takes the general path), otherwise an exact tag % sets
// computed by Lemire's fastmod — two widening multiplies instead of a
// 64-bit divide, which at several probes per access was a measurable slice
// of the non-power-of-two hot path. Exactness: with M = ceil(2^128/d) and
// d not dividing 2^128, floor(((M*n mod 2^128) * d) / 2^128) == n % d for
// every n < 2^64 (the fractional-part error term is below 2^-64).
func (c *cache) setOf(tag int64) int {
	if c.mask != 0 {
		return int(tag & c.mask)
	}
	n := uint64(tag)
	d := uint64(c.sets)
	hi1, lo1 := bits.Mul64(c.magicLo, n)
	lowHi := c.magicHi*n + hi1
	ph, pl := bits.Mul64(lowHi, d)
	qh, _ := bits.Mul64(lo1, d)
	_, carry := bits.Add64(pl, qh, 0)
	return int(ph + carry)
}

// access probes the cache for addr; on hit it promotes the line to most
// recent (and marks it dirty for writes) and returns true; on miss it
// returns false without filling (fill is a separate step so the hierarchy
// can install top-down). The scan walks the set's partial tags; only a
// partial match reads the full tag word to confirm (a collision just costs
// that read and the scan continues).
func (c *cache) access(addr int64, write bool) bool {
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
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

// fill installs addr's line (write-allocate), evicting the least recently
// used way — the tail of the set's recency list, which is the first empty
// way in index order while the set is filling (see newCache) and the LRU
// line after. It returns the victim's address and whether it was dirty (a
// write-back to the next level); victimAddr is -1 when the way was empty.
// replace, when non-nil, may override the chosen victim way (the
// chaos-testing hook).
func (c *cache) fill(addr int64, write bool, replace func(level, set, victim, assoc int) int) (victimAddr int64, evictedDirty bool) {
	tag := addr >> c.lineBits
	set := c.setOf(tag)
	w := int(c.meta[set*c.metaStride+2*c.assoc-1])
	if replace != nil {
		if rw := replace(c.node.Level, set, w, c.assoc); rw >= 0 && rw < c.assoc {
			w = rw
		}
	}
	return c.install(tag, set, w, write)
}

// install writes addr's line into way w of set: evict what is there,
// record the new packed tag and partial tag, and promote the way to most
// recent. Shared tail of fill/fillWay.
func (c *cache) install(tag int64, set, w int, write bool) (victimAddr int64, evictedDirty bool) {
	i := set*c.assoc + w
	victimAddr = -1
	if t := c.tags[i]; t != -1 {
		victimAddr = (t >> 1) << c.lineBits
		if t&1 != 0 {
			c.writebacks++
			evictedDirty = true
		}
	}
	nt := tag << 1
	if write {
		nt |= 1
	}
	c.tags[i] = nt
	off := set * c.metaStride
	c.meta[off+w] = ptagOf(tag)
	touch(c.meta[off+c.assoc:off+2*c.assoc], w)
	return victimAddr, evictedDirty
}

// probe is access fused with victim selection: the one scan decides
// hit/miss, and on a miss the victim is simply the recency tail — the
// same way the reference engines' stamp argmin (first empty way, else
// lowest stamp) selects, because the rank list and the stamp order are
// the same order. On hit victim is meaningless. victim is the flat
// way-array index (set*assoc+way), so fillWay installs without re-scanning
// anything.
func (c *cache) probe(addr int64, write bool) (hit bool, victim int) {
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
			c.hits++
			return true, 0
		}
	}
	c.misses++
	return false, base + int(c.meta[off+2*c.assoc-1])
}

// fillWay is fill with the victim already chosen by probe: victim is the
// flat way index probe returned. Between probe and fillWay only other
// caches are touched, and setDirty from an inner level never reorders
// recency, so the chosen way is still the fill-time LRU victim. The chaos
// hook sees the same (level, set, victim, assoc) it always did.
func (c *cache) fillWay(addr int64, write bool, victim int, replace func(level, set, victim, assoc int) int) (victimAddr int64, evictedDirty bool) {
	tag := addr >> c.lineBits
	set := c.setOf(tag)
	w := victim - set*c.assoc
	if replace != nil {
		if rw := replace(c.node.Level, set, w, c.assoc); rw >= 0 && rw < c.assoc {
			w = rw
		}
	}
	return c.install(tag, set, w, write)
}

// setDirty marks addr's line dirty if resident (receiving a write-back
// from the level below); returns whether the line was found. Recency is
// deliberately not touched — receiving a write-back is not a use.
func (c *cache) setDirty(addr int64) bool {
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
			tg[w] = t | 1
			return true
		}
	}
	return false
}

// LevelStats aggregates hit/miss counts over all caches of one level.
type LevelStats struct {
	Level    int
	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// MissRate returns misses/accesses (0 when never accessed).
func (s LevelStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Result is the outcome of one simulation.
type Result struct {
	Machine       string
	TotalCycles   uint64
	CyclesPerCore []uint64
	// Levels maps cache level (1=L1, ...) to aggregated stats.
	Levels map[int]*LevelStats
	// MemAccesses counts accesses that missed every on-chip level.
	MemAccesses uint64
	// MemAccessesPerCore breaks MemAccesses down by issuing core.
	MemAccessesPerCore []uint64
	// AccessesPerCore counts references issued by each core.
	AccessesPerCore []uint64
	// Accesses is the total reference count simulated.
	Accesses uint64
	// Writebacks counts dirty lines evicted from the last on-chip level
	// (each occupies the off-chip channel like a line transfer).
	Writebacks uint64
	// Barriers is the number of synchronized barriers charged.
	Barriers int
	// PerCache breaks the statistics down per physical cache instance,
	// in tree (BFS) order — the destructive-interference diagnosis view.
	PerCache []CacheStats
}

// CacheStats is one cache instance's counters.
type CacheStats struct {
	Label      string // e.g. "L2#4"
	Level      int
	Cores      []int // core IDs served by this cache
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// MissRate returns this instance's miss rate.
func (s CacheStats) MissRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Hits+s.Misses)
}

// MissRate returns the aggregate miss rate of the given level.
func (r *Result) MissRate(level int) float64 {
	if s, ok := r.Levels[level]; ok {
		return s.MissRate()
	}
	return 0
}

// Misses returns the aggregate miss count of the given level.
func (r *Result) Misses(level int) uint64 {
	if s, ok := r.Levels[level]; ok {
		return s.Misses
	}
	return 0
}

// String summarizes the result.
func (r *Result) String() string {
	s := fmt.Sprintf("%s: %d cycles, %d accesses", r.Machine, r.TotalCycles, r.Accesses)
	for l := 1; ; l++ {
		ls, ok := r.Levels[l]
		if !ok {
			break
		}
		s += fmt.Sprintf(", L%d miss %.1f%%", l, 100*ls.MissRate())
	}
	return s
}

// coreEvent is one entry of the discrete-event min-heap: a core and its
// local clock. The heap is hand-rolled over a plain slice instead of
// container/heap because the latter's interface-based Push/Pop boxes every
// event onto the heap — one allocation per simulated access, which under a
// parallel experiment grid turns straight into GC pressure.
type coreEvent struct {
	core   int
	cycles uint64
}

// eventLess orders events by local clock, ties broken by core id, so the
// interleaving is fully deterministic.
func eventLess(a, b coreEvent) bool {
	if a.cycles != b.cycles {
		return a.cycles < b.cycles
	}
	return a.core < b.core
}

// eventPush appends e and sifts it up, returning the grown slice.
func eventPush(h []coreEvent, e coreEvent) []coreEvent {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// eventFix restores the heap property after the root was replaced in place —
// the fused pop+push for the hot "core re-arms with its next access" path,
// which saves the sift-up and the slice bookkeeping of a separate push.
// Because (cycles, core) pairs are unique (each core appears at most once),
// the heap's pop sequence is the strict total order of its contents and the
// fused form yields exactly the sequence pop-then-push would.
func eventFix(h []coreEvent) {
	n := len(h)
	i := 0
	for {
		small := i
		if l := 2*i + 1; l < n && eventLess(h[l], h[small]) {
			small = l
		}
		if r := 2*i + 2; r < n && eventLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// eventPop removes and returns the minimum event, returning the shrunk
// slice alongside it.
func eventPop(h []coreEvent) (coreEvent, []coreEvent) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	eventFix(h)
	return top, h
}

// Simulator runs programs against one machine instance. It is not safe for
// concurrent use; create one per goroutine.
type Simulator struct {
	machine *topology.Machine
	caches  map[*topology.Node]*cache
	// cacheNodes/cacheList pair cache nodes with their instances in tree
	// (BFS) order, so stats aggregation iterates deterministically without
	// map lookups.
	cacheNodes []*topology.Node
	cacheList  []*cache
	paths      [][]*cache // per core, L1 upward
	// memFreeAt is the cycle at which the shared off-chip channel next
	// becomes free — the bandwidth/queueing model. Concurrent misses from
	// different cores serialize on this channel (Machine.MemOccupancy
	// cycles each), which is what makes excess off-chip traffic hurt more
	// as core counts grow.
	memFreeAt uint64
	// Per-run scratch buffers, reused across Run calls so warm-cache
	// multi-pass experiments do not reallocate per pass.
	heapBuf  []coreEvent
	remBuf   []int
	curBuf   []trace.Cursor
	snapHits []uint64 //topovet:scratch
	snapMiss []uint64 //topovet:scratch
	snapWb   []uint64 //topovet:scratch
	// batchBuf/batchPos/batchLen hold each core's current cursor batch: the
	// event loop pulls batchSize accesses per cursor call (trace.Pull) and
	// walks the buffer, amortizing the per-access interface dispatch.
	batchBuf [][]trace.Access //topovet:scratch
	batchPos []int
	batchLen []int
	// victimBuf[i] is the eviction way probe chose at path level i of the
	// current access — carried from the probe walk to the fill walk so the
	// fill never re-scans the set. Sized to the deepest core path.
	victimBuf []int //topovet:scratch
	// cycBuf is runRoundFast's event table: cycBuf[c] is core c's local
	// clock while it has accesses left, else the done sentinel. See the
	// scan there.
	cycBuf []uint64 //topovet:scratch
	// Per-run self-checking state, installed by RunContext from Limits:
	// chk enables the runtime invariants, replace is the chaos hook.
	chk     bool
	replace func(level, set, victim, assoc int) int
}

// New builds a simulator with cold caches for the machine.
func New(m *topology.Machine) *Simulator {
	s := &Simulator{machine: m, caches: make(map[*topology.Node]*cache)}
	for _, n := range m.Nodes() {
		if n.Kind == topology.Cache {
			c := newCache(n)
			s.caches[n] = c
			s.cacheNodes = append(s.cacheNodes, n)
			s.cacheList = append(s.cacheList, c)
		}
	}
	s.paths = make([][]*cache, m.NumCores())
	for c := 0; c < m.NumCores(); c++ {
		// c ranges over the machine's own cores, so the path lookup cannot
		// be out of range.
		path, _ := m.PathToRoot(c)
		for _, n := range path {
			if n.Kind == topology.Cache {
				s.paths[c] = append(s.paths[c], s.caches[n])
			}
		}
	}
	s.snapHits = make([]uint64, len(s.cacheList))
	s.snapMiss = make([]uint64, len(s.cacheList))
	s.snapWb = make([]uint64, len(s.cacheList))
	maxDepth := 0
	for _, p := range s.paths {
		if len(p) > maxDepth {
			maxDepth = len(p)
		}
	}
	s.victimBuf = make([]int, maxDepth)
	return s
}

// Run simulates the program and returns aggregated statistics. The
// simulator's caches start cold on the first Run and stay warm across
// consecutive Runs (call New for a cold restart). A simulator from New
// keeps its arrays for its lifetime; only SimulateContext and SimulateOnce
// hand them back to the pools.
//
// The input is a trace.Source: the discrete-event loop pulls each core's
// next access from a per-core cursor, so a streamed program is simulated in
// O(cores) working memory. A materialized *trace.Program is a Source too
// and behaves identically.
func (s *Simulator) Run(prog trace.Source) (*Result, error) {
	return s.RunContext(context.Background(), prog, Limits{})
}

// RunContext is Run with cooperative cancellation and resource limits. The
// event loop checks the context at every round boundary and every
// cancelCheckEvents accesses within a round, so a cancelled grid stops
// within a fraction of one simulation round per worker. On cancellation or
// budget exhaustion it returns a nil Result and the error: a run either
// completes and reports full statistics or reports nothing, never a partial
// count dressed up as a result. An aborted run leaves the accesses it
// simulated in this simulator's caches, and a later Run on the same
// instance starts warm from them. Cold runs are unaffected: every
// simulator starts from fully reset caches, including one whose arrays
// were reused from an aborted run (SimulateContext).
func (s *Simulator) RunContext(ctx context.Context, prog trace.Source, lim Limits) (*Result, error) {
	ncores := prog.CoreCount()
	if ncores > s.machine.NumCores() {
		return nil, fmt.Errorf("cachesim: program uses %d cores, machine %s has %d",
			ncores, s.machine.Name, s.machine.NumCores())
	}
	res := &Result{
		Machine:            s.machine.Name,
		CyclesPerCore:      make([]uint64, s.machine.NumCores()),
		MemAccessesPerCore: make([]uint64, s.machine.NumCores()),
		AccessesPerCore:    make([]uint64, s.machine.NumCores()),
		Levels:             make(map[int]*LevelStats),
	}
	s.chk = lim.Check >= check.Invariants
	s.replace = lim.Replace
	// Snapshot per-cache counters so warm-cache reruns still report only
	// this program's stats.
	for i, c := range s.cacheList {
		s.snapHits[i] = c.hits
		s.snapMiss[i] = c.misses
		s.snapWb[i] = c.writebacks
	}
	s.growBatches(ncores)

	synchronized := prog.Sync()
	for r, rounds := 0, prog.RoundCount(); r < rounds; r++ {
		if err := ctx.Err(); err != nil {
			s.releaseCursors()
			return nil, err
		}
		// Discrete-event interleaving within the round. The heap, cursor,
		// remaining-count and batch buffers are simulator scratch, reused
		// across rounds; each core's accesses are pulled from its cursor in
		// batches of batchSize.
		h := s.heapBuf[:0]
		rem := s.remBuf[:0]
		curs := s.curBuf[:0]
		for c := 0; c < ncores; c++ {
			cur := prog.Cursor(r, c)
			curs = append(curs, cur)
			n := cur.Len()
			rem = append(rem, n)
			s.batchPos[c], s.batchLen[c] = 0, 0
			if n > 0 {
				h = eventPush(h, coreEvent{core: c, cycles: res.CyclesPerCore[c]})
			}
		}
		// The checked loop carries the per-access invariant machinery; the
		// fast loop is the same event loop with those checks hoisted out
		// entirely (Check == CheckOff never pays for them).
		var err error
		if s.chk {
			h, err = s.runRoundChecked(ctx, r, h, rem, curs, lim, res)
		} else {
			h, err = s.runRoundFast(ctx, r, h, rem, curs, lim, res)
		}
		s.heapBuf, s.remBuf, s.curBuf = h, rem, curs
		if err != nil {
			s.releaseCursors()
			return nil, err
		}
		// Barrier: align clocks. Unsynchronized programs have a single
		// round, so this only fires where the schedule demands it.
		if synchronized {
			alignBarrier(res)
		}
	}

	s.releaseCursors()
	return s.finishRun(res)
}

// runRoundChecked drives one round's discrete-event loop with the runtime
// invariants enabled: event-clock monotonicity, cursor Len() accounting,
// address-range validation and per-set verification (inside accessFrom). It
// returns the (possibly shrunk) heap slice so the caller can persist the
// scratch.
func (s *Simulator) runRoundChecked(ctx context.Context, r int, h []coreEvent, rem []int, curs []trace.Cursor, lim Limits, res *Result) ([]coreEvent, error) {
	// lastEv tracks the popped event order within the round: the
	// discrete-event heap must yield a monotone (cycles, core) sequence,
	// or the interleaving — and therefore the contention model — is
	// corrupt.
	lastEv := coreEvent{core: -1}
	popped := false
	sinceCheck := 0
	for len(h) > 0 {
		if sinceCheck++; sinceCheck >= cancelCheckEvents {
			sinceCheck = 0
			if err := ctx.Err(); err != nil {
				return h, err
			}
		}
		ev := h[0]
		c := ev.core
		if popped && eventLess(ev, lastEv) {
			return h, &check.InvariantError{Name: "event-clock", Core: c, Round: r, AccessIndex: int64(res.Accesses),
				Detail: fmt.Sprintf("event (cycle %d, core %d) popped after (cycle %d, core %d)", ev.cycles, ev.core, lastEv.cycles, lastEv.core)}
		}
		lastEv, popped = ev, true
		var a trace.Access
		ok := true
		if s.batchPos[c] == s.batchLen[c] {
			s.batchLen[c] = trace.Pull(curs[c], s.batchBuf[c])
			s.batchPos[c] = 0
		}
		if s.batchLen[c] > 0 {
			a = s.batchBuf[c][s.batchPos[c]]
			s.batchPos[c]++
		} else {
			ok = false
		}
		rem[c]--
		if !ok {
			return h, &check.InvariantError{Name: "cursor-short", Core: c, Round: r, AccessIndex: int64(res.Accesses),
				Detail: fmt.Sprintf("cursor drained with %d of %d accesses outstanding (hits+misses would undercount Len)", rem[c]+1, curs[c].Len())}
		}
		if a.Addr < 0 {
			return h, &check.InvariantError{Name: "negative-address", Core: c, Round: r, AccessIndex: int64(res.Accesses),
				Detail: fmt.Sprintf("cursor yielded address %#x (out-of-range group index or corrupted synthesis)", a.Addr)}
		}
		cost, memHit, cerr := s.accessFrom(c, a.Addr, a.Write, res.CyclesPerCore[c], res)
		if cerr != nil {
			cerr.Core, cerr.Round, cerr.AccessIndex = c, r, int64(res.Accesses)
			return h, cerr
		}
		res.Accesses++
		res.AccessesPerCore[c]++
		if memHit {
			res.MemAccesses++
			res.MemAccessesPerCore[c]++
		}
		res.CyclesPerCore[c] += uint64(cost)
		if lim.MaxCycles > 0 && res.CyclesPerCore[c] > lim.MaxCycles {
			return h, fmt.Errorf("%w: core %d reached %d cycles (budget %d)",
				ErrCycleBudget, c, res.CyclesPerCore[c], lim.MaxCycles)
		}
		if rem[c] > 0 {
			h[0] = coreEvent{core: c, cycles: res.CyclesPerCore[c]}
			eventFix(h)
		} else {
			_, h = eventPop(h)
			// The cursor promised exactly Len() accesses; anything left
			// beyond them — buffered in the current batch or still in the
			// cursor — means hits+misses would overcount Len (a duplicated
			// or shifted stream).
			more := s.batchPos[c] < s.batchLen[c]
			if !more {
				_, more = curs[c].Next()
			}
			if more {
				return h, &check.InvariantError{Name: "cursor-overrun", Core: c, Round: r, AccessIndex: int64(res.Accesses),
					Detail: fmt.Sprintf("cursor yields accesses beyond its Len() of %d", curs[c].Len())}
			}
		}
	}
	return h, nil
}

// runRoundFast is runRoundChecked with every invariant check hoisted out:
// the Check == CheckOff event loop pays only for the simulation itself plus
// the periodic cancellation poll and the cycle budget compare.
//
// It also drops the heap: the pending events live in a flat per-core clock
// table (cycBuf[c] = core c's local clock, or the all-ones done sentinel),
// and the next event is the table's strict-< argmin scanned in ascending
// core order — which makes the heap's lowest-core tie-break implicit, so
// the scan needs exactly one compare per core and no tuple comparison.
// The machines in scope have at most a few dozen cores, so that is a
// handful of branch-predictable compares over one or two hot cache lines,
// cheaper than the heap's data-dependent sift swaps. The pop order is the
// exact lexicographic (cycles, core) total order the heap yields (clocks
// are finite, so a live clock never equals the sentinel), and results are
// byte-identical to the checked loop's. h is only passed through as the
// shared scratch slice.
func (s *Simulator) runRoundFast(ctx context.Context, r int, h []coreEvent, rem []int, curs []trace.Cursor, lim Limits, res *Result) ([]coreEvent, error) {
	// With MaxCycles unset the budget compare is against an unreachable
	// sentinel, so the loop body carries exactly one compare either way.
	limMax := lim.MaxCycles
	if limMax == 0 {
		limMax = ^uint64(0)
	}
	const done = ^uint64(0)
	ncores := len(rem)
	for len(s.cycBuf) < ncores {
		s.cycBuf = append(s.cycBuf, done)
	}
	cyc := s.cycBuf[:ncores]
	active := 0
	for c := 0; c < ncores; c++ {
		cyc[c] = done
		if rem[c] > 0 {
			cyc[c] = res.CyclesPerCore[c]
			active++
		}
	}
	sinceCheck := 0
	for active > 0 {
		if sinceCheck++; sinceCheck >= cancelCheckEvents {
			sinceCheck = 0
			if err := ctx.Err(); err != nil {
				return h, err
			}
		}
		c := 0
		best := cyc[0]
		for i := 1; i < ncores; i++ {
			if cyc[i] < best {
				best = cyc[i]
				c = i
			}
		}
		if s.batchPos[c] == s.batchLen[c] {
			s.batchLen[c] = trace.Pull(curs[c], s.batchBuf[c])
			s.batchPos[c] = 0
		}
		var a trace.Access
		if bp := s.batchPos[c]; bp < s.batchLen[c] {
			a = s.batchBuf[c][bp]
			s.batchPos[c] = bp + 1
		}
		rem[c]--
		cost, memHit, _ := s.accessFrom(c, a.Addr, a.Write, res.CyclesPerCore[c], res)
		res.Accesses++
		res.AccessesPerCore[c]++
		if memHit {
			res.MemAccesses++
			res.MemAccessesPerCore[c]++
		}
		res.CyclesPerCore[c] += uint64(cost)
		if res.CyclesPerCore[c] > limMax {
			return h, fmt.Errorf("%w: core %d reached %d cycles (budget %d)",
				ErrCycleBudget, c, res.CyclesPerCore[c], lim.MaxCycles)
		}
		if rem[c] > 0 {
			cyc[c] = res.CyclesPerCore[c]
		} else {
			cyc[c] = done
			active--
		}
	}
	return h, nil
}

// alignBarrier charges one barrier and aligns every core's clock to the
// slowest core plus BarrierCost.
func alignBarrier(res *Result) {
	var maxC uint64
	for _, cy := range res.CyclesPerCore {
		if cy > maxC {
			maxC = cy
		}
	}
	maxC += BarrierCost
	res.Barriers++
	for c := range res.CyclesPerCore {
		res.CyclesPerCore[c] = maxC
	}
}

// growBatches sizes the per-core batch buffers for ncores cores.
func (s *Simulator) growBatches(ncores int) {
	for len(s.batchBuf) < ncores {
		s.batchBuf = append(s.batchBuf, make([]trace.Access, batchSize))
		s.batchPos = append(s.batchPos, 0)
		s.batchLen = append(s.batchLen, 0)
	}
}

// finishRun aggregates the per-cache counter deltas into the result's level
// and instance statistics, derives TotalCycles, and runs the end-of-run
// conservation check.
func (s *Simulator) finishRun(res *Result) (*Result, error) {
	res.PerCache = make([]CacheStats, 0, len(s.cacheList))
	for i, c := range s.cacheList {
		n := s.cacheNodes[i]
		ls, ok := res.Levels[c.node.Level]
		if !ok {
			ls = &LevelStats{Level: c.node.Level}
			res.Levels[c.node.Level] = ls
		}
		hits := c.hits - s.snapHits[i]
		misses := c.misses - s.snapMiss[i]
		ls.Hits += hits
		ls.Misses += misses
		ls.Accesses += hits + misses
		cs := CacheStats{Label: n.Label(), Level: n.Level, Hits: hits, Misses: misses, Writebacks: c.writebacks - s.snapWb[i]}
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
	if s.chk {
		if ierr := s.checkConservation(res); ierr != nil {
			return nil, ierr
		}
	}
	return res, nil
}

// accessFrom performs one access from core c at local time now: probe up
// the path, fill on the way back, return the cycle cost and whether memory
// was reached. Off-chip accesses queue on the shared channel; dirty lines
// evicted from the last on-chip level occupy the channel too (write-back
// traffic is asynchronous, so it costs bandwidth but not access latency).
// Under self-checking the set holding addr is verified at every touched
// level; the returned *check.InvariantError is nil in production runs.
func (s *Simulator) accessFrom(c int, addr int64, write bool, now uint64, res *Result) (cost int, memAccess bool, ierr *check.InvariantError) {
	path := s.paths[c]
	hitAt := -1
	for i, ch := range path {
		cost += ch.node.Latency
		hit, v := ch.probe(addr, write)
		if hit {
			hitAt = i
			break
		}
		s.victimBuf[i] = v
	}
	if hitAt == -1 {
		memAccess = true
		hitAt = len(path)
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
	// Inclusive fill below the hit level. Inner-level dirty victims write
	// back into the next level up (resident there under inclusion); only a
	// dirty eviction from the last on-chip cache goes off-chip, where it
	// occupies the shared channel like any other line transfer.
	for i := 0; i < hitAt && i < len(path); i++ {
		victimAddr, dirtyOut := path[i].fillWay(addr, write && i == 0, s.victimBuf[i], s.replace)
		if !dirtyOut {
			continue
		}
		if i+1 < len(path) {
			path[i+1].setDirty(victimAddr)
			continue
		}
		res.Writebacks++
		if occ := uint64(s.machine.MemOccupancy); occ > 0 {
			s.memFreeAt += occ
		}
	}
	if s.chk {
		// Every level up to and including the hit level was either refreshed
		// (the hit) or filled; the line must now be resident exactly once and
		// most recently used in each.
		for i := 0; i <= hitAt && i < len(path); i++ {
			if v := path[i].verify(addr); v != nil {
				return cost, memAccess, v
			}
		}
	}
	return cost, memAccess, nil
}

// releaseCursors drops cursor references so the scratch buffer does not pin
// the last round's trace data across warm-cache reruns.
func (s *Simulator) releaseCursors() {
	for i := range s.curBuf {
		s.curBuf[i] = nil
	}
}

// release hands every cache's arrays back to the pools (pool.go). The
// simulator must not run again.
func (s *Simulator) release() {
	for _, c := range s.cacheList {
		c.release()
	}
}

// SimulateOnce is the one-shot convenience: cold caches, single program.
// Like SimulateContext it returns the caches' arrays to the pools when the
// run ends.
func SimulateOnce(m *topology.Machine, prog trace.Source) (*Result, error) {
	s := New(m)
	defer s.release()
	return s.Run(prog)
}

// SimulateContext is SimulateOnce with cancellation and limits: cold
// caches, single program, abort on context cancellation or budget
// exhaustion (see RunContext). The caches' arrays go back to the pools on
// every path out, an error or a panic included, for the next cold run to
// reuse; the Result holds no reference to them.
func SimulateContext(ctx context.Context, m *topology.Machine, prog trace.Source, lim Limits) (*Result, error) {
	s := New(m)
	defer s.release()
	return s.RunContext(ctx, prog, lim)
}
