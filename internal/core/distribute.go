package core

import (
	"fmt"
	"sort"

	"repro/internal/affinity"
	"repro/internal/poly"
	"repro/internal/tags"
	"repro/internal/topology"
)

// Options tunes the Fig 6 algorithm.
type Options struct {
	// BalanceThreshold is the maximum tolerable imbalance in iteration
	// counts across clusters, as a fraction of the ideal cluster size.
	// The paper uses 10% (§4.2). Zero selects the default.
	BalanceThreshold float64
	// ConservativeDeps selects the first §3.5.2 extension: groups connected
	// by dependences are clustered atomically (the "infinite edge weight"
	// formulation), so no inter-core synchronization is needed. Requires
	// Deps to be set.
	ConservativeDeps bool
	// Deps is the group dependence graph; may be nil for fully parallel
	// loops.
	Deps *affinity.Digraph
	// SelfDep flags input groups that carry dependences *between their own
	// iterations* (deps.Analyze reports them); such groups may still be
	// split for load balance, but their pieces must preserve program order,
	// which LiftDeps enforces via the SplitPrec pairs.
	SelfDep []bool

	// Ablation switches (for the design-choice studies; keep zero for the
	// paper-faithful algorithm):

	// NoMergeCap disables the cluster-size cap during agglomerative
	// merging, reverting to unconstrained max-dot merging (which tends to
	// snowball one giant cluster at tree nodes with degree > 2).
	NoMergeCap bool
	// NoPolish disables the post-threshold balance polish, leaving the
	// full slack the balance threshold tolerates.
	NoPolish bool
}

// DefaultBalanceThreshold is the paper's experimental setting.
const DefaultBalanceThreshold = 0.10

func (o Options) threshold() float64 {
	if o.BalanceThreshold <= 0 {
		return DefaultBalanceThreshold
	}
	return o.BalanceThreshold
}

// Result is the outcome of distribution: the final iteration groups (splits
// performed by load balancing create new groups) and their core assignment.
type Result struct {
	// Groups are the final groups with dense IDs matching slice positions.
	Groups []*tags.Group
	// Origin maps each final group to the input group it derives from.
	Origin []int
	// PerCore lists, per core, the final group IDs assigned to it
	// (unscheduled; ordering is the Fig 7 scheduler's job).
	PerCore [][]int
	// SplitPrec records precedence pairs (a, b) between split siblings:
	// group a holds earlier iterations of the same original group than b,
	// so when the original group participates in dependences, a must not
	// run after b's dependents. The scheduler folds these into its graph.
	SplitPrec [][2]int
	// SelfDep (indexed by *original* group id) flags groups whose own
	// iterations depend on each other; copied from Options.SelfDep.
	SelfDep []bool
	// Machine is the topology the distribution targeted.
	Machine *topology.Machine
}

// CoreOf returns the core a final group was assigned to, or -1.
func (r *Result) CoreOf(group int) int {
	for c, gs := range r.PerCore {
		for _, g := range gs {
			if g == group {
				return c
			}
		}
	}
	return -1
}

// unit is the atom the balancer moves: normally one group; in conservative
// dependence mode a whole dependence-connected component (atomic: cannot be
// split or separated).
type unit struct {
	groups []int // final group ids
	tag    tags.Tag
	size   int
	atomic bool
}

// cluster is a set of units plus cached aggregate tag and size.
type cluster struct {
	units []*unit
	tag   tags.Tag
	size  int
	// repr is the smallest group id in the cluster; merge ties prefer
	// program-adjacent clusters (close reprs), which keeps regular kernels'
	// contiguity when tags give no signal.
	repr int
}

func newCluster(width int) *cluster { return &cluster{tag: tags.NewTag(width), repr: 1 << 30} }

func (c *cluster) add(u *unit) {
	c.units = append(c.units, u)
	c.tag.OrInPlace(u.tag)
	c.size += u.size
	for _, g := range u.groups {
		if g < c.repr {
			c.repr = g
		}
	}
}

// recompute rebuilds tag, size and repr after unit removal.
func (c *cluster) recompute(width int) {
	c.tag = tags.NewTag(width)
	c.size = 0
	c.repr = 1 << 30
	for _, u := range c.units {
		c.tag.OrInPlace(u.tag)
		c.size += u.size
		for _, g := range u.groups {
			if g < c.repr {
				c.repr = g
			}
		}
	}
}

func (c *cluster) removeUnit(i int) *unit {
	u := c.units[i]
	c.units = append(c.units[:i], c.units[i+1:]...)
	return u
}

// distributor carries the mutable state of one Distribute run.
type distributor struct {
	groups    []*tags.Group
	origin    []int
	splitPrec [][2]int
	width     int
	opt       Options
	// idealPerCore is the global fair share of iterations per core; the
	// balance limits of every tree level derive from it so imbalance does
	// not compound as the recursion descends (the threshold stays a bound
	// on the final *per-core* imbalance, which is what the paper's
	// BalanceThreshold — "maximum tolerable imbalance across the iteration
	// counts of different cores" — specifies).
	idealPerCore float64
}

// Distribute runs the Fig 6 algorithm: it descends the machine's cache
// hierarchy tree from the root, clustering and balancing at every level,
// and returns the per-core assignment of iteration groups.
func Distribute(tg *tags.Tagging, m *topology.Machine, opt Options) (*Result, error) {
	if len(tg.Groups) == 0 {
		return nil, fmt.Errorf("core: no iteration groups to distribute")
	}
	if opt.ConservativeDeps && opt.Deps == nil {
		return nil, fmt.Errorf("core: ConservativeDeps requires a dependence graph")
	}
	d, units := newDistributor(tg, m, opt)
	perCore := make([][]int, m.NumCores())
	if err := d.descend(m.Root, units, perCore); err != nil {
		return nil, err
	}
	return &Result{
		Groups:    d.groups,
		Origin:    d.origin,
		PerCore:   perCore,
		SplitPrec: d.splitPrec,
		SelfDep:   opt.SelfDep,
		Machine:   m,
	}, nil
}

// newDistributor copies the input groups (load balancing may split them)
// and builds the initial units the descent starts from.
func newDistributor(tg *tags.Tagging, m *topology.Machine, opt Options) (*distributor, []*unit) {
	d := &distributor{width: tg.NumBlocks, opt: opt}
	// Work on copies: load balancing may split groups.
	for i, g := range tg.Groups {
		cp := &tags.Group{ID: i, Tag: g.Tag.Clone(), Iters: append([]poly.Point(nil), g.Iters...)}
		d.groups = append(d.groups, cp)
		d.origin = append(d.origin, i)
	}

	// Build the initial units.
	var units []*unit
	if opt.ConservativeDeps {
		units = d.atomicUnits(opt.Deps)
	} else {
		for i, g := range d.groups {
			units = append(units, &unit{groups: []int{i}, tag: g.Tag.Clone(), size: g.Size()})
		}
	}

	total := 0
	for _, u := range units {
		total += u.size
	}
	d.idealPerCore = float64(total) / float64(m.NumCores())
	return d, units
}

// descend performs clustering and load balancing at node, then recurses
// into each child with its cluster.
func (d *distributor) descend(node *topology.Node, units []*unit, perCore [][]int) error {
	if node.IsLeaf() {
		for _, u := range units {
			perCore[node.CoreID] = append(perCore[node.CoreID], u.groups...)
		}
		return nil
	}
	clusters, err := d.level(node, units)
	if err != nil {
		return err
	}
	for i, child := range node.Children {
		// Inside the child subtree each unit moves alone again
		// ("NCS = NCS + {{θa} ∀θa ∈ c_ap}"), except atomic units which stay
		// fused all the way down to a single core.
		next := append([]*unit(nil), clusters[i].units...)
		if err := d.descend(child, next, perCore); err != nil {
			return err
		}
	}
	return nil
}

// level clusters units into one cluster per child of node and balances the
// clusters against the children's fair shares.
func (d *distributor) level(node *topology.Node, units []*unit) ([]*cluster, error) {
	k := node.Degree()
	clusters, err := d.clusterLevel(units, k)
	if err != nil {
		return nil, fmt.Errorf("core: at %s: %w", node.Label(), err)
	}
	// Each child's target is its global fair share: ideal-per-core times
	// the number of cores in its subtree.
	targets := make([]float64, k)
	for i, child := range node.Children {
		targets[i] = d.idealPerCore * float64(len(child.Cores()))
	}
	// Match bigger clusters to children with more cores (identity when the
	// tree is symmetric, which all paper machines are).
	matchClustersToTargets(clusters, targets)
	d.balance(clusters, targets)
	return clusters, nil
}

// matchClustersToTargets permutes clusters in place so cluster sizes align
// with target sizes (largest cluster to largest target). No-op for uniform
// targets.
func matchClustersToTargets(cs []*cluster, targets []float64) {
	uniform := true
	for i := 1; i < len(targets); i++ {
		if targets[i] != targets[0] {
			uniform = false
			break
		}
	}
	if uniform {
		return
	}
	csIdx := make([]int, len(cs))
	tgIdx := make([]int, len(targets))
	for i := range csIdx {
		csIdx[i], tgIdx[i] = i, i
	}
	sort.Slice(csIdx, func(a, b int) bool { return cs[csIdx[a]].size > cs[csIdx[b]].size })
	sort.Slice(tgIdx, func(a, b int) bool { return targets[tgIdx[a]] > targets[tgIdx[b]] })
	out := make([]*cluster, len(cs))
	for r := range csIdx {
		out[tgIdx[r]] = cs[csIdx[r]]
	}
	copy(cs, out)
}

// clusterLevel agglomeratively merges units into exactly k clusters:
// repeatedly merge the cluster pair with the maximum tag dot product; if
// there are fewer clusters than k, split the largest until counts match.
func (d *distributor) clusterLevel(units []*unit, k int) ([]*cluster, error) {
	if k <= 0 {
		return nil, fmt.Errorf("need positive child count, got %d", k)
	}
	var cs []*cluster
	for _, u := range units {
		c := newCluster(d.width)
		c.add(u)
		cs = append(cs, c)
	}
	cs = mergeToK(cs, k, d.width, d.opt.NoMergeCap)
	// Split phase: too few clusters for the child count (including the
	// degenerate case of a subtree that received nothing at all).
	for len(cs) < k {
		if len(cs) == 0 {
			cs = append(cs, newCluster(d.width))
			continue
		}
		// Split the largest cluster.
		li := 0
		for i := range cs {
			if cs[i].size > cs[li].size {
				li = i
			}
		}
		nc, err := d.splitCluster(cs[li])
		if err != nil {
			// Nothing left to split (e.g. fewer iterations than cores):
			// pad with empty clusters so every child receives a cluster.
			cs = append(cs, newCluster(d.width))
			continue
		}
		cs = append(cs, nc)
	}
	return cs, nil
}

// splitCluster breaks a cluster in two. Multi-unit clusters move half their
// units (by size) to the new cluster; single-unit clusters split the unit's
// group itself when allowed.
func (d *distributor) splitCluster(c *cluster) (*cluster, error) {
	if len(c.units) > 1 {
		// Move smallest units until the new cluster holds ~half the size.
		sort.Slice(c.units, func(i, j int) bool { return c.units[i].size > c.units[j].size })
		nc := newCluster(d.width)
		for len(c.units) > 1 && nc.size < c.size/2 {
			u := c.removeUnit(len(c.units) - 1)
			nc.add(u)
			c.size -= u.size
		}
		c.recompute(d.width)
		if len(nc.units) == 0 {
			return nil, fmt.Errorf("cluster split produced nothing")
		}
		return nc, nil
	}
	if len(c.units) == 1 {
		u := c.units[0]
		if u.atomic || len(u.groups) != 1 {
			return nil, fmt.Errorf("cannot split atomic unit")
		}
		g := d.groups[u.groups[0]]
		if g.Size() < 2 {
			return nil, fmt.Errorf("group too small to split")
		}
		a, b := d.splitGroup(u.groups[0], g.Size()/2)
		// Donor cluster keeps the first half.
		u.groups = []int{a}
		u.size = d.groups[a].Size()
		c.recompute(d.width)
		nc := newCluster(d.width)
		nc.add(&unit{groups: []int{b}, tag: d.groups[b].Tag.Clone(), size: d.groups[b].Size()})
		return nc, nil
	}
	return nil, fmt.Errorf("empty cluster")
}

// splitGroup splits final group id at 'want' iterations, reusing the id for
// the first part and appending the second; returns both ids and records the
// precedence pair.
func (d *distributor) splitGroup(id, want int) (int, int) {
	g := d.groups[id]
	a, b := tags.SplitGroup(g, want, id, len(d.groups))
	d.groups[id] = a
	d.groups = append(d.groups, b)
	d.origin = append(d.origin, d.origin[id])
	d.splitPrec = append(d.splitPrec, [2]int{id, b.ID})
	return a.ID, b.ID
}

// mergeToK agglomeratively merges clusters down to k, always fusing the
// pair with the maximum tag dot product. A lazy max-heap keeps the pair
// selection near O(n² log n) instead of the naive O(n³) rescan.
//
// Unconstrained max-dot merging snowballs: the first big cluster's OR tag
// overlaps everything and keeps winning merges, leaving one giant cluster
// plus crumbs — which the load balancer must then shred, breaking exactly
// the sharing the clustering found. A size cap (no merge may exceed ~1.25×
// the ideal cluster size) keeps the k clusters comparable while still
// maximizing sharing; capped-out pairs are retried only when nothing else
// remains.
func mergeToK(cs []*cluster, k, width int, noCap bool) []*cluster {
	if len(cs) <= k {
		return cs
	}
	total := 0
	for _, c := range cs {
		total += c.size
	}
	sizeCap := total // no cap when k == 1
	if k > 1 && !noCap {
		sizeCap = total*5/(4*k) + 1 // 1.25 × ideal
	}
	alive := make([]bool, len(cs))
	for i := range alive {
		alive[i] = true
	}
	// Every fuse but the last re-pushes the survivor against the others,
	// so the push count is known up front: the initial n(n-1)/2 pairs plus
	// (live-1) after each fuse that leaves live > k. Only re-pushes of
	// cap-deferred pairs can outgrow it.
	n := len(cs)
	h := &pairHeap{cs: cs, h: make([]mergePair, 0, n*(n-1)/2+(n-2)*(n-1)/2-(k-1)*k/2)}
	push := func(a, b int) {
		h.push(mergePair{dot: int32(cs[a].tag.Dot(cs[b].tag)), a: int32(a), b: int32(b)})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			push(i, j)
		}
	}
	live := n
	capped := true // whether the size cap is currently enforced
	var deferred []mergePair
	for live > k {
		var best mergePair
		found := false
		for len(h.h) > 0 {
			best = h.pop()
			if !alive[best.a] || !alive[best.b] {
				continue
			}
			if capped && cs[best.a].size+cs[best.b].size > sizeCap {
				deferred = append(deferred, best)
				continue
			}
			found = true
			break
		}
		if !found {
			if capped && len(deferred) > 0 {
				// Nothing fits under the cap; lift it and retry the
				// deferred pairs (still max-dot first via the heap).
				capped = false
				for _, p := range deferred {
					h.push(p)
				}
				deferred = nil
				continue
			}
			break
		}
		// Fuse b into a; b dies.
		a, b := cs[best.a], cs[best.b]
		for _, u := range b.units {
			a.add(u)
		}
		alive[best.b] = false
		live--
		if live <= k {
			break
		}
		// Refresh pairs involving the fused cluster, in slice order so
		// runs are deterministic.
		for i := range cs {
			if alive[i] && i != int(best.a) {
				push(int(best.a), i)
			}
		}
	}
	var out []*cluster
	for i, c := range cs {
		if alive[i] {
			out = append(out, c)
		}
	}
	return out
}

// mergePair is a candidate merge of clusters cs[a] and cs[b] with their tag
// dot product at push time. It holds no pointers, so the heap is one flat
// allocation the garbage collector never scans.
type mergePair struct {
	dot  int32
	a, b int32
}

// pairHeap is a max-heap of merge candidates by dot product; ties prefer
// smaller combined size, then program-adjacent clusters (smallest
// representative-ID distance) — both deterministic. The tie keys are read
// from the clusters at comparison time, so they can change while a pair
// sits in the heap; up and down therefore copy container/heap's sift
// order exactly, which keeps the pop sequence (and so every figure) the
// one a container/heap-based merge produces.
type pairHeap struct {
	cs []*cluster
	h  []mergePair
}

func (h *pairHeap) less(i, j int) bool {
	pi, pj := h.h[i], h.h[j]
	if pi.dot != pj.dot {
		return pi.dot > pj.dot
	}
	ai, bi, aj, bj := h.cs[pi.a], h.cs[pi.b], h.cs[pj.a], h.cs[pj.b]
	si := ai.size + bi.size
	sj := aj.size + bj.size
	if si != sj {
		return si < sj
	}
	// Final tie: program adjacency (smallest representative-ID distance).
	di := ai.repr - bi.repr
	if di < 0 {
		di = -di
	}
	dj := aj.repr - bj.repr
	if dj < 0 {
		dj = -dj
	}
	return di < dj
}

func (h *pairHeap) push(p mergePair) {
	h.h = append(h.h, p)
	h.up(len(h.h) - 1)
}

func (h *pairHeap) pop() mergePair {
	n := len(h.h) - 1
	h.h[0], h.h[n] = h.h[n], h.h[0]
	h.down(0, n)
	p := h.h[n]
	h.h = h.h[:n]
	return p
}

// up is container/heap's up.
func (h *pairHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h.h[i], h.h[j] = h.h[j], h.h[i]
		j = i
	}
}

// down is container/heap's down, without its unused return value.
func (h *pairHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // = 2*i + 2  // right child
		}
		if !h.less(j, i) {
			break
		}
		h.h[i], h.h[j] = h.h[j], h.h[i]
		i = j
	}
}

// balance implements Fig 6's greedy load-balancing step, with limits
// derived from each cluster's target (global fair share): while some
// cluster exceeds its upper limit, evict the best-matching unit (maximum
// tag dot product with the recipient) from it to a cluster below its lower
// limit, splitting a group when no whole unit fits the limits.
func (d *distributor) balance(cs []*cluster, targets []float64) {
	if len(cs) < 2 {
		return
	}
	t := d.opt.threshold()
	up := make([]int, len(cs))
	low := make([]int, len(cs))
	total := 0
	for i := range cs {
		up[i] = int(targets[i] + t*targets[i])
		low[i] = int(targets[i] - t*targets[i])
		if low[i] < 0 {
			low[i] = 0
		}
		total += cs[i].size
	}

	guard := 4 * (total + len(cs)) // generous progress bound
	for iter := 0; iter < guard; iter++ {
		// Rebalance while any cluster is over its upper limit *or* under
		// its lower limit (both violate the per-core imbalance bound).
		overUp, underLow := -1, -1
		for i, c := range cs {
			if c.size > up[i] && (overUp < 0 || c.size-up[i] > cs[overUp].size-up[overUp]) {
				overUp = i
			}
			if c.size < low[i] && (underLow < 0 || c.size-low[i] < cs[underLow].size-low[underLow]) {
				underLow = i
			}
		}
		if overUp < 0 && underLow < 0 {
			break // all within limits; polish below
		}
		// Donor: the over-limit cluster, or else the most over-target one.
		donor := overUp
		if donor < 0 {
			for i, c := range cs {
				if i == underLow {
					continue
				}
				if donor < 0 || float64(c.size)-targets[i] > float64(cs[donor].size)-targets[donor] {
					donor = i
				}
			}
		}
		// Recipient: the starving cluster, or else the most under-target one.
		recipient := underLow
		if recipient < 0 || recipient == donor {
			recipient = -1
			for i, c := range cs {
				if i == donor {
					continue
				}
				if recipient < 0 || float64(c.size)-targets[i] < float64(cs[recipient].size)-targets[recipient] {
					recipient = i
				}
			}
		}
		if donor < 0 || recipient < 0 || donor == recipient {
			break
		}
		if !d.evict(cs[donor], cs[recipient], low[donor], up[recipient]) {
			break // no progress possible
		}
	}
	if !d.opt.NoPolish {
		d.polish(cs, targets, guard)
	}
}

// polish runs after the threshold phase: whole-unit moves (never splits,
// so it cannot fragment groups) from the most over-target cluster to the
// most under-target one, as long as each move strictly reduces the pair's
// peak deviation. The threshold bounds the slack the algorithm *tolerates*;
// polish removes the part of that slack that costs nothing to remove,
// which matters because the makespan of a parallel loop tracks the largest
// per-core load directly.
func (d *distributor) polish(cs []*cluster, targets []float64, guard int) {
	for iter := 0; iter < guard; iter++ {
		donor, recipient := -1, -1
		for i, c := range cs {
			dev := float64(c.size) - targets[i]
			if donor < 0 || dev > float64(cs[donor].size)-targets[donor] {
				donor = i
			}
			if recipient < 0 || dev < float64(cs[recipient].size)-targets[recipient] {
				recipient = i
			}
		}
		if donor < 0 || recipient < 0 || donor == recipient {
			return
		}
		excess := float64(cs[donor].size) - targets[donor]
		deficit := targets[recipient] - float64(cs[recipient].size)
		if excess <= 0 || deficit <= 0 {
			return
		}
		peak := excess
		if deficit > peak {
			peak = deficit
		}
		bestIdx, bestDot := -1, -1
		for i, u := range cs[donor].units {
			nd := absf(excess - float64(u.size))
			nr := absf(float64(u.size) - deficit)
			if nd >= peak || nr >= peak {
				continue
			}
			dot := u.tag.Dot(cs[recipient].tag)
			if dot > bestDot {
				bestIdx, bestDot = i, dot
			}
		}
		if bestIdx >= 0 {
			u := cs[donor].removeUnit(bestIdx)
			cs[donor].recompute(d.width)
			cs[recipient].add(u)
			continue
		}
		// No whole unit improves the pair. When the residual imbalance is
		// still above 0.2% of the target, split once to shave it off — the
		// makespan of the parallel loop tracks the largest per-core load
		// directly, so this final precision is worth one extra group.
		tol := 0.002 * targets[donor]
		if tol < 1 {
			tol = 1
		}
		if excess <= tol && deficit <= tol {
			return
		}
		give := int(excess)
		if int(deficit) < give {
			give = int(deficit)
		}
		if give < 1 {
			return
		}
		splitIdx, splitDot := -1, -1
		for i, u := range cs[donor].units {
			if u.atomic || len(u.groups) != 1 || d.groups[u.groups[0]].Size() <= give {
				continue
			}
			dot := u.tag.Dot(cs[recipient].tag)
			if dot > splitDot {
				splitIdx, splitDot = i, dot
			}
		}
		if splitIdx < 0 {
			return
		}
		u := cs[donor].units[splitIdx]
		g := d.groups[u.groups[0]]
		a, b := d.splitGroup(u.groups[0], g.Size()-give)
		u.groups = []int{a}
		u.size = d.groups[a].Size()
		cs[donor].recompute(d.width)
		cs[recipient].add(&unit{groups: []int{b}, tag: d.groups[b].Tag.Clone(), size: d.groups[b].Size()})
	}
}

// absf returns |x|.
func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// evict moves one unit (or a split piece of one) from donor to recipient,
// preferring the whole unit with maximum tag affinity to the recipient that
// keeps the donor above donorLow and the recipient below recipUp. Returns
// false when no move is possible.
func (d *distributor) evict(donor, recipient *cluster, donorLow, recipUp int) bool {
	bestIdx, bestDot := -1, -1
	for i, u := range donor.units {
		if donor.size-u.size < donorLow || recipient.size+u.size > recipUp {
			continue
		}
		dot := u.tag.Dot(recipient.tag)
		if dot > bestDot {
			bestIdx, bestDot = i, dot
		}
	}
	if bestIdx >= 0 {
		u := donor.removeUnit(bestIdx)
		donor.recompute(d.width)
		recipient.add(u)
		return true
	}
	// No whole unit fits: split one (Fig 6's "if no such node exists,
	// split θ_a ... and evict as described above").
	give := donor.size - donorLow
	if room := recipUp - recipient.size; room < give {
		give = room
	}
	// Aim for the midpoint of what the donor can shed and what the
	// recipient can take, but move at least one iteration.
	if give <= 0 {
		give = 1
	}
	// Choose the splittable unit with max affinity to the recipient.
	bestIdx, bestDot = -1, -1
	for i, u := range donor.units {
		if u.atomic || len(u.groups) != 1 || d.groups[u.groups[0]].Size() <= 1 {
			continue
		}
		dot := u.tag.Dot(recipient.tag)
		if dot > bestDot {
			bestIdx, bestDot = i, dot
		}
	}
	if bestIdx < 0 {
		return false
	}
	u := donor.units[bestIdx]
	g := d.groups[u.groups[0]]
	if give >= g.Size() {
		give = g.Size() - 1
	}
	keep := g.Size() - give
	a, b := d.splitGroup(u.groups[0], keep)
	u.groups = []int{a}
	u.size = d.groups[a].Size()
	donor.recompute(d.width)
	recipient.add(&unit{groups: []int{b}, tag: d.groups[b].Tag.Clone(), size: d.groups[b].Size()})
	return true
}

// atomicUnits unions dependence-connected groups into atomic units — the
// conservative §3.5.2 mode.
func (d *distributor) atomicUnits(dg *affinity.Digraph) []*unit {
	parent := make([]int, len(d.groups))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for u := 0; u < dg.N(); u++ {
		for _, v := range dg.Succ(u) {
			union(u, v)
		}
	}
	byRoot := make(map[int]*unit)
	var units []*unit
	for i, g := range d.groups {
		r := find(i)
		u, ok := byRoot[r]
		if !ok {
			u = &unit{tag: tags.NewTag(d.width)}
			byRoot[r] = u
			units = append(units, u)
		}
		u.groups = append(u.groups, i)
		u.tag.OrInPlace(g.Tag)
		u.size += g.Size()
	}
	for _, u := range units {
		u.atomic = len(u.groups) > 1
	}
	return units
}
