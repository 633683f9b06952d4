package topology

import (
	"fmt"
	"strings"
)

// NodeKind distinguishes the tree's node types.
type NodeKind int

const (
	// Memory is the off-chip root used when the machine has multiple
	// last-level caches.
	Memory NodeKind = iota
	// Cache is an on-chip cache (L1..Ln).
	Cache
	// Core is a leaf processor core.
	Core
)

// String names the node kind.
func (k NodeKind) String() string {
	switch k {
	case Memory:
		return "memory"
	case Cache:
		return "cache"
	case Core:
		return "core"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is one vertex of the cache hierarchy tree.
type Node struct {
	ID   int // unique within the machine, assigned by finalize
	Kind NodeKind

	// Cache parameters; meaningful when Kind == Cache (and for Memory,
	// only Latency is used).
	Level     int   // 1 for L1, 2 for L2, ...
	SizeBytes int64 // capacity
	Assoc     int   // set associativity
	LineBytes int64 // cache line size
	Latency   int   // access latency in cycles

	// CoreID is the core number for Kind == Core, -1 otherwise.
	CoreID int

	Parent   *Node
	Children []*Node
}

// IsLeaf reports whether the node is a core.
func (n *Node) IsLeaf() bool { return n.Kind == Core }

// Degree returns the number of children.
func (n *Node) Degree() int { return len(n.Children) }

// Cores returns the core leaves under n, left to right.
func (n *Node) Cores() []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(m *Node) {
		if m.Kind == Core {
			out = append(out, m)
			return
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return out
}

// Label renders a short human-readable node label.
func (n *Node) Label() string {
	switch n.Kind {
	case Memory:
		return "MEM"
	case Core:
		return fmt.Sprintf("core%d", n.CoreID)
	default:
		return fmt.Sprintf("L%d#%d", n.Level, n.ID)
	}
}

// Machine is a complete multicore description: the hierarchy tree plus the
// global parameters of Table 1.
type Machine struct {
	Name     string
	Root     *Node
	ClockGHz float64
	// MemLatency is the off-chip access latency in cycles.
	MemLatency int
	// MemOccupancy is the number of cycles the shared off-chip channel is
	// busy per line transfer — the bandwidth model. These machines are
	// front-side-bus era parts (Harpertown and Dunnington share one FSB),
	// so one global channel serves every socket; concurrent misses queue.
	// Zero disables contention.
	MemOccupancy int

	nodes []*Node // all nodes in BFS order
	cores []*Node // leaves in core-id order
}

// finalize assigns IDs, parent pointers and core numbering; every
// constructor must call it.
func (m *Machine) finalize() *Machine {
	m.nodes = m.nodes[:0]
	m.cores = m.cores[:0]
	id := 0
	coreID := 0
	queue := []*Node{m.Root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		n.ID = id
		id++
		m.nodes = append(m.nodes, n)
		if n.Kind == Core {
			n.CoreID = coreID
			coreID++
			m.cores = append(m.cores, n)
			continue
		}
		for _, c := range n.Children {
			c.Parent = n
			queue = append(queue, c)
		}
	}
	// BFS numbers cores by depth; renumber left-to-right by DFS instead so
	// "adjacent core IDs share the lowest cache" holds for asymmetric trees.
	m.cores = m.Root.Cores()
	for i, c := range m.cores {
		c.CoreID = i
	}
	return m
}

// NumCores returns the number of cores.
func (m *Machine) NumCores() int { return len(m.cores) }

// Cores returns the core leaves in core-id order.
func (m *Machine) Cores() []*Node { return m.cores }

// Nodes returns every node of the tree.
func (m *Machine) Nodes() []*Node { return m.nodes }

// CachesAtLevel returns the cache nodes with the given level number, left to
// right.
func (m *Machine) CachesAtLevel(level int) []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(n *Node) {
		if n.Kind == Cache && n.Level == level {
			out = append(out, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(m.Root)
	return out
}

// MaxLevel returns the deepest (largest-numbered) cache level present.
func (m *Machine) MaxLevel() int {
	maxL := 0
	for _, n := range m.nodes {
		if n.Kind == Cache && n.Level > maxL {
			maxL = n.Level
		}
	}
	return maxL
}

// PathToRoot returns the chain of caches from the core's L1 up to the root,
// the lookup path the simulator walks on a miss. Out-of-range cores are an
// error rather than a panic, so callers driving the API with untrusted
// machine descriptions get a diagnosable failure.
func (m *Machine) PathToRoot(core int) ([]*Node, error) {
	if core < 0 || core >= len(m.cores) {
		return nil, fmt.Errorf("topology: core %d out of range [0,%d)", core, len(m.cores))
	}
	var path []*Node
	for n := m.cores[core].Parent; n != nil; n = n.Parent {
		path = append(path, n)
	}
	return path, nil
}

// SharedLevel returns the smallest cache level at which cores a and b have
// affinity (§2: two cores have affinity at cache L if both access L), or 0
// when they share no on-chip cache (affinity only at memory) or either core
// is out of range.
func (m *Machine) SharedLevel(a, b int) int {
	if a < 0 || b < 0 || a >= len(m.cores) || b >= len(m.cores) {
		return 0
	}
	if a == b {
		return 1
	}
	lca := m.LCA(a, b)
	if lca == nil || lca.Kind != Cache {
		return 0
	}
	return lca.Level
}

// LCA returns the lowest common ancestor node of two cores, or nil when
// either core is out of range.
func (m *Machine) LCA(a, b int) *Node {
	if a < 0 || b < 0 || a >= len(m.cores) || b >= len(m.cores) {
		return nil
	}
	seen := make(map[*Node]bool)
	for n := m.cores[a].Parent; n != nil; n = n.Parent {
		seen[n] = true
	}
	for n := m.cores[b].Parent; n != nil; n = n.Parent {
		if seen[n] {
			return n
		}
	}
	return nil
}

// FirstSharedCaches returns the lowest-level caches that are shared by more
// than one core, grouped with the cores under each. This is the "first
// shared cache level" the local scheduling algorithm of Fig 7 iterates over.
func (m *Machine) FirstSharedCaches() []*Node {
	// Walk down from the root; a node qualifies when it is a cache shared by
	// >1 core and none of its descendants is a multi-core cache... actually
	// the *first* (closest to the cores) shared level is wanted: find, for
	// each core, the nearest ancestor with >1 core, then dedup.
	seen := make(map[*Node]bool)
	var out []*Node
	for _, c := range m.cores {
		n := c.Parent
		for n != nil && len(n.Cores()) < 2 {
			n = n.Parent
		}
		if n != nil && n.Kind == Cache && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// Validate checks structural invariants and returns the first violation.
func (m *Machine) Validate() error {
	if m.Root == nil {
		return fmt.Errorf("topology: %s has nil root", m.Name)
	}
	if m.NumCores() == 0 {
		return fmt.Errorf("topology: %s has no cores", m.Name)
	}
	// Latencies are added into unsigned cycle counters: a negative one
	// wraps into a huge number that would be reported as a result.
	if m.MemLatency < 0 {
		return fmt.Errorf("topology: %s: negative memory latency %d", m.Name, m.MemLatency)
	}
	if m.MemOccupancy < 0 {
		return fmt.Errorf("topology: %s: negative memory occupancy %d", m.Name, m.MemOccupancy)
	}
	for _, n := range m.nodes {
		switch n.Kind {
		case Core:
			if len(n.Children) != 0 {
				return fmt.Errorf("topology: %s: core %d has children", m.Name, n.CoreID)
			}
		case Cache:
			if n.SizeBytes <= 0 || n.Assoc <= 0 || n.LineBytes <= 0 {
				return fmt.Errorf("topology: %s: cache %s has invalid parameters", m.Name, n.Label())
			}
			if n.Latency < 0 {
				return fmt.Errorf("topology: %s: cache %s has negative latency %d", m.Name, n.Label(), n.Latency)
			}
			if n.SizeBytes%(int64(n.Assoc)*n.LineBytes) != 0 {
				return fmt.Errorf("topology: %s: cache %s size %d not divisible by assoc*line", m.Name, n.Label(), n.SizeBytes)
			}
			if len(n.Children) == 0 {
				return fmt.Errorf("topology: %s: cache %s has no children", m.Name, n.Label())
			}
		case Memory:
			if n != m.Root {
				return fmt.Errorf("topology: %s: interior memory node", m.Name)
			}
		}
		for _, c := range n.Children {
			if c.Parent != n {
				return fmt.Errorf("topology: %s: broken parent link at %s", m.Name, c.Label())
			}
			if c.Kind == Cache && n.Kind == Cache && c.Level >= n.Level {
				return fmt.Errorf("topology: %s: child cache L%d under L%d", m.Name, c.Level, n.Level)
			}
		}
	}
	return nil
}

// String draws the tree, one node per line.
func (m *Machine) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d cores, %.1f GHz, mem %d cycles)\n", m.Name, m.NumCores(), m.ClockGHz, m.MemLatency)
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		indent := strings.Repeat("  ", depth)
		switch n.Kind {
		case Cache:
			fmt.Fprintf(&b, "%s%s %s %d-way %dB-line %dcyc\n", indent, n.Label(), fmtBytes(n.SizeBytes), n.Assoc, n.LineBytes, n.Latency)
		default:
			fmt.Fprintf(&b, "%s%s\n", indent, n.Label())
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(m.Root, 0)
	return b.String()
}

// fmtBytes renders a byte count as KB/MB when exact.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
