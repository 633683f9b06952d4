package topology

import (
	"strings"
	"testing"
)

func TestAllMachinesValid(t *testing.T) {
	for _, m := range All() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestCoreCounts(t *testing.T) {
	cases := []struct {
		m    *Machine
		want int
	}{
		{Harpertown(), 8},
		{Nehalem(), 8},
		{Dunnington(), 12},
		{ArchI(), 16},
		{ArchII(), 32},
	}
	for _, c := range cases {
		if got := c.m.NumCores(); got != c.want {
			t.Errorf("%s: %d cores, want %d", c.m.Name, got, c.want)
		}
	}
}

func TestTable1Parameters(t *testing.T) {
	h := Harpertown()
	if h.MaxLevel() != 2 {
		t.Errorf("Harpertown max level = %d, want 2 (L1+L2 only)", h.MaxLevel())
	}
	l2s := h.CachesAtLevel(2)
	if len(l2s) != 4 {
		t.Fatalf("Harpertown has %d L2s, want 4", len(l2s))
	}
	if l2s[0].SizeBytes != 6<<20 || l2s[0].Assoc != 24 || l2s[0].Latency != 15 {
		t.Errorf("Harpertown L2 = %d bytes %d-way %dcyc", l2s[0].SizeBytes, l2s[0].Assoc, l2s[0].Latency)
	}

	n := Nehalem()
	if n.MaxLevel() != 3 {
		t.Errorf("Nehalem max level = %d, want 3", n.MaxLevel())
	}
	if l2s := n.CachesAtLevel(2); len(l2s) != 8 || l2s[0].SizeBytes != 256<<10 {
		t.Errorf("Nehalem L2s: %d of %d bytes (want 8 private 256KB)", len(l2s), l2s[0].SizeBytes)
	}

	d := Dunnington()
	if l2s := d.CachesAtLevel(2); len(l2s) != 6 || l2s[0].SizeBytes != 3<<20 {
		t.Errorf("Dunnington L2s: %d (want 6 shared 3MB)", len(l2s))
	}
	if l3s := d.CachesAtLevel(3); len(l3s) != 2 || l3s[0].SizeBytes != 12<<20 {
		t.Errorf("Dunnington L3s wrong")
	}
}

func TestSharedLevelDunnington(t *testing.T) {
	d := Dunnington()
	// Figure 1(c): cores 0 and 1 share the first L2.
	if lvl := d.SharedLevel(0, 1); lvl != 2 {
		t.Errorf("cores 0,1 share level %d, want 2", lvl)
	}
	// Cores 0 and 2 only share the socket L3.
	if lvl := d.SharedLevel(0, 2); lvl != 3 {
		t.Errorf("cores 0,2 share level %d, want 3", lvl)
	}
	// Cores 0 and 6 are in different sockets: no shared cache.
	if lvl := d.SharedLevel(0, 6); lvl != 0 {
		t.Errorf("cores 0,6 share level %d, want 0", lvl)
	}
	if lvl := d.SharedLevel(4, 4); lvl != 1 {
		t.Errorf("core with itself shares level %d, want 1", lvl)
	}
}

func TestSharedLevelHarpertown(t *testing.T) {
	h := Harpertown()
	if lvl := h.SharedLevel(0, 1); lvl != 2 {
		t.Errorf("Harpertown cores 0,1 share level %d, want 2", lvl)
	}
	if lvl := h.SharedLevel(0, 2); lvl != 0 {
		t.Errorf("Harpertown cores 0,2 share level %d, want 0 (memory only)", lvl)
	}
}

func TestFirstSharedCaches(t *testing.T) {
	d := Dunnington()
	shared := d.FirstSharedCaches()
	if len(shared) != 6 {
		t.Fatalf("Dunnington first shared caches = %d, want 6 L2 pairs", len(shared))
	}
	for _, s := range shared {
		if s.Level != 2 || len(s.Cores()) != 2 {
			t.Errorf("shared cache %s level %d with %d cores", s.Label(), s.Level, len(s.Cores()))
		}
	}
	// Nehalem's L2s are private, so the first shared level is L3.
	n := Nehalem()
	shared = n.FirstSharedCaches()
	if len(shared) != 2 {
		t.Fatalf("Nehalem first shared caches = %d, want 2 L3s", len(shared))
	}
	if shared[0].Level != 3 {
		t.Errorf("Nehalem first shared level = %d, want 3", shared[0].Level)
	}
}

func TestPathToRoot(t *testing.T) {
	d := Dunnington()
	path, err := d.PathToRoot(0)
	if err != nil {
		t.Fatal(err)
	}
	// L1 -> L2 -> L3 -> MEM.
	if len(path) != 4 {
		t.Fatalf("path length %d, want 4", len(path))
	}
	if path[0].Level != 1 || path[1].Level != 2 || path[2].Level != 3 || path[3].Kind != Memory {
		t.Fatalf("path levels wrong: %v %v %v %v", path[0].Label(), path[1].Label(), path[2].Label(), path[3].Label())
	}
	// Out-of-range cores are errors, not panics.
	for _, core := range []int{-1, d.NumCores(), d.NumCores() + 5} {
		if _, err := d.PathToRoot(core); err == nil {
			t.Errorf("PathToRoot(%d) = nil error, want out-of-range error", core)
		}
	}
	if lvl := d.SharedLevel(-1, 0); lvl != 0 {
		t.Errorf("SharedLevel(-1, 0) = %d, want 0", lvl)
	}
	if lca := d.LCA(0, d.NumCores()); lca != nil {
		t.Errorf("LCA with out-of-range core = %v, want nil", lca)
	}
}

func TestScaleDunnington(t *testing.T) {
	for _, n := range []int{8, 12, 18, 24} {
		m, err := ScaleDunnington(n)
		if err != nil {
			t.Fatalf("ScaleDunnington(%d): %v", n, err)
		}
		if m.NumCores() != n {
			t.Errorf("ScaleDunnington(%d) has %d cores", n, m.NumCores())
		}
		if err := m.Validate(); err != nil {
			t.Errorf("ScaleDunnington(%d): %v", n, err)
		}
	}
	if _, err := ScaleDunnington(7); err == nil {
		t.Error("ScaleDunnington(7) should fail")
	}
}

func TestHalveCapacities(t *testing.T) {
	d := Dunnington()
	h := HalveCapacities(d)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.NumCores() != d.NumCores() {
		t.Fatal("halving changed core count")
	}
	if got := h.CachesAtLevel(2)[0].SizeBytes; got != (3<<20)/2 {
		t.Errorf("halved L2 = %d", got)
	}
	// Original untouched.
	if d.CachesAtLevel(2)[0].SizeBytes != 3<<20 {
		t.Error("HalveCapacities mutated the original")
	}
}

func TestTruncate(t *testing.T) {
	a := ArchI()
	for maxLevel := 2; maxLevel <= 4; maxLevel++ {
		tr := Truncate(a, maxLevel)
		if tr.NumCores() != a.NumCores() {
			t.Fatalf("Truncate(%d) changed core count to %d", maxLevel, tr.NumCores())
		}
		if got := tr.MaxLevel(); got != maxLevel {
			t.Errorf("Truncate(%d) max level = %d", maxLevel, got)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("Truncate(%d): %v", maxLevel, err)
		}
	}
	// Truncating away L3+L4 leaves the memory root directly over 8 L2s.
	tr := Truncate(a, 2)
	if got := len(tr.Root.Children); got != 8 {
		t.Errorf("Truncate(2) root degree = %d, want 8", got)
	}
}

func TestClone(t *testing.T) {
	d := Dunnington()
	c := Clone(d)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.CachesAtLevel(2)[0].SizeBytes = 1
	if d.CachesAtLevel(2)[0].SizeBytes == 1 {
		t.Fatal("Clone shares nodes with the original")
	}
	if c.MemOccupancy != d.MemOccupancy {
		t.Fatal("Clone dropped MemOccupancy")
	}
}

// TestValidateLatencies: a negative cache latency, memory latency or
// memory occupancy is rejected (the simulator would wrap it into a huge
// unsigned cycle count); zero stays legal.
func TestValidateLatencies(t *testing.T) {
	cases := []struct {
		name string
		edit func(m *Machine)
		want string
	}{
		{"negative L2 latency", func(m *Machine) { m.CachesAtLevel(2)[0].Latency = -10 }, "negative latency -10"},
		{"negative L1 latency", func(m *Machine) { m.CachesAtLevel(1)[3].Latency = -1 }, "negative latency -1"},
		{"negative memory latency", func(m *Machine) { m.MemLatency = -500 }, "negative memory latency -500"},
		{"negative memory occupancy", func(m *Machine) { m.MemOccupancy = -1 }, "negative memory occupancy -1"},
	}
	for _, c := range cases {
		m := Clone(Harpertown())
		c.edit(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.want)
		}
	}
	zero := Clone(Harpertown())
	zero.MemLatency, zero.MemOccupancy = 0, 0
	for _, n := range zero.Nodes() {
		n.Latency = 0
	}
	if err := zero.Validate(); err != nil {
		t.Errorf("zero latencies rejected: %v", err)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"harpertown", "nehalem", "dunnington", "arch-i", "arch-ii"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("pentium"); err == nil {
		t.Error("ByName(pentium) should fail")
	}
}

func TestLCA(t *testing.T) {
	d := Dunnington()
	lca := d.LCA(0, 1)
	if lca == nil || lca.Kind != Cache || lca.Level != 2 {
		t.Fatalf("LCA(0,1) = %v", lca)
	}
	lca = d.LCA(0, 11)
	if lca == nil || lca.Kind != Memory {
		t.Fatalf("LCA(0,11) = %v, want memory", lca)
	}
}

func TestMachineString(t *testing.T) {
	s := Dunnington().String()
	for _, want := range []string{"Dunnington", "12 cores", "L3", "3MB", "core0", "core11"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestCoreIDsLeftToRight(t *testing.T) {
	for _, m := range All() {
		cores := m.Cores()
		for i, c := range cores {
			if c.CoreID != i {
				t.Fatalf("%s: core at position %d has id %d", m.Name, i, c.CoreID)
			}
		}
	}
}
