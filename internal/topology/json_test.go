package topology

import (
	"strings"
	"testing"
)

func TestMachineJSONRoundTrip(t *testing.T) {
	for _, m := range All() {
		data, err := MarshalMachine(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		back, err := UnmarshalMachine(data)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if back.Name != m.Name || back.NumCores() != m.NumCores() ||
			back.MemLatency != m.MemLatency || back.MemOccupancy != m.MemOccupancy ||
			back.ClockGHz != m.ClockGHz {
			t.Fatalf("%s: round trip changed header", m.Name)
		}
		if back.MaxLevel() != m.MaxLevel() {
			t.Fatalf("%s: round trip changed depth", m.Name)
		}
		// Structural spot check: per-level cache counts and parameters.
		for l := 1; l <= m.MaxLevel(); l++ {
			a, b := m.CachesAtLevel(l), back.CachesAtLevel(l)
			if len(a) != len(b) {
				t.Fatalf("%s L%d: %d vs %d caches", m.Name, l, len(a), len(b))
			}
			if a[0].SizeBytes != b[0].SizeBytes || a[0].Assoc != b[0].Assoc || a[0].Latency != b[0].Latency {
				t.Fatalf("%s L%d: params changed", m.Name, l)
			}
		}
	}
}

func TestUnmarshalCustomMachine(t *testing.T) {
	src := `{
	  "name": "mini",
	  "clockGHz": 2.0,
	  "memLatency": 150,
	  "memOccupancy": 8,
	  "root": {"children": [
	    {"level": 2, "sizeBytes": 1048576, "assoc": 8, "lineBytes": 64, "latency": 12,
	     "children": [
	       {"level": 1, "sizeBytes": 32768, "assoc": 8, "lineBytes": 64, "latency": 4, "children": [{}]},
	       {"level": 1, "sizeBytes": 32768, "assoc": 8, "lineBytes": 64, "latency": 4, "children": [{}]}
	     ]},
	    {"level": 2, "sizeBytes": 1048576, "assoc": 8, "lineBytes": 64, "latency": 12,
	     "children": [
	       {"level": 1, "sizeBytes": 32768, "assoc": 8, "lineBytes": 64, "latency": 4, "children": [{}]},
	       {"level": 1, "sizeBytes": 32768, "assoc": 8, "lineBytes": 64, "latency": 4, "children": [{}]}
	     ]}
	  ]}
	}`
	m, err := UnmarshalMachine([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCores() != 4 || m.MaxLevel() != 2 {
		t.Fatalf("mini machine: %d cores, depth %d", m.NumCores(), m.MaxLevel())
	}
	if m.SharedLevel(0, 1) != 2 || m.SharedLevel(0, 2) != 0 {
		t.Fatal("mini machine sharing structure wrong")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"garbage", "{", "parsing"},
		{"no name", `{"root": {"children": [{}]}}`, "name"},
		{"core root", `{"name": "x", "root": {}}`, "root cannot be a core"},
		{"interior no level", `{"name": "x", "root": {"children": [{"children": [{}]}]}}`, "without a cache level"},
		{"bad cache", `{"name": "x", "root": {"children": [{"level": 1, "children": [{}]}]}}`, "invalid parameters"},
		{"negative cache latency", `{"name": "x", "root": {"children": [{"level": 1, "sizeBytes": 32768, "assoc": 8, "lineBytes": 64, "latency": -10, "children": [{}]}]}}`, "negative latency"},
		{"negative memory latency", `{"name": "x", "memLatency": -500, "root": {"children": [{"level": 1, "sizeBytes": 32768, "assoc": 8, "lineBytes": 64, "latency": 3, "children": [{}]}]}}`, "negative memory latency"},
		{"negative memory occupancy", `{"name": "x", "memOccupancy": -8, "root": {"children": [{"level": 1, "sizeBytes": 32768, "assoc": 8, "lineBytes": 64, "latency": 3, "children": [{}]}]}}`, "negative memory occupancy"},
	}
	for _, c := range cases {
		if _, err := UnmarshalMachine([]byte(c.src)); err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.want)
		}
	}
}
