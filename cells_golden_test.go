package repro_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/topology"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/cells.golden from the current code")

const cellsGolden = "testdata/cells.golden"

// goldenCells is the pinned grid: Figure 13 (every Table 2 kernel on the
// three commercial machines under Base, Base+ and TopologyAware) plus
// Figure 15's Local and Combined cells on Dunnington.
func goldenCells() []experiments.Cell {
	cfg := repro.DefaultConfig()
	cells := experiments.Grid(topology.Commercial(), workloads.All(),
		[]repro.Scheme{repro.SchemeBase, repro.SchemeBasePlus, repro.SchemeTopologyAware}, cfg)
	return append(cells, experiments.Grid([]*topology.Machine{topology.Dunnington()}, workloads.All(),
		[]repro.Scheme{repro.SchemeLocal, repro.SchemeCombined}, cfg)...)
}

// simDigest is the SHA-256 of the full simulation result's JSON encoding:
// total and per-core cycles, per-level and per-cache hits, misses and
// writebacks, off-chip accesses and barriers. encoding/json sorts the
// Levels map's keys, so the encoding is deterministic.
func simDigest(t *testing.T, sim *repro.SimResult) string {
	t.Helper()
	b, err := json.Marshal(sim)
	if err != nil {
		t.Fatalf("encode result: %v", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

type goldenCell struct {
	cycles uint64
	digest string
}

// TestCellsGolden recomputes every pinned cell and names each one whose
// total cycles or full result moved since testdata/cells.golden was
// written. Worker-count independence is the job of
// TestDriverOutputIdenticalAcrossWorkers; this test is what keeps results
// from drifting between commits. The golden changes only through
// `go test -run TestCellsGolden -update .`.
func TestCellsGolden(t *testing.T) {
	cells := goldenCells()
	r := experiments.NewRunner()
	r.SetWorkers(0)
	runs, err := r.RunCells(cells)
	if err != nil {
		t.Fatalf("run grid: %v", err)
	}
	got := make(map[string]goldenCell, len(cells))
	for i, c := range cells {
		got[c.Key()] = goldenCell{runs[i].Sim.TotalCycles, simDigest(t, runs[i].Sim)}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	if *update {
		var b strings.Builder
		b.WriteString("# cell key\ttotal cycles\tsha256(json(SimResult)); regenerate with go test -run TestCellsGolden -update .\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "%s\t%d\t%s\n", k, got[k].cycles, got[k].digest)
		}
		if err := os.WriteFile(cellsGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cells to %s", len(keys), cellsGolden)
		return
	}

	want := readGolden(t)
	for _, k := range keys {
		w, ok := want[k]
		switch {
		case !ok:
			t.Errorf("cell %s: not in %s", k, cellsGolden)
		case w.cycles != got[k].cycles:
			t.Errorf("cell %s moved: %d cycles, golden %d", k, got[k].cycles, w.cycles)
		case w.digest != got[k].digest:
			t.Errorf("cell %s moved: same %d total cycles, but the result digest is %s, golden %s",
				k, w.cycles, got[k].digest, w.digest)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("cell %s: in %s but no longer computed", k, cellsGolden)
		}
	}
}

func readGolden(t *testing.T) map[string]goldenCell {
	t.Helper()
	f, err := os.Open(cellsGolden)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	defer f.Close()
	want := make(map[string]goldenCell)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, "\t")
		if len(fields) != 3 {
			t.Fatalf("%s:%d: want 3 tab-separated fields, got %d", cellsGolden, line, len(fields))
		}
		cycles, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("%s:%d: cycles: %v", cellsGolden, line, err)
		}
		want[fields[0]] = goldenCell{cycles, fields[2]}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
