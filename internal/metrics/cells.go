package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// CellStat records the execution of one experiment-grid cell — one
// (kernel, machine, scheme, config) simulation run by the parallel runner.
type CellStat struct {
	// Key is the cell's canonical identity (the runner's memoization key).
	Key string `json:"key"`
	// Wall is the wall-clock time the cell took (mapping + simulation).
	Wall time.Duration `json:"wall_ns"`
	// SimCycles is the simulated cycle count the cell produced.
	SimCycles uint64 `json:"sim_cycles"`
	// Accesses is the number of memory accesses the cell simulated. With
	// streamed traces this comes from the cursors' precomputed lengths, so
	// it stays exact even though no access slice is ever materialized.
	Accesses uint64 `json:"accesses"`
	// AllocBytes is the heap allocated while the cell ran. Attribution is
	// exact under a single worker; with concurrent workers the per-cell
	// numbers overlap (the Go runtime exposes only process-wide counters)
	// and should be read as an upper bound.
	AllocBytes uint64 `json:"alloc_bytes"`
	// Status records how the attempt ended: "ok" for a completed cell,
	// otherwise the failure stage the runner classified ("panic",
	// "timeout", "invariant", "diverged", ...). Empty in records written
	// before status tracking existed.
	Status string `json:"status,omitempty"`
}

// CellLog is a concurrency-safe recorder of per-cell execution statistics.
// The zero value is ready to use.
type CellLog struct {
	mu    sync.Mutex
	stats []CellStat
}

// Record appends one cell's statistics. Safe for concurrent use.
func (l *CellLog) Record(s CellStat) {
	l.mu.Lock()
	l.stats = append(l.stats, s)
	l.mu.Unlock()
}

// Len returns the number of recorded cells.
func (l *CellLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.stats)
}

// Stats returns a copy of the recorded statistics sorted by cell key, so
// the listing is deterministic regardless of completion order.
func (l *CellLog) Stats() []CellStat {
	l.mu.Lock()
	out := make([]CellStat, len(l.stats))
	copy(out, l.stats)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// TotalWall returns the summed wall time of every recorded cell — the
// serial cost of the grid, against which the parallel wall clock compares.
func (l *CellLog) TotalWall() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var t time.Duration
	for _, s := range l.stats {
		t += s.Wall
	}
	return t
}

// Summary renders an aggregate line plus the n slowest cells, most
// expensive first — the view that tells a sweep author where the grid's
// time goes.
func (l *CellLog) Summary(n int) string {
	stats := l.Stats()
	var b strings.Builder
	var wall time.Duration
	var allocs, accesses uint64
	for _, s := range stats {
		wall += s.Wall
		allocs += s.AllocBytes
		accesses += s.Accesses
	}
	fmt.Fprintf(&b, "%d cells, %s total cell time, %d accesses simulated, %.1f MB allocated\n",
		len(stats), wall.Round(time.Millisecond), accesses, float64(allocs)/(1<<20))
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Wall != stats[j].Wall {
			return stats[i].Wall > stats[j].Wall
		}
		return stats[i].Key < stats[j].Key
	})
	if n > len(stats) {
		n = len(stats)
	}
	for _, s := range stats[:n] {
		fmt.Fprintf(&b, "  %-12s %14d cycles  %8.1f MB  %s\n",
			s.Wall.Round(time.Millisecond), s.SimCycles, float64(s.AllocBytes)/(1<<20), s.Key)
	}
	return b.String()
}

// cellLogJSON is the serialized shape of a CellLog: the aggregate line's
// quantities plus the sorted per-cell records.
type cellLogJSON struct {
	Cells         int           `json:"cells"`
	TotalWallNS   time.Duration `json:"total_wall_ns"`
	TotalAccesses uint64        `json:"total_accesses"`
	TotalAlloc    uint64        `json:"total_alloc_bytes"`
	PerCell       []CellStat    `json:"per_cell"`
}

// WriteJSON serializes the log — totals plus every cell's stats, sorted by
// cell key for deterministic output — as indented JSON.
func (l *CellLog) WriteJSON(w io.Writer) error {
	stats := l.Stats()
	out := cellLogJSON{Cells: len(stats), PerCell: stats}
	for _, s := range stats {
		out.TotalWallNS += s.Wall
		out.TotalAccesses += s.Accesses
		out.TotalAlloc += s.AllocBytes
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
