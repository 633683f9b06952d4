package cachesim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/topology"
	"repro/internal/trace"
)

// oddSetsMachine is a 4-core machine whose shared L2s have 96 sets, so its
// arrays fall in size classes no Table 1 geometry fills exactly and its set
// index takes the fastmod path.
func oddSetsMachine() *topology.Machine {
	node := func(level int, size int64, assoc int, children ...*topology.Node) *topology.Node {
		return &topology.Node{Kind: topology.Cache, Level: level, SizeBytes: size, Assoc: assoc,
			LineBytes: 64, Latency: 3 * level, CoreID: -1, Children: children}
	}
	core := func() *topology.Node { return &topology.Node{Kind: topology.Core, CoreID: -1} }
	l2 := func() *topology.Node {
		return node(2, 96*6*64, 6, node(1, 4<<10, 4, core()), node(1, 4<<10, 4, core()))
	}
	return finalize(&topology.Machine{Name: "odd-sets", ClockGHz: 1, MemLatency: 90, MemOccupancy: 4,
		Root: &topology.Node{Kind: topology.Memory, CoreID: -1, Children: []*topology.Node{l2(), l2()}}})
}

// poolMachines are the geometries the pool tests interleave: every Table 1
// machine, Dunnington-24 (the benchmark's largest) and oddSetsMachine.
func poolMachines(t testing.TB) []*topology.Machine {
	d24, err := topology.ScaleDunnington(24)
	if err != nil {
		t.Fatal(err)
	}
	return []*topology.Machine{topology.Harpertown(), topology.Nehalem(), topology.Dunnington(), d24, oddSetsMachine()}
}

// poolProgram is machine i's test program: two synchronized rounds of
// random reads and writes over 2 MB, which leave resident lines, dirty
// bits and reordered recency lists in every level.
func poolProgram(m *topology.Machine, i int) *trace.Program {
	a := randomProgram(m, int64(100+i), 200)
	b := randomProgram(m, int64(200+i), 200)
	return &trace.Program{NumCores: a.NumCores, Synchronized: true, Rounds: append(a.Rounds, b.Rounds...)}
}

// freshResults runs every machine's program on a simulator built by New,
// the warm-cache path that never hands its arrays back.
func freshResults(t testing.TB, machines []*topology.Machine, lim Limits) []*Result {
	want := make([]*Result, len(machines))
	for i, m := range machines {
		res, err := New(m).RunContext(context.Background(), poolProgram(m, i), lim)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		want[i] = res
	}
	return want
}

// abortKinds are the ways a run can end early. Each leaves whatever the
// run simulated so far in the arrays it hands back to the pools.
var abortKinds = []string{"cancel", "budget", "hook-panic", "invariant"}

// abortRun runs machine i's program through SimulateContext so that it
// stops partway, in the given way. It reports an error unless the run
// ended exactly that way. It does not call t.Fatal, so worker goroutines
// may use it.
func abortRun(m *topology.Machine, i int, kind string, want *Result) error {
	lim := Limits{Check: check.Invariants}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var src trace.Source = poolProgram(m, i)
	fills := 0
	switch kind {
	case "cancel":
		// Cancel from inside the first round, after a few hundred fills;
		// the event loop notices at the next round boundary.
		lim.Replace = func(level, set, victim, assoc int) int {
			if fills++; fills == 300 {
				cancel()
			}
			return -1
		}
	case "budget":
		lim.MaxCycles = want.TotalCycles / 2
	case "hook-panic":
		// The chaos hook's own assertion fails mid-fill, with the cache
		// between victim choice and install.
		lim.Replace = func(level, set, victim, assoc int) int {
			if fills++; fills == 300 {
				panic(&check.InvariantError{Name: "replace-hook", Core: -1, Round: -1, AccessIndex: -1, Detail: "test hook"})
			}
			return -1
		}
	case "invariant":
		// A corrupted access halfway through core 0's first round trips the
		// negative-address invariant.
		p := src.(*trace.Program)
		poisoned := append([]trace.Access(nil), p.Rounds[0][0]...)
		poisoned[len(poisoned)/2].Addr = -64
		p.Rounds[0][0] = poisoned
	}
	var res *Result
	var err error
	panicked := func() (v any) {
		defer func() { v = recover() }()
		res, err = SimulateContext(ctx, m, src, lim)
		return nil
	}()
	if res != nil {
		return fmt.Errorf("%s/%s: aborted run returned a result", m.Name, kind)
	}
	var ierr *check.InvariantError
	switch {
	case kind == "cancel" && !errors.Is(err, context.Canceled),
		kind == "budget" && !errors.Is(err, ErrCycleBudget),
		kind == "invariant" && (!errors.As(err, &ierr) || ierr.Name != "negative-address"):
		return fmt.Errorf("%s/%s: run ended with err %v", m.Name, kind, err)
	case kind == "hook-panic":
		if pe, ok := panicked.(*check.InvariantError); !ok || pe.Name != "replace-hook" {
			return fmt.Errorf("%s/hook-panic: recovered %v, want the hook's InvariantError", m.Name, panicked)
		}
	}
	return nil
}

// TestPooledRunsMatchFresh: cold runs through SimulateContext that reuse
// pooled arrays, including arrays an aborted run of any kind handed back
// mid-simulation, are field-identical to a simulator built by New. The
// machines are interleaved, so every size class also sees arrays of other
// geometries.
func TestPooledRunsMatchFresh(t *testing.T) {
	lim := Limits{Check: check.Invariants}
	machines := poolMachines(t)
	want := freshResults(t, machines, lim)
	for pass := range abortKinds {
		for j := range machines {
			i := (j + pass) % len(machines)
			m := machines[i]
			kind := abortKinds[(i+pass)%len(abortKinds)]
			if err := abortRun(m, i, kind, want[i]); err != nil {
				t.Fatal(err)
			}
			got, err := SimulateContext(context.Background(), m, poolProgram(m, i), lim)
			if err != nil {
				t.Fatalf("%s after %s: %v", m.Name, kind, err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s after an aborted run (%s): pooled run differs from a fresh simulator", m.Name, kind)
			}
		}
	}
}

// TestPooledRunsConcurrent: eight goroutines run mixed machines at once,
// with aborted runs among them. Every completed run must match a fresh
// simulator; under -race this also proves no array is shared by two live
// simulators.
func TestPooledRunsConcurrent(t *testing.T) {
	lim := Limits{Check: check.Invariants}
	machines := poolMachines(t)
	want := freshResults(t, machines, lim)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				i := (g + r) % len(machines)
				m := machines[i]
				if (g+r)%2 == 0 {
					if err := abortRun(m, i, abortKinds[(g+r)%len(abortKinds)], want[i]); err != nil {
						errs[g] = err
						return
					}
				}
				got, err := SimulateContext(context.Background(), m, poolProgram(m, i), lim)
				if err != nil {
					errs[g] = fmt.Errorf("goroutine %d, %s: %w", g, m.Name, err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					errs[g] = fmt.Errorf("goroutine %d, %s: pooled run differs from a fresh simulator", g, m.Name)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestSimulateContextReusesArrays: consecutive cold runs on one machine
// allocate well under one set of its cache arrays each, because every run
// hands its arrays back for the next. (Under -race sync.Pool drops a
// quarter of its Puts at random, so the bound is half a set, not zero.)
func TestSimulateContextReusesArrays(t *testing.T) {
	m := topology.Dunnington()
	p := randomProgram(m, 5, 200)
	arrayBytes := 0
	for _, c := range New(m).cacheList {
		arrayBytes += 8*len(c.tags) + 2*len(c.meta)
	}
	run := func() {
		if _, err := SimulateContext(context.Background(), m, p, Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // fill the pools
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if perRun := int(after.TotalAlloc-before.TotalAlloc) / runs; perRun > arrayBytes/2 {
		t.Fatalf("a cold run allocates %d bytes; its cache arrays are %d bytes and should come from the pools", perRun, arrayBytes)
	}
}

// TestPooledArraysReset: newCache resets every element of a reused array.
// Arrays filled with garbage are handed to the pools until newCache takes
// one (sync.Pool may drop a Put), and the cache must then equal one built
// from zeroed memory with the reset spelled out here.
func TestPooledArraysReset(t *testing.T) {
	for _, n := range []*topology.Node{
		{Kind: topology.Cache, Level: 3, SizeBytes: 12 << 20, Assoc: 16, LineBytes: 64},
		{Kind: topology.Cache, Level: 2, SizeBytes: 96 * 6 * 64, Assoc: 6, LineBytes: 64},
		{Kind: topology.Cache, Level: 1, SizeBytes: 1 << 12, Assoc: 3, LineBytes: 64},
	} {
		sets := int(n.SizeBytes / (int64(n.Assoc) * n.LineBytes))
		wantTags := make([]int64, sets*n.Assoc)
		for i := range wantTags {
			wantTags[i] = -1
		}
		ref := newCache(n)
		stride := ref.metaStride
		wantMeta := make([]uint16, sets*stride)
		for s := 0; s < sets; s++ {
			for i := 0; i < n.Assoc; i++ {
				wantMeta[s*stride+n.Assoc+i] = uint16(n.Assoc - 1 - i)
			}
		}
		reused := false
		for try := 0; try < 100 && !reused; try++ {
			tags := make([]int64, len(wantTags)+try) // longer arrays of the class fit too
			meta := make([]uint16, len(wantMeta)+try)
			for i := range tags {
				tags[i] = int64(i)*7919 + 1
			}
			for i := range meta {
				meta[i] = uint16(i*31 + 5)
			}
			putArray(&tagPools, tags)
			putArray(&metaPools, meta)
			c := newCache(n)
			reused = &c.tags[0] == &tags[0] || &c.meta[0] == &meta[0]
			if !reflect.DeepEqual(c.tags, wantTags) || !reflect.DeepEqual(c.meta, wantMeta) {
				t.Fatalf("L%d %d sets: cache built on a reused array is not reset", n.Level, sets)
			}
		}
		if !reused {
			t.Errorf("L%d %d sets: newCache never took an array from the pools", n.Level, sets)
		}
	}
}

// TestPoolSizeClasses: a pooled array serves any length of its class that
// it covers, is dropped when too short, and never serves another class.
func TestPoolSizeClasses(t *testing.T) {
	for _, n := range []int{1, 2, 3, 1000, 1024, 196608} {
		if c := sizeClass(n); 1<<c > n || n >= 2<<c {
			t.Fatalf("sizeClass(%d) = %d", n, c)
		}
	}
	taken := func(want []int64, n int) bool {
		for try := 0; try < 100; try++ {
			putArray(&tagPools, want)
			if got := takeArray[int64](&tagPools, n); &got[0] == &want[0] {
				if len(got) != n {
					t.Fatalf("took a length-%d slice for %d elements", len(got), n)
				}
				return true
			}
		}
		return false
	}
	if !taken(make([]int64, 3000), 2100) {
		t.Error("a 3000-element array never served a 2100-element request of its class")
	}
	if taken(make([]int64, 3000), 3500) {
		t.Error("a 3000-element array served a 3500-element request")
	}
	if taken(make([]int64, 3000), 1500) {
		t.Error("a 3000-element array served a request of a smaller class")
	}
	if got := takeArray[int64](&tagPools, 5000); len(got) != 5000 || cap(got) < 5000 {
		t.Errorf("takeArray(5000) = len %d cap %d", len(got), cap(got))
	}
}

// BenchmarkSimulateContext measures one cold Dunnington cell's simulation:
// with the pools, B/op is what a run allocates beyond its cache arrays.
func BenchmarkSimulateContext(b *testing.B) {
	m := topology.Dunnington()
	p := randomProgram(m, 3, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateContext(context.Background(), m, p, Limits{}); err != nil {
			b.Fatal(err)
		}
	}
}
