package cachesim

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/topology"
	"repro/internal/trace"
)

// randomProgram builds an unsynchronized random-address program for m.
func randomProgram(m *topology.Machine, seed int64, perCore int) *trace.Program {
	rng := rand.New(rand.NewSource(seed))
	n := m.NumCores()
	cores := make([][]trace.Access, n)
	for c := range cores {
		for i := 0; i < perCore; i++ {
			cores[c] = append(cores[c], trace.Access{
				Addr:  int64(rng.Intn(1 << 21)),
				Size:  8,
				Write: rng.Intn(4) == 0,
			})
		}
	}
	return &trace.Program{NumCores: n, Rounds: [][][]trace.Access{cores}}
}

// TestCheckedRunIsTransparent: enabling the runtime invariants changes
// nothing about a healthy run's statistics — the checks observe, they never
// steer.
func TestCheckedRunIsTransparent(t *testing.T) {
	for _, m := range topology.Commercial() {
		plain, err := SimulateContext(context.Background(), m, randomProgram(m, 17, 800), Limits{})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		checked, err := SimulateContext(context.Background(), m, randomProgram(m, 17, 800), Limits{Check: check.Invariants})
		if err != nil {
			t.Fatalf("%s: healthy run violated an invariant: %v", m.Name, err)
		}
		if !reflect.DeepEqual(plain, checked) {
			t.Errorf("%s: checked run differs from unchecked run", m.Name)
		}
	}
}

// TestReplaceHookEvadesInvariants documents the chaos matrix's hard case:
// a perturbed replacement decision leaves every structural invariant intact
// (the run completes under full invariant checking) while actually changing
// the statistics — which is exactly why the differential oracle exists.
func TestReplaceHookEvadesInvariants(t *testing.T) {
	m := topology.Dunnington()
	prog := func() *trace.Program { return randomProgram(m, 23, 1200) }
	clean, err := SimulateContext(context.Background(), m, prog(), Limits{Check: check.Invariants})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	hook := func(level, set, victim, assoc int) int {
		calls++
		if calls%5 != 0 {
			return -1
		}
		return (victim + 1) % assoc
	}
	perturbed, err := SimulateContext(context.Background(), m, prog(), Limits{Check: check.Invariants, Replace: hook})
	if err != nil {
		t.Fatalf("perturbed replacement tripped a structural invariant (it must only be caught by the oracle): %v", err)
	}
	if calls == 0 {
		t.Fatal("replacement hook never consulted")
	}
	if reflect.DeepEqual(clean, perturbed) {
		t.Error("perturbed replacement left all statistics unchanged; the fault would be undetectable")
	}
}

// TestCursorFaults: the checked event loop must report each cursor-level
// fault under its own invariant name.
func TestCursorFaults(t *testing.T) {
	m := topology.Dunnington()
	base := randomProgram(m, 9, 256)
	for _, name := range []string{"cursor-short", "cursor-overrun", "negative-address"} {
		_, err := New(m).RunContext(context.Background(), faultSource{base, name}, Limits{Check: check.Invariants})
		var ie *check.InvariantError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: got %v, want InvariantError", name, err)
		}
		if ie.Name != name {
			t.Errorf("%s: invariant %q reported", name, ie.Name)
		}
	}
}

// faultSource hands out core 2's cursor wrapped to commit the fault its
// mode names; every other core's cursor is the base program's.
type faultSource struct {
	trace.Source
	mode string
}

func (s faultSource) Cursor(r, c int) trace.Cursor {
	cur := s.Source.Cursor(r, c)
	if c == 2 {
		return &faultingCursor{Cursor: cur, mode: s.mode, n: cur.Len()}
	}
	return cur
}

// faultingCursor wraps a cursor to misbehave in one specific way.
type faultingCursor struct {
	trace.Cursor
	mode  string
	n     int
	yield int
}

func (f *faultingCursor) Next() (trace.Access, bool) {
	switch f.mode {
	case "cursor-short":
		if f.yield >= f.n/2 {
			return trace.Access{}, false
		}
	case "cursor-overrun":
		// extra accesses appear after Len is exhausted
		if f.yield >= f.n {
			f.yield++
			return trace.Access{Addr: 64}, true
		}
	case "negative-address":
		if f.yield == f.n/2 {
			f.yield++
			return trace.Access{Addr: -64}, true
		}
	}
	f.yield++
	return f.Cursor.Next()
}
