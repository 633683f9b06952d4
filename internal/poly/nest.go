package poly

import (
	"fmt"
	"strings"
)

// Loop is one level of a loop nest. Its bounds are affine expressions over
// the *outer* loop variables (and may also mention its own variable with
// coefficient zero, which is ignored). Bounds are inclusive: the loop runs
// Lower(p) <= x <= Upper(p). Step is the positive stride (default 1).
type Loop struct {
	Name  string
	Lower Expr
	Upper Expr
	Step  int64
}

// Nest is a perfect loop nest: the iteration-space generator the mapper
// consumes. Bounds of inner loops may depend affinely on outer variables, so
// triangular and trapezoidal spaces are expressible.
type Nest struct {
	Loops []Loop
}

// NewNest builds a nest from loops, defaulting Step to 1.
func NewNest(loops ...Loop) *Nest {
	n := &Nest{Loops: append([]Loop(nil), loops...)}
	for i := range n.Loops {
		if n.Loops[i].Step == 0 {
			n.Loops[i].Step = 1
		}
	}
	return n
}

// RectLoop builds a loop with constant inclusive bounds.
func RectLoop(name string, lo, hi int64) Loop {
	return Loop{Name: name, Lower: Constant(lo), Upper: Constant(hi), Step: 1}
}

// Depth returns the nesting depth.
func (n *Nest) Depth() int { return len(n.Loops) }

// Names returns the loop variable names outermost-first.
func (n *Nest) Names() []string {
	names := make([]string, len(n.Loops))
	for i, l := range n.Loops {
		names[i] = l.Name
	}
	return names
}

// Contains reports whether p lies inside the nest bounds.
func (n *Nest) Contains(p Point) bool {
	if len(p) != n.Depth() {
		return false
	}
	for i, l := range n.Loops {
		lo, hi := l.Lower.Eval(p), l.Upper.Eval(p)
		if p[i] < lo || p[i] > hi {
			return false
		}
		if l.Step > 1 && (p[i]-lo)%l.Step != 0 {
			return false
		}
	}
	return true
}

// Points enumerates every iteration of the nest in lexicographic (program)
// order. The result is the iteration space K of §3.2, or nil when it is
// empty.
//
// Beside one scratch point it makes two allocations, whatever the nest's
// size: a first walk only counts the iterations, and a second copies them
// into one flat []int64. Each Point is the full slice expression
// flat[i*d:(i+1)*d:(i+1)*d], whose capacity is its length, so appending to
// one point copies it and can never write into the next; writing its
// elements in place changes that point alone, as with separately
// allocated points.
func (n *Nest) Points() []Point {
	d := n.Depth()
	p := make(Point, d)
	total := n.walk(p, 0, nil, 0)
	if total == 0 {
		return nil
	}
	flat := make([]int64, total*d)
	n.walk(p, 0, flat, 0)
	out := make([]Point, total)
	for i := range out {
		out[i] = flat[i*d : (i+1)*d : (i+1)*d]
	}
	return out
}

// walk visits the iterations of loops d.. in lexicographic order, with the
// outer loop values in p[:d], and returns i advanced by their count. When
// flat is non-nil it copies the visited iteration i to flat[i*len(p):].
// With a nil flat it allocates nothing.
func (n *Nest) walk(p Point, d int, flat []int64, i int) int {
	if d == len(p) {
		if flat != nil {
			copy(flat[i*d:], p)
		}
		return i + 1
	}
	l := n.Loops[d]
	lo, hi := l.Lower.Eval(p), l.Upper.Eval(p)
	for v := lo; v <= hi; v += l.Step {
		p[d] = v
		i = n.walk(p, d+1, flat, i)
	}
	return i
}

// Size returns the number of iterations without materializing them: a
// product of trip counts when the nest is rectangular, a counting walk
// otherwise.
func (n *Nest) Size() int {
	rect := true
	total := int64(1)
	for _, l := range n.Loops {
		if !l.Lower.IsConstant() || !l.Upper.IsConstant() {
			rect = false
			break
		}
		span := l.Upper.Const - l.Lower.Const
		if span < 0 {
			return 0
		}
		total *= span/l.Step + 1
	}
	if rect {
		return int(total)
	}
	return n.walk(make(Point, n.Depth()), 0, nil, 0)
}

// Set converts the nest to a constraint set (dropping step information for
// steps of 1; stepped loops are kept via enumeration-based paths).
func (n *Nest) Set() *Set {
	s := NewSet(n.Names()...)
	d := n.Depth()
	for i, l := range n.Loops {
		// x_i - Lower >= 0
		lower := l.Lower.widen(d)
		s.Add(GEZero(Var(i, d).Sub(lower)))
		// Upper - x_i >= 0
		upper := l.Upper.widen(d)
		s.Add(GEZero(upper.Sub(Var(i, d))))
	}
	return s
}

// String renders the nest as C-like pseudo-code, matching the paper's
// example style (Figure 4).
func (n *Nest) String() string {
	var b strings.Builder
	for d, l := range n.Loops {
		indent := strings.Repeat("  ", d)
		step := ""
		if l.Step != 1 {
			step = fmt.Sprintf(" step %d", l.Step)
		}
		fmt.Fprintf(&b, "%sfor (%s = %s; %s <= %s; %s++%s)\n",
			indent, l.Name, l.Lower.StringNamed(n.Names()), l.Name,
			l.Upper.StringNamed(n.Names()), l.Name, step)
	}
	return b.String()
}
