// Package tags implements §3.3 of the paper: the logical partitioning of
// program data into equal-sized blocks β0..β(n-1), the bit-vector tags that
// record which blocks an iteration accesses, and the grouping of iterations
// with identical tags into iteration groups θ_τ.
package tags

import (
	"fmt"
	"math/bits"
	"strings"
)

// Tag is a fixed-width bit vector with one bit per data block: bit j is set
// when the tagged iterations access a datum in block βj. Tags of the same
// tagger share a width; operations panic on width mismatch to catch misuse.
type Tag struct {
	words []uint64
	n     int // number of valid bits
}

// NewTag returns an all-zero tag over n blocks.
func NewTag(n int) Tag {
	if n < 0 {
		//lint:ignore cellboundary programmer-error invariant on an internal API; repro.capturePanic converts it to a contained PanicError at the cell boundary
		panic("tags: negative tag width")
	}
	return Tag{words: make([]uint64, (n+63)/64), n: n}
}

// Width returns the number of blocks the tag covers.
func (t Tag) Width() int { return t.n }

// Set sets bit j.
func (t Tag) Set(j int) {
	t.check(j)
	t.words[j/64] |= 1 << (j % 64)
}

// Clear clears bit j.
func (t Tag) Clear(j int) {
	t.check(j)
	t.words[j/64] &^= 1 << (j % 64)
}

// Get reports bit j.
func (t Tag) Get(j int) bool {
	t.check(j)
	return t.words[j/64]&(1<<(j%64)) != 0
}

func (t Tag) check(j int) {
	if j < 0 || j >= t.n {
		//lint:ignore cellboundary programmer-error invariant on an internal API; repro.capturePanic converts it to a contained PanicError at the cell boundary
		panic(fmt.Sprintf("tags: bit %d out of range [0,%d)", j, t.n))
	}
}

func (t Tag) checkWidth(u Tag) {
	if t.n != u.n {
		//lint:ignore cellboundary programmer-error invariant on an internal API; repro.capturePanic converts it to a contained PanicError at the cell boundary
		panic(fmt.Sprintf("tags: width mismatch %d vs %d", t.n, u.n))
	}
}

// Clone returns an independent copy.
func (t Tag) Clone() Tag {
	w := make([]uint64, len(t.words))
	copy(w, t.words)
	return Tag{words: w, n: t.n}
}

// Or returns t | u, the cluster tag of Fig 6 ("bitwise sum" of member tags:
// the set of blocks the cluster touches).
func (t Tag) Or(u Tag) Tag {
	t.checkWidth(u)
	out := t.Clone()
	for i := range out.words {
		out.words[i] |= u.words[i]
	}
	return out
}

// OrInPlace folds u into t without allocating.
func (t Tag) OrInPlace(u Tag) {
	t.checkWidth(u)
	for i := range t.words {
		t.words[i] |= u.words[i]
	}
}

// And returns t & u.
func (t Tag) And(u Tag) Tag {
	t.checkWidth(u)
	out := t.Clone()
	for i := range out.words {
		out.words[i] &= u.words[i]
	}
	return out
}

// Dot returns the dot product of two tags as the paper defines it: the
// number of common 1 bits — the degree of data-block sharing.
func (t Tag) Dot(u Tag) int {
	t.checkWidth(u)
	d := 0
	for i := range t.words {
		d += bits.OnesCount64(t.words[i] & u.words[i])
	}
	return d
}

// Ones returns the number of set bits (blocks touched).
func (t Tag) Ones() int {
	d := 0
	for _, w := range t.words {
		d += bits.OnesCount64(w)
	}
	return d
}

// Hamming returns the Hamming distance between the tags, the §3.5.3 measure
// the scheduler minimizes between contiguously scheduled groups.
func (t Tag) Hamming(u Tag) int {
	t.checkWidth(u)
	d := 0
	for i := range t.words {
		d += bits.OnesCount64(t.words[i] ^ u.words[i])
	}
	return d
}

// Equal reports bitwise equality.
func (t Tag) Equal(u Tag) bool {
	if t.n != u.n {
		return false
	}
	for i := range t.words {
		if t.words[i] != u.words[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether no bit is set.
func (t Tag) IsZero() bool {
	for _, w := range t.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Blocks lists the indices of the set bits in increasing order.
func (t Tag) Blocks() []int {
	var out []int
	for i, w := range t.words {
		for w != 0 {
			j := bits.TrailingZeros64(w)
			out = append(out, i*64+j)
			w &^= 1 << j
		}
	}
	return out
}

// String renders the tag in the paper's d0 d1 ... d(n-1) notation, e.g.
// "1100" for a four-block tag touching the first two blocks. Widths above
// 64 are abbreviated to the set-bit list.
func (t Tag) String() string {
	if t.n > 64 {
		return fmt.Sprintf("tag%v", t.Blocks())
	}
	var b strings.Builder
	for j := 0; j < t.n; j++ {
		if t.Get(j) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// FromBits builds a tag from a "1100"-style string, for tests and examples.
func FromBits(s string) Tag {
	t := NewTag(len(s))
	for i, c := range s {
		switch c {
		case '1':
			t.Set(i)
		case '0':
		default:
			//lint:ignore cellboundary programmer-error invariant on an internal API; repro.capturePanic converts it to a contained PanicError at the cell boundary
			panic(fmt.Sprintf("tags: bad bit %q in %q", c, s))
		}
	}
	return t
}
