// Package bits provides the shared "group state" bit vector of §4.3–4.4:
// the rewritten binary sets and clears bits around monitored call sites, and
// the specialised allocator tests selector conjunctions against it to decide
// group membership at allocation time.
package bits

import (
	"fmt"
	mathbits "math/bits"
	"strings"
)

// Vec is a fixed-capacity bit vector. The zero value has zero capacity;
// create with New.
type Vec struct {
	words []uint64
	n     int
}

// New returns a vector holding n bits, all clear.
func New(n int) *Vec {
	if n < 0 {
		n = 0
	}
	return &Vec{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity in bits.
func (v *Vec) Len() int { return v.n }

func (v *Vec) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bits: index %d out of range [0, %d)", i, v.n)) //halo:errfmt-ok bounds violation is a programming error, mirroring the built-in slice check
	}
}

// Set sets bit i.
func (v *Vec) Set(i int) {
	v.check(i)
	v.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear clears bit i.
func (v *Vec) Clear(i int) {
	v.check(i)
	v.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Test reports whether bit i is set.
func (v *Vec) Test(i int) bool {
	v.check(i)
	return v.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// TestAll reports whether every listed bit is set: the evaluation of one
// selector conjunction against the group state.
func (v *Vec) TestAll(idx []int) bool {
	for _, i := range idx {
		if !v.Test(i) {
			return false
		}
	}
	return true
}

// Reset clears all bits.
func (v *Vec) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// SetAll sets every bit in [0, Len()). Bits beyond Len() in the final word
// stay clear so Count and AndCount never see ghosts.
func (v *Vec) SetAll() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	if tail := uint(v.n) & 63; tail != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] = (1 << tail) - 1
	}
}

// CopyFrom overwrites v with o. The vectors must have equal capacity.
func (v *Vec) CopyFrom(o *Vec) {
	if v.n != o.n {
		panic(fmt.Sprintf("bits: CopyFrom length mismatch %d != %d", v.n, o.n)) //halo:errfmt-ok length-mismatch contract violation is a programming error
	}
	copy(v.words, o.words)
}

// And intersects v with o in place. The vectors must have equal capacity.
func (v *Vec) And(o *Vec) {
	if v.n != o.n {
		panic(fmt.Sprintf("bits: And length mismatch %d != %d", v.n, o.n)) //halo:errfmt-ok length-mismatch contract violation is a programming error
	}
	for i := range v.words {
		v.words[i] &= o.words[i]
	}
}

// Count returns the number of set bits.
func (v *Vec) Count() int {
	n := 0
	for _, w := range v.words {
		n += mathbits.OnesCount64(w)
	}
	return n
}

// AndCount returns the population count of the intersection of v and o
// without materialising it — the word-parallel conflict-counting primitive
// of the selector-identification stage. The vectors must have equal
// capacity.
func (v *Vec) AndCount(o *Vec) int {
	if v.n != o.n {
		panic(fmt.Sprintf("bits: AndCount length mismatch %d != %d", v.n, o.n)) //halo:errfmt-ok length-mismatch contract violation is a programming error
	}
	n := 0
	for i, w := range v.words {
		n += mathbits.OnesCount64(w & o.words[i])
	}
	return n
}

// Any reports whether any bit is set.
func (v *Vec) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// String renders the set bits, e.g. "{1,5,9}".
func (v *Vec) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i := 0; i < v.n; i++ {
		if v.Test(i) {
			if !first {
				b.WriteByte(',')
			}
			first = false
			fmt.Fprintf(&b, "%d", i)
		}
	}
	b.WriteByte('}')
	return b.String()
}
