package sequitur

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func buildGrammar(seq []int64) *Grammar {
	g := NewGrammar()
	for _, v := range seq {
		g.Append(v)
	}
	return g
}

func eq(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSequiturExpandReproducesInput(t *testing.T) {
	cases := [][]int64{
		{},
		{1},
		{1, 2},
		{1, 1, 1, 1},
		{1, 2, 1, 2},
		{1, 2, 1, 2, 1, 2},
		{1, 2, 3, 1, 2, 3, 1, 2, 3},
		{1, 2, 1, 2, 3, 1, 2, 1, 2, 3},  // nested rules
		{5, 5, 5, 5, 5, 5, 5, 5},        // runs
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, // no repetition
		{1, 2, 2, 1, 2, 2, 3, 1, 2, 2, 1, 2, 2, 3}, // deep nesting
	}
	for _, seq := range cases {
		g := buildGrammar(seq)
		if got := g.Expand(); !eq(got, seq) {
			t.Errorf("expand(%v) = %v", seq, got)
		}
		if g.Length() != len(seq) {
			t.Errorf("length = %d, want %d", g.Length(), len(seq))
		}
	}
}

func TestSequiturCompresses(t *testing.T) {
	// abcabcabcabc: the grammar must introduce rules, making the start
	// rule shorter than the input.
	var seq []int64
	for i := 0; i < 16; i++ {
		seq = append(seq, 1, 2, 3)
	}
	g := buildGrammar(seq)
	if got := g.Expand(); !eq(got, seq) {
		t.Fatalf("expand mismatch")
	}
	if body := g.Start().Body(); len(body) >= len(seq)/2 {
		t.Fatalf("no compression: start rule has %d symbols for %d input", len(body), len(seq))
	}
	if g.NumRules() < 2 {
		t.Fatalf("no rules formed")
	}
}

func TestSequiturDigramUniqueness(t *testing.T) {
	// After construction, no digram may appear twice across rule bodies
	// (the core SEQUITUR invariant).
	seqs := [][]int64{
		{1, 2, 1, 2, 3, 1, 2, 1, 2, 3},
		{1, 1, 2, 2, 1, 1, 2, 2},
		{4, 4, 4, 4, 4, 4, 4},
	}
	for _, seq := range seqs {
		g := buildGrammar(seq)
		seen := make(map[[2]int64]int)
		for _, r := range g.Rules() {
			body := r.Body()
			for i := 0; i+1 < len(body); i++ {
				seen[[2]int64{body[i], body[i+1]}]++
			}
		}
		for d, n := range seen {
			if n > 1 {
				// Overlapping digrams of a run (e.g. "aaa") are the one
				// legal exception in SEQUITUR implementations.
				if d[0] == d[1] {
					continue
				}
				t.Errorf("seq %v: digram %v appears %d times", seq, d, n)
			}
		}
	}
}

func TestSequiturRuleUtility(t *testing.T) {
	// Every non-start rule must be referenced at least twice.
	seq := []int64{1, 2, 1, 2, 3, 1, 2, 1, 2, 3, 4, 1, 2}
	g := buildGrammar(seq)
	refs := make(map[int]int)
	for _, r := range g.Rules() {
		for _, v := range r.Body() {
			if v < 0 {
				refs[int(-v-1)]++
			}
		}
	}
	for _, r := range g.Rules() {
		if r.Number == 0 {
			continue
		}
		if refs[r.Number] < 2 {
			t.Errorf("rule %d referenced %d times", r.Number, refs[r.Number])
		}
	}
}

func TestSequiturRandomisedRoundTrip(t *testing.T) {
	f := func(raw []uint8) bool {
		seq := make([]int64, len(raw))
		for i, v := range raw {
			seq[i] = int64(v % 5) // small alphabet maximises rule churn
		}
		g := buildGrammar(seq)
		return eq(g.Expand(), seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRuleFreqAndLens(t *testing.T) {
	// 1 2 1 2 1 2 1 2 -> rule r=[1 2] occurring 4 times.
	seq := []int64{1, 2, 1, 2, 1, 2, 1, 2}
	g := buildGrammar(seq)
	freq := RuleFreq(g)
	lens := RuleLens(g)
	// Find a rule with expansion [1 2] and check freq*len sums to the
	// whole trace.
	total := 0
	for _, r := range g.Rules() {
		if r.Number == 0 {
			continue
		}
		total += freq[r.Number] * lens[r.Number]
	}
	// All terminals are covered by rules in this fully regular input.
	if total < len(seq) {
		t.Fatalf("rules cover %d of %d terminals", total, len(seq))
	}
	if freq[0] != 1 {
		t.Fatalf("start rule freq = %d", freq[0])
	}
}

func BenchmarkSequitur(b *testing.B) {
	var seq []int64
	for i := 0; i < 10000; i++ {
		seq = append(seq, int64(i%17), int64(i%5), int64(i%3))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildGrammar(seq)
	}
}

// TestDigramTableMatchesMap drives the digram table and a map oracle with
// the same random getOrInsert, put and deleteIf calls. The key space is
// small and widens in phases, so probe clusters run long, wrap past the end
// of the slot array, and pass through several grows; after every call each
// key's lookup and the live count must agree with the map.
func TestDigramTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab digramTable
	oracle := make(map[[2]int64]int32)
	lookup := func(a, b int64) int32 {
		if len(tab.slots) == 0 {
			return symNil
		}
		i, hit := tab.find(a, b)
		if !hit {
			return symNil
		}
		return tab.slots[i].occ
	}
	caps := map[int]bool{}
	wrapped := false
	for _, width := range []int64{3, 6, 12, 24} {
		for op := 0; op < 3000; op++ {
			// Nonterminal keys are negative, terminals non-negative.
			a, b := rng.Int63n(2*width)-width, rng.Int63n(width)
			k := [2]int64{a, b}
			s := int32(rng.Intn(4) + 1)
			switch r := rng.Intn(10); {
			case r < 4:
				got, existed := tab.getOrInsert(a, b, s)
				want, ok := oracle[k]
				if existed != ok || (ok && got != want) {
					t.Fatalf("getOrInsert%v = %d,%v, want %d,%v", k, got, existed, want, ok)
				}
				if !ok {
					oracle[k] = s
				}
			case r < 6:
				tab.put(a, b, s)
				oracle[k] = s
			default:
				if rng.Intn(3) > 0 && oracle[k] != symNil {
					s = oracle[k] // mostly delete the registered occurrence
				}
				tab.deleteIf(a, b, s)
				if oracle[k] == s {
					delete(oracle, k)
				}
			}
			if tab.n != len(oracle) {
				t.Fatalf("width %d op %d: n = %d, want %d", width, op, tab.n, len(oracle))
			}
			for a := -width; a < width; a++ {
				for b := int64(0); b < width; b++ {
					if got, want := lookup(a, b), oracle[[2]int64{a, b}]; got != want {
						t.Fatalf("width %d op %d: lookup(%d,%d) = %d, want %d", width, op, a, b, got, want)
					}
				}
			}
			last := len(tab.slots) - 1
			if last > 0 && tab.slots[0].occ != symNil && tab.slots[last].occ != symNil {
				wrapped = true
			}
			caps[len(tab.slots)] = true
		}
	}
	if len(caps) < 4 {
		t.Errorf("table saw capacities %v, want at least 4 (several grows)", caps)
	}
	if !wrapped {
		t.Error("no probe cluster wrapped past the end of the slot array")
	}
}
