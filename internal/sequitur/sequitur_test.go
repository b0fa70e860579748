package sequitur

import (
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
