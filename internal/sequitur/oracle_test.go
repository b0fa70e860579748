package sequitur

import (
	"math/rand"
	"strconv"
	"testing"
)

// newReference returns an empty grammar that never calls extend: the
// algorithm every grammar must equal up to rule-slot renaming.
func newReference() *Grammar {
	g := NewGrammar()
	g.noExtend = true
	return g
}

// canonical renders a grammar independent of rule slots: the live rules in
// creation order, each with its creation stamp and reference count, then
// its body with every reference renamed to its rule's creation index and a
// '*' after each symbol the digram table registers. Two grammars with equal
// canonical forms hold the same rules, bodies and digram registrations, so
// every later append takes the same turns in both.
func canonical(g *Grammar) string {
	rules := g.Rules()
	index := make([]int, len(g.rules))
	for i, r := range rules {
		index[r.Number] = i
	}
	b := strconv.AppendInt(nil, int64(g.created), 10)
	b = append(b, " rules, "...)
	b = strconv.AppendInt(b, int64(g.digrams.n), 10)
	b = append(b, " digrams\n"...)
	for i, r := range rules {
		num := int32(r.Number)
		b = append(b, 'R')
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, " born "...)
		b = strconv.AppendInt(b, int64(g.rules[num].born), 10)
		b = append(b, " count "...)
		b = strconv.AppendInt(b, int64(g.rules[num].count), 10)
		b = append(b, ':')
		for s := g.firstOf(num); !g.syms[s].guard; s = g.syms[s].next {
			b = append(b, ' ')
			if v := g.syms[s].value; v < 0 {
				b = append(b, 'R')
				b = strconv.AppendInt(b, int64(index[ruleOf(v)]), 10)
			} else {
				b = strconv.AppendInt(b, v, 10)
			}
			if g.syms[s].reg {
				b = append(b, '*')
			}
		}
		b = append(b, '\n')
	}
	return string(b)
}

// matchReference fails the test unless g and the reference ref have equal
// canonical forms after n appends.
func matchReference(t *testing.T, g, ref *Grammar, n int) {
	t.Helper()
	if got, want := canonical(g), canonical(ref); got != want {
		t.Fatalf("after %d appends the grammar is\n%swant (reference)\n%s", n, got, want)
	}
}

// appendBoth feeds seq to g and to the reference ref, comparing them after
// every append.
func appendBoth(t *testing.T, g, ref *Grammar, seq []int64) {
	t.Helper()
	for i, v := range seq {
		g.Append(v)
		ref.Append(v)
		matchReference(t, g, ref, i+1)
	}
}

// TestExtendMatchesReference drives extend and the reference over inputs
// that take the extension path often, over random small-alphabet inputs
// with copied chunks, and over the first input, on which both grammars
// hold the digram [R1 2] twice (expand registers the digram it closes
// without a check, so FuzzGrammar's uniqueness check fails there).
func TestExtendMatchesReference(t *testing.T) {
	inputs := [][]int64{
		{1, 1, 0, 0, 0, 1, 0, 2, 0, 0, 0, 1, 0, 2, 1, 0, 1, 0, 2, 0, 1, 0, 2, 0, 0, 0, 1, 0, 2, 1, 0},
		periodic(7, 20),
		periodic(20, 10),
	}
	rng := rand.New(rand.NewSource(1))
	for range 300 {
		inputs = append(inputs, chunky(rng, 300))
	}
	extended := 0
	for _, seq := range inputs {
		g := NewGrammar()
		appendBoth(t, g, newReference(), seq)
		extended += g.extended
	}
	if extended == 0 {
		t.Fatal("no input took the extension path")
	}
}

// periodic repeats 0 … period-1 reps times.
func periodic(period, reps int) []int64 {
	seq := make([]int64, 0, period*reps)
	for range reps {
		for v := range period {
			seq = append(seq, int64(v))
		}
	}
	return seq
}

// chunky returns up to n symbols from an alphabet of 2 to 8, built from
// fresh random runs and copies of earlier stretches, the shape of a
// reference trace that revisits the same objects in the same order.
func chunky(rng *rand.Rand, n int) []int64 {
	k := int64(rng.Intn(7) + 2)
	seq := make([]int64, 0, n)
	for len(seq) < n {
		if len(seq) > 4 && rng.Intn(2) == 0 {
			start := rng.Intn(len(seq) - 2)
			end := min(start+2+rng.Intn(12), len(seq))
			seq = append(seq, seq[start:end]...)
		} else {
			for range rng.Intn(4) + 1 {
				seq = append(seq, rng.Int63n(k))
			}
		}
	}
	return seq[:rng.Intn(n)+1]
}

// TestExtendGrowsRuleInPlace pins that extend fires, and where it must
// decline. On 0 1 2 3 0 1 2 the repeat [R1 2] has R1 = [0 1] referenced
// twice, so R1 itself grows to [0 1 2] and keeps slot 1; the reference
// creates [R1 2] in slot 2 and inlines R1. On 0 1 2 0 1 2 the occurrences
// of [R1 2] are adjacent, so extend declines and both grammars make the
// new rule in slot 2.
func TestExtendGrowsRuleInPlace(t *testing.T) {
	for _, tc := range []struct {
		seq           []int64
		slot, refSlot int
	}{
		{[]int64{0, 1, 2, 3, 0, 1, 2}, 1, 2},
		{[]int64{0, 1, 2, 0, 1, 2}, 2, 2},
	} {
		g, ref := NewGrammar(), newReference()
		appendBoth(t, g, ref, tc.seq)
		if got := slotOf(t, g, []int64{0, 1, 2}); got != tc.slot {
			t.Errorf("%v: [0 1 2] in slot %d, want %d", tc.seq, got, tc.slot)
		}
		if got := slotOf(t, ref, []int64{0, 1, 2}); got != tc.refSlot {
			t.Errorf("%v: reference puts [0 1 2] in slot %d, want %d", tc.seq, got, tc.refSlot)
		}
	}
}

// slotOf returns the slot of the rule whose body is body.
func slotOf(t *testing.T, g *Grammar, body []int64) int {
	t.Helper()
	for _, r := range g.Rules() {
		if eq(r.Body(), body) {
			return r.Number
		}
	}
	t.Fatalf("no rule with body %v", body)
	return 0
}
