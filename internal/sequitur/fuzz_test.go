package sequitur

import "testing"

// FuzzGrammar builds a grammar over a small-alphabet sequence (the first
// byte picks an alphabet of 2 to 5 terminals, which maximises rule churn)
// and checks the SEQUITUR invariants and the rule-slot bookkeeping:
//
//   - Expand reproduces the input;
//   - digram uniqueness: no digram of two different symbols occurs twice
//     across the rule bodies (repeats inside a run such as "aaa" are the
//     one legal exception), and every digram-table entry names a live
//     occurrence of its own digram, so no entry outlives the rule slot
//     it refers to;
//   - rule utility as this SEQUITUR keeps it: every reference names a
//     live non-start rule, every rule's reference count is exact, and no
//     non-start rule is unreferenced. Like the reference implementation,
//     match inlines a once-referenced rule only when it is the first
//     symbol of the rule match made or reused, so a few small-alphabet
//     inputs keep a rule referenced once (the third seed leaves [2 0]
//     used only by [2 [2 0]]). The three pipeline programs' grammars hold
//     no such rule, and closing the gap would change the grammar, and so
//     the hot data streams, of other inputs;
//   - the rule-slot table is bounded by peak live rules: after every
//     append each slot is live or on the free list, exactly once, so the
//     table grows only when every slot is live, and it is never more than
//     one slot above the largest live count seen between appends (match
//     may create a rule that its own utility check retires in the same
//     append).
func FuzzGrammar(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 1, 2, 1, 2, 1, 2})
	f.Add([]byte{3, 1, 2, 2, 2, 0, 1, 2, 0, 2, 2, 0, 2})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 1, 0, 1})
	f.Add([]byte{2, 4, 4, 4, 4, 4, 4, 4, 1, 2, 1, 2, 3, 1, 2, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		// checkSlots walks every slot after every append, so long inputs
		// would cost quadratic time; the invariants show on short ones.
		if len(data) == 0 || len(data) > 2048 {
			return
		}
		k := int64(data[0]%4) + 2
		seq := make([]int64, len(data)-1)
		g := NewGrammar()
		peak := g.NumRules()
		for i, b := range data[1:] {
			seq[i] = int64(b) % k
			g.Append(seq[i])
			peak = max(peak, g.NumRules())
			checkSlots(t, g, peak)
		}
		if got := g.Expand(); !eq(got, seq) {
			t.Fatalf("Expand() = %v, want %v", got, seq)
		}
		checkDigrams(t, g)
		checkUtility(t, g)
	})
}

// checkSlots checks that every rule slot is live or free, exactly once,
// and that the table is at most one slot above peak.
func checkSlots(t *testing.T, g *Grammar, peak int) {
	t.Helper()
	free := make([]bool, len(g.rules))
	for _, num := range g.freeRules {
		if g.rules[num].live || free[num] {
			t.Fatalf("slot %d on the free list while live or twice", num)
		}
		free[num] = true
	}
	for num := range g.rules {
		if !g.rules[num].live && !free[num] {
			t.Fatalf("retired slot %d is not on the free list", num)
		}
	}
	if len(g.rules) > peak+1 {
		t.Fatalf("%d rule slots for a peak of %d live rules", len(g.rules), peak)
	}
}

// checkDigrams checks digram uniqueness across the live rule bodies and
// that every digram-table entry names a live occurrence of its digram.
func checkDigrams(t *testing.T, g *Grammar) {
	t.Helper()
	onList := make(map[int32]bool)
	seen := make(map[[2]int64]bool)
	for _, r := range g.Rules() {
		for s := g.firstOf(int32(r.Number)); !g.syms[s].guard; s = g.syms[s].next {
			onList[s] = true
			n := g.syms[s].next
			if g.syms[n].guard {
				continue
			}
			d := [2]int64{g.syms[s].value, g.syms[n].value}
			if seen[d] && d[0] != d[1] {
				t.Fatalf("digram %v occurs twice", d)
			}
			seen[d] = true
		}
	}
	for _, e := range g.digrams.slots {
		if e.occ == symNil {
			continue
		}
		n := g.syms[e.occ].next
		if !onList[e.occ] || g.syms[n].guard || g.syms[e.occ].value != e.a || g.syms[n].value != e.b {
			t.Fatalf("digram table entry (%d,%d) names a stale occurrence", e.a, e.b)
		}
	}
}

// checkUtility checks every reference against the live rules and every
// non-start rule's reference count, as FuzzGrammar describes.
func checkUtility(t *testing.T, g *Grammar) {
	t.Helper()
	refs := make([]int32, len(g.rules))
	for _, r := range g.Rules() {
		for _, v := range r.Body() {
			if v >= 0 {
				continue
			}
			num := ruleOf(v)
			if num == 0 || !g.rules[num].live {
				t.Fatalf("rule %d references rule %d, which is not a live non-start rule", r.Number, num)
			}
			refs[num]++
		}
	}
	for _, r := range g.Rules()[1:] {
		n := refs[r.Number]
		if n != g.rules[r.Number].count || n == 0 {
			t.Fatalf("rule %d: count %d, %d references", r.Number, g.rules[r.Number].count, n)
		}
	}
}
