// Package sequitur implements SEQUITUR (Nevill-Manning & Witten, 1997):
// linear-time, incremental inference of a context-free grammar whose
// language is exactly the input string. internal/hds compresses
// object-level data reference traces with it to extract hot data streams
// (the paper's PLDI '06 comparison technique).
package sequitur

import "sort"

// This file implements the grammar: linear
// time, incremental inference of a context-free grammar whose language is
// exactly the input string, maintaining the digram-uniqueness and
// rule-utility invariants. Like the reference implementation, match
// enforces rule utility only for the first symbol of the rule it makes or
// reuses, so a few inputs keep a rule that is referenced once.
//
// The grammar is laid out for the trace-compression fast path. Symbols live
// in one dense slab addressed by int32 index (with a free list threaded
// through retired nodes), rules in a slot table whose retired slots a free
// list hands to later rules (so the table never outgrows the peak live rule
// count, and a creation stamp keeps creation order), and the digram
// index is a flat open-addressing hash table from symbol-key pairs to slab
// indices. Nothing in the structure holds a Go pointer, so a terminal
// append performs no map operations, no allocation in the steady state, and
// generates no GC write-barrier or scan work.

// symNil is the null slab index: index 0 is reserved so 0 can mean "no
// symbol" in the free list and "empty" in a digram-table slot.
const symNil int32 = 0

// symbol is a node in a rule body's doubly linked list, addressed by its
// slab index. A symbol is a terminal (value >= 0), a nonterminal reference
// (value < 0, encoding rule -value-1), or a rule's guard sentinel (guard
// true, value encoding the owning rule the same way).
type symbol struct {
	next, prev int32
	value      int64 // the digram key: terminal value, or -ruleNumber-1
	guard      bool
	reg        bool // the digram table holds this symbol's digram at it
}

// ruleData is a grammar production's slab-side state.
type ruleData struct {
	guard int32 // slab index of the guard sentinel
	count int32 // references from other rules
	born  int   // creation stamp: the number of rules created before it
	live  bool
}

// Grammar is a SEQUITUR grammar under construction.
type Grammar struct {
	syms      []symbol
	free      int32 // free-list head (threaded through next), symNil when empty
	rules     []ruleData
	freeRules []int32 // retired rule slots, reused before the table grows
	created   int     // rules ever created: the next creation stamp
	nlive     int
	length    int // terminals consumed
	digrams   digramTable
}

// Rule is a handle on a grammar production.
type Rule struct {
	g *Grammar
	// Number is the rule's slot in the grammar's rule table; 0 is the
	// start rule. A rule keeps its slot while it lives, but a later Append
	// may delete it and hand the slot to a new rule.
	Number int
}

// NewGrammar returns an empty grammar.
func NewGrammar() *Grammar {
	g := &Grammar{syms: make([]symbol, 1, 1024), free: symNil}
	g.newRule()
	return g
}

// ntKey encodes a rule number as a digram key (negated, offset, so the
// terminal and nonterminal spaces cannot collide).
func ntKey(rule int32) int64 { return -int64(rule) - 1 }

// ruleOf inverts ntKey.
func ruleOf(key int64) int32 { return int32(-key - 1) }

// newSymbol hands out a slab node with the given key.
//
//halo:hot
func (g *Grammar) newSymbol(value int64, guard bool) int32 {
	i := g.free
	if i != symNil {
		g.free = g.syms[i].next
	} else {
		g.syms = append(g.syms, symbol{})
		i = int32(len(g.syms) - 1)
	}
	g.syms[i] = symbol{value: value, guard: guard}
	return i
}

// freeSymbol recycles a node the algorithm has permanently unlinked.
//
//halo:hot
func (g *Grammar) freeSymbol(i int32) {
	g.syms[i].next = g.free
	g.syms[i].prev = symNil
	g.free = i
}

// newRule creates an empty rule in a retired slot, or in a new one when
// every slot is live.
func (g *Grammar) newRule() int32 {
	var num int32
	if n := len(g.freeRules); n > 0 {
		num = g.freeRules[n-1]
		g.freeRules = g.freeRules[:n-1]
	} else {
		num = int32(len(g.rules))
		g.rules = append(g.rules, ruleData{})
	}
	guard := g.newSymbol(ntKey(num), true)
	g.syms[guard].next, g.syms[guard].prev = guard, guard
	g.rules[num] = ruleData{guard: guard, born: g.created, live: true}
	g.created++
	g.nlive++
	return num
}

// deleteRule removes a rule inlined by the utility invariant and retires
// its slot for reuse. Its one reference was the occurrence being expanded,
// and both digrams around that occurrence left the digram table with it,
// so no table entry still carries the retired slot's key.
func (g *Grammar) deleteRule(num int32) {
	g.freeSymbol(g.rules[num].guard)
	g.rules[num].live = false
	g.freeRules = append(g.freeRules, num)
	g.nlive--
}

func (g *Grammar) firstOf(num int32) int32 { return g.syms[g.rules[num].guard].next }
func (g *Grammar) lastOf(num int32) int32  { return g.syms[g.rules[num].guard].prev }

func (g *Grammar) isNT(i int32) bool { return g.syms[i].value < 0 && !g.syms[i].guard }

// join links left and right, clearing any digram that started at left.
func (g *Grammar) join(left, right int32) {
	if g.syms[left].next != symNil {
		g.deleteDigram(left)
	}
	g.syms[left].next = right
	g.syms[right].prev = left
}

// insertAfter inserts y after s.
//
//halo:hot
func (g *Grammar) insertAfter(s, y int32) {
	g.join(y, g.syms[s].next)
	g.join(s, y)
}

// deleteDigram removes the digram table entry starting at s, if it is the
// registered occurrence. The reg flag answers that without a probe: about
// half the calls on omnetpp's trace find nothing to delete.
func (g *Grammar) deleteDigram(s int32) {
	if !g.syms[s].reg {
		return
	}
	g.syms[s].reg = false
	n := g.syms[s].next
	g.digrams.deleteIf(g.syms[s].value, g.syms[n].value, s)
}

// register makes s the table's occurrence of its digram.
func (g *Grammar) register(s int32) {
	if old := g.digrams.put(g.syms[s].value, g.syms[g.syms[s].next].value, s); old != symNil {
		g.syms[old].reg = false
	}
	g.syms[s].reg = true
}

// unlink removes s from its list, updating digrams and rule usage.
func (g *Grammar) unlink(s int32) {
	g.join(g.syms[s].prev, g.syms[s].next)
	if !g.syms[s].guard {
		g.deleteDigram(s)
		if g.isNT(s) {
			g.rules[ruleOf(g.syms[s].value)].count--
		}
	}
}

// check enforces digram uniqueness for the digram starting at s. Returns
// true if a substitution happened.
//
//halo:hot
func (g *Grammar) check(s int32) bool {
	n := g.syms[s].next
	if g.syms[s].guard || g.syms[n].guard {
		return false
	}
	found, existed := g.digrams.getOrInsert(g.syms[s].value, g.syms[n].value, s)
	if !existed {
		g.syms[s].reg = true
		return false
	}
	if g.syms[found].next != s {
		g.match(s, found)
	}
	return true
}

// match resolves a repeated digram: reuse the rule if the other occurrence
// is a complete rule body, otherwise create a new rule for the digram.
func (g *Grammar) match(s, found int32) {
	var r int32
	fPrev, fNextNext := g.syms[found].prev, g.syms[g.syms[found].next].next
	if g.syms[fPrev].guard && g.syms[fNextNext].guard {
		r = ruleOf(g.syms[fPrev].value)
		g.substitute(s, r)
	} else {
		r = g.newRule()
		g.insertAfter(g.lastOf(r), g.copySymbol(s))
		g.insertAfter(g.lastOf(r), g.copySymbol(g.syms[s].next))
		g.register(g.firstOf(r))
		g.substitute(found, r)
		g.substitute(s, r)
	}
	// Rule utility: a rule referenced once is inlined at its last use.
	if f := g.firstOf(r); g.isNT(f) && g.rules[ruleOf(g.syms[f].value)].count == 1 {
		g.expand(f)
	}
}

// copySymbol clones a symbol's value into a fresh node.
func (g *Grammar) copySymbol(s int32) int32 {
	v := g.syms[s].value
	if v < 0 {
		g.rules[ruleOf(v)].count++
	}
	return g.newSymbol(v, false)
}

// substitute replaces s and its successor with a reference to rule r.
func (g *Grammar) substitute(s, r int32) {
	q := g.syms[s].prev
	dead := g.syms[s].next
	g.unlink(dead)
	g.unlink(s)
	g.freeSymbol(dead)
	g.freeSymbol(s)
	g.rules[r].count++
	g.insertAfter(q, g.newSymbol(ntKey(r), false))
	if !g.check(q) {
		g.check(g.syms[q].next)
	}
}

// expand inlines the rule of a once-referenced nonterminal occurrence.
func (g *Grammar) expand(s int32) {
	left, right := g.syms[s].prev, g.syms[s].next
	num := ruleOf(g.syms[s].value)
	f, l := g.firstOf(num), g.lastOf(num)
	g.deleteDigram(s)
	g.deleteRule(num)
	g.join(left, f)
	g.join(l, right)
	if !g.syms[l].guard && !g.syms[right].guard {
		g.register(l)
	}
	g.freeSymbol(s)
}

// Append feeds the next terminal of the input sequence.
//
//halo:hot
func (g *Grammar) Append(value int64) {
	if value < 0 {
		panic("sequitur: terminals must be non-negative") //halo:errfmt-ok negative terminals violate the documented Append contract
	}
	g.length++
	t := g.newSymbol(value, false)
	g.insertAfter(g.lastOf(0), t)
	if p := g.syms[g.lastOf(0)].prev; !g.syms[p].guard {
		g.check(p)
	}
}

// Length reports the number of terminals consumed.
func (g *Grammar) Length() int { return g.length }

// NumRules reports the live rule count (including the start rule).
func (g *Grammar) NumRules() int { return g.nlive }

// Body returns a rule's symbol sequence: terminal values (>= 0) and rule
// references encoded as -Number-1.
func (r *Rule) Body() []int64 {
	g := r.g
	var out []int64
	for s := g.firstOf(int32(r.Number)); !g.syms[s].guard; s = g.syms[s].next {
		out = append(out, g.syms[s].value)
	}
	return out
}

// Rules returns the live rules in creation order; the first is always the
// start rule (number 0).
func (g *Grammar) Rules() []*Rule {
	out := make([]*Rule, 0, g.nlive)
	for num := range g.rules {
		if g.rules[num].live {
			out = append(out, &Rule{g: g, Number: num})
		}
	}
	sort.Slice(out, func(i, j int) bool { return g.rules[out[i].Number].born < g.rules[out[j].Number].born })
	return out
}

// Start returns the start rule.
func (g *Grammar) Start() *Rule { return &Rule{g: g, Number: 0} }

// Expand reconstructs the full input sequence (for validation).
func (g *Grammar) Expand() []int64 {
	var out []int64
	var walk func(num int32)
	walk = func(num int32) {
		for s := g.firstOf(num); !g.syms[s].guard; s = g.syms[s].next {
			if v := g.syms[s].value; v < 0 {
				walk(ruleOf(v))
			} else {
				out = append(out, v)
			}
		}
	}
	walk(0)
	return out
}

// digramTable is a flat open-addressing hash table from digrams (the pair
// of adjacent symbol keys) to the slab index of their registered
// occurrence. Linear probing with backward-shift deletion: removing an
// entry pulls later members of its probe cluster back into the hole, so
// the table never holds tombstones and every probe ends at the first
// empty slot. Each slot keeps its key pair and occurrence together, so a
// probe step reads one cache line. The table holds no Go pointers.
type digramTable struct {
	slots []digramSlot
	n     int // live entries
}

type digramSlot struct {
	a, b int64
	occ  int32 // symNil = empty
}

const digramTableMinCap = 64

// digramMix finalises the digram into a table hash (Murmur3 finaliser over
// the combined halves).
func digramMix(a, b int64) uint64 {
	k := uint64(a)*0x9e3779b97f4a7c15 ^ uint64(b)
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// find probes for (a, b). On a key hit it returns the entry's slot and
// true; otherwise it returns the empty slot that ends the probe chain and
// false. The table must hold at least one empty slot.
func (t *digramTable) find(a, b int64) (int, bool) {
	mask := uint64(len(t.slots) - 1)
	i := digramMix(a, b) & mask
	for t.slots[i].occ != symNil {
		if t.slots[i].a == a && t.slots[i].b == b {
			return int(i), true
		}
		i = (i + 1) & mask
	}
	return int(i), false
}

// slot returns the slot holding (a, b), claiming an empty one for the key
// when it is absent (the caller then sets occ), and whether it was present.
// The table doubles at half load: every delete walks the rest of its
// cluster, and at three-quarters load the clusters grow long enough to
// slow SEQUITUR down measurably (DESIGN.md, "Layout synthesis").
func (t *digramTable) slot(a, b int64) (*digramSlot, bool) {
	if t.n*2 >= len(t.slots) {
		t.grow()
	}
	i, hit := t.find(a, b)
	e := &t.slots[i]
	if !hit {
		e.a, e.b = a, b
		t.n++
	}
	return e, hit
}

// getOrInsert returns the registered occurrence of (a, b), or registers s
// and reports that no occurrence existed.
func (t *digramTable) getOrInsert(a, b int64, s int32) (int32, bool) {
	e, hit := t.slot(a, b)
	if hit {
		return e.occ, true
	}
	e.occ = s
	return symNil, false
}

// put registers s as the occurrence of (a, b), replacing and returning
// any existing one (symNil when there was none).
func (t *digramTable) put(a, b int64, s int32) int32 {
	e, _ := t.slot(a, b)
	old := e.occ
	e.occ = s
	return old
}

// deleteIf removes the entry for (a, b) when s is the registered occurrence.
func (t *digramTable) deleteIf(a, b int64, s int32) {
	if t.n == 0 {
		return
	}
	hole, hit := t.find(a, b)
	if !hit || t.slots[hole].occ != s {
		return
	}
	// Walk the rest of the cluster. The entry at j may fill the hole
	// unless its home slot lies cyclically in (hole, j], that is, when the
	// hole is on its probe path; it then leaves a new hole behind.
	mask := len(t.slots) - 1
	for j := (hole + 1) & mask; t.slots[j].occ != symNil; j = (j + 1) & mask {
		home := int(digramMix(t.slots[j].a, t.slots[j].b)) & mask
		if (j-home)&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = digramSlot{}
	t.n--
}

// grow doubles the table and rehashes every entry.
func (t *digramTable) grow() {
	newCap := len(t.slots) * 2
	if newCap < digramTableMinCap {
		newCap = digramTableMinCap
	}
	slots := make([]digramSlot, newCap)
	mask := uint64(newCap - 1)
	for _, e := range t.slots {
		if e.occ == symNil {
			continue
		}
		j := digramMix(e.a, e.b) & mask
		for slots[j].occ != symNil {
			j = (j + 1) & mask
		}
		slots[j] = e
	}
	t.slots = slots
}
