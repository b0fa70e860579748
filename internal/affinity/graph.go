// Package affinity implements the paper's model of data reference locality
// (§4.1): the affinity queue, which observes the stream of heap accesses
// and detects contemporaneous accesses to objects from different allocation
// contexts, and the pairwise affinity graph those observations accumulate
// into. Nodes are reduced allocation contexts; edge weights count affinitive
// access pairs, subject to the paper's four constraints (deduplication, no
// self-affinity, no double counting, co-allocatability).
//
// Contexts are densely interned small integers, so the graph is laid out
// for the profiling fast path: node access counts live in a slice indexed
// by context, and edge weights in a flat open-addressing table keyed by the
// packed context pair. Steady-state AddAccess/AddEdge perform no hashing of
// composite keys, no pointer chasing and no allocation. Every exported view
// (Nodes, Edges, String) remains sorted and deterministic, and Merge
// remains order-independent, so serialisation and grouping behave exactly
// as they did over the map-based layout.
package affinity

import (
	"fmt"
	"sort"
	"strings"
)

// Ctx identifies a reduced allocation context (interned by the profiler).
type Ctx int32

// NoCtx marks an access to an object with no tracked context.
const NoCtx Ctx = -1

// EdgeKey is an unordered context pair; U <= V. Loop edges (U == V) arise
// from affinitive accesses to two different objects of the same context and
// are treated specially by the grouping score (Figure 7).
type EdgeKey struct {
	U, V Ctx
}

// MakeEdge normalises the pair.
func MakeEdge(a, b Ctx) EdgeKey {
	if a > b {
		a, b = b, a
	}
	return EdgeKey{a, b}
}

// pack encodes a normalised edge as one 64-bit table key.
func (e EdgeKey) pack() uint64 {
	return uint64(uint32(e.U))<<32 | uint64(uint32(e.V))
}

// unpackEdge inverts pack.
func unpackEdge(k uint64) EdgeKey {
	return EdgeKey{Ctx(int32(k >> 32)), Ctx(int32(k))}
}

// Graph is the pairwise affinity graph.
type Graph struct {
	// acc[int(c)+1] is the macro-access count of context c; the +1 keeps
	// the NoCtx sentinel representable. present distinguishes a node seen
	// with zero accesses (an edge endpoint) from an absent one.
	acc     []uint64
	present []bool
	nnodes  int

	edges edgeTable
	total uint64 // total macro accesses (including filtered)
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{}
}

// slot grows the node arrays to cover c and returns its index.
func (g *Graph) slot(c Ctx) int {
	i := int(c) + 1
	if i >= len(g.acc) {
		n := len(g.acc) * 2
		if n <= i {
			n = i + 1
		}
		acc := make([]uint64, n)
		copy(acc, g.acc)
		g.acc = acc
		present := make([]bool, n)
		copy(present, g.present)
		g.present = present
	}
	if !g.present[i] {
		g.present[i] = true
		g.nnodes++
	}
	return i
}

// AddAccess records one macro access to an object of the given context.
//
//halo:hot
func (g *Graph) AddAccess(c Ctx) {
	i := g.slot(c)
	g.acc[i]++
	g.total++
}

// AddEdge increments the affinity weight between two contexts, registering
// the endpoints as nodes if they have not been seen yet.
//
//halo:hot
func (g *Graph) AddEdge(a, b Ctx, w uint64) {
	g.slot(a)
	g.slot(b)
	g.edges.add(MakeEdge(a, b).pack(), w)
}

// AddAccesses records n macro accesses to objects of the given context,
// as n calls of AddAccess would. Decoders use it to rebuild a stored graph,
// whose total is then the sum of its nodes' accesses.
func (g *Graph) AddAccesses(c Ctx, n uint64) {
	i := g.slot(c)
	g.acc[i] += n
	g.total += n
}

// Merge folds other into g, translating every context through remap. Node
// access counts, edge weights and the observed-access total all add; the
// result is independent of merge order because addition commutes.
func (g *Graph) Merge(other *Graph, remap func(Ctx) Ctx) {
	for i, ok := range other.present {
		if !ok {
			continue
		}
		c := remap(Ctx(i - 1))
		j := g.slot(c) // inserts the node even when acc == 0
		g.acc[j] += other.acc[i]
	}
	other.edges.forEach(func(k, w uint64) {
		e := unpackEdge(k)
		g.AddEdge(remap(e.U), remap(e.V), w)
	})
	g.total += other.total
}

// NumNodes reports the node count.
func (g *Graph) NumNodes() int { return g.nnodes }

// NumEdges reports the edge count (loops included).
func (g *Graph) NumEdges() int { return g.edges.n }

// TotalAccesses reports all macro accesses observed, which the grouping
// threshold is relative to ("graph.accesses" in Figure 6).
func (g *Graph) TotalAccesses() uint64 { return g.total }

// Accesses returns the access count of a context.
func (g *Graph) Accesses(c Ctx) uint64 {
	if i := int(c) + 1; i >= 0 && i < len(g.acc) {
		return g.acc[i]
	}
	return 0
}

// Weight returns the affinity between two contexts.
func (g *Graph) Weight(a, b Ctx) uint64 { return g.edges.get(MakeEdge(a, b).pack()) }

// Nodes returns the contexts in deterministic (ascending) order. The node
// array is indexed by context, so a single pass is already sorted.
func (g *Graph) Nodes() []Ctx {
	out := make([]Ctx, 0, g.nnodes)
	for i, ok := range g.present {
		if ok {
			out = append(out, Ctx(i-1))
		}
	}
	return out
}

// Edges returns all edges in deterministic order.
func (g *Graph) Edges() []EdgeKey {
	out := make([]EdgeKey, 0, g.edges.n)
	g.edges.forEach(func(k, _ uint64) {
		out = append(out, unpackEdge(k))
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Filter implements the paper's noise reduction: nodes are visited from
// most to least accessed, and once `coverage` (e.g. 0.90) of all observed
// accesses is accounted for, the remaining nodes are discarded along with
// their incident edges. The returned graph keeps the original total access
// count, as the grouping threshold is relative to all observed accesses.
func (g *Graph) Filter(coverage float64) *Graph {
	keep := make([]bool, len(g.present))
	var accd uint64
	limit := uint64(coverage * float64(g.total))
	for _, c := range g.Hottest() {
		if accd >= limit {
			break
		}
		keep[int(c)+1] = true
		accd += g.Accesses(c)
	}
	return g.subgraph(keep, 0)
}

// Hottest returns the contexts from most to least accessed, ties in
// ascending context order.
func (g *Graph) Hottest() []Ctx {
	nodes := g.Nodes()
	sort.SliceStable(nodes, func(i, j int) bool { return g.Accesses(nodes[i]) > g.Accesses(nodes[j]) })
	return nodes
}

// Prune removes edges lighter than minWeight (Figure 6's first step).
func (g *Graph) Prune(minWeight uint64) *Graph {
	return g.subgraph(g.present, minWeight)
}

// subgraph keeps the nodes keep marks (indexed like present), the edges
// among them of weight at least minWeight, and g's total access count.
func (g *Graph) subgraph(keep []bool, minWeight uint64) *Graph {
	out := NewGraph()
	out.total = g.total
	for i, ok := range g.present {
		if ok && keep[i] {
			j := out.slot(Ctx(i - 1))
			out.acc[j] = g.acc[i]
		}
	}
	g.edges.forEach(func(k, w uint64) {
		e := unpackEdge(k)
		if w >= minWeight && keep[int(e.U)+1] && keep[int(e.V)+1] {
			out.edges.add(k, w)
		}
	})
	return out
}

// String renders a compact summary.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "affinity graph: %d nodes, %d edges, %d accesses\n", g.nnodes, g.edges.n, g.total)
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  (%d,%d) w=%d\n", e.U, e.V, g.Weight(e.U, e.V))
	}
	return b.String()
}

// edgeTable is a flat open-addressing hash table from packed edge keys to
// weights: power-of-two capacity, linear probing, no deletion (derived
// graphs are rebuilt, never edited in place). All 2^64 key values are
// legal, so occupancy is tracked explicitly rather than via a sentinel.
type edgeTable struct {
	keys []uint64
	vals []uint64
	occ  []bool
	n    int
}

const edgeTableMinCap = 16

// mix finalises a packed key into a table hash (Murmur3 finaliser).
func mix(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// add increments the weight stored under k, inserting it if absent.
//
//halo:hot
func (t *edgeTable) add(k, w uint64) {
	if t.n*4 >= len(t.keys)*3 {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	i := mix(k) & mask
	for t.occ[i] {
		if t.keys[i] == k {
			t.vals[i] += w
			return
		}
		i = (i + 1) & mask
	}
	t.occ[i] = true
	t.keys[i] = k
	t.vals[i] = w
	t.n++
}

// get returns the weight stored under k, or zero.
//
//halo:hot
func (t *edgeTable) get(k uint64) uint64 {
	if t.n == 0 {
		return 0
	}
	mask := uint64(len(t.keys) - 1)
	i := mix(k) & mask
	for t.occ[i] {
		if t.keys[i] == k {
			return t.vals[i]
		}
		i = (i + 1) & mask
	}
	return 0
}

// forEach visits every stored edge in unspecified order; callers that
// expose results sort them (Edges) or are order-insensitive (Merge,
// Filter, Prune).
func (t *edgeTable) forEach(fn func(k, w uint64)) {
	for i, ok := range t.occ {
		if ok {
			fn(t.keys[i], t.vals[i])
		}
	}
}

// grow doubles the table and rehashes every entry.
func (t *edgeTable) grow() {
	newCap := len(t.keys) * 2
	if newCap < edgeTableMinCap {
		newCap = edgeTableMinCap
	}
	keys := make([]uint64, newCap)
	vals := make([]uint64, newCap)
	occ := make([]bool, newCap)
	mask := uint64(newCap - 1)
	for i, ok := range t.occ {
		if !ok {
			continue
		}
		j := mix(t.keys[i]) & mask
		for occ[j] {
			j = (j + 1) & mask
		}
		occ[j] = true
		keys[j] = t.keys[i]
		vals[j] = t.vals[i]
	}
	t.keys, t.vals, t.occ = keys, vals, occ
}
