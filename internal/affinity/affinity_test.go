package affinity

import (
	"testing"
	"testing/quick"
)

// fakeInter scripts an allocation sequence: entry s is the context that
// issued serial s. It answers co-allocatability by scanning the serials
// strictly between the pair.
type fakeInter []Ctx

func (f fakeInter) Interferes(lo, hi uint64) bool {
	for s := lo + 1; s < hi; s++ {
		if f[s] == f[lo] || f[s] == f[hi] {
			return true
		}
	}
	return false
}

func acc(obj uint64, ctx Ctx, size uint32) Access {
	return Access{Obj: obj, Ctx: ctx, Size: size}
}

func TestQueueBasicAffinity(t *testing.T) {
	g := NewGraph()
	q := NewQueue(32, g, nil)
	// Two 8-byte accesses to different objects, adjacent: affinitive.
	q.Push(acc(1, 0, 8))
	q.Push(acc(2, 1, 8))
	if w := g.Weight(0, 1); w != 1 {
		t.Fatalf("weight(0,1) = %d, want 1", w)
	}
	if g.TotalAccesses() != 2 {
		t.Fatalf("total accesses = %d", g.TotalAccesses())
	}
}

func TestQueueAffinityDistanceWindow(t *testing.T) {
	// With A = 16 and 8-byte entries, an access is affinitive with the
	// previous two entries (0 and 8 bytes between) but not the third
	// (16 bytes between).
	g := NewGraph()
	q := NewQueue(16, g, nil)
	q.Push(acc(1, 1, 8))
	q.Push(acc(2, 2, 8))
	q.Push(acc(3, 3, 8))
	q.Push(acc(4, 4, 8))
	if w := g.Weight(4, 3); w != 1 {
		t.Errorf("adjacent pair weight = %d, want 1", w)
	}
	if w := g.Weight(4, 2); w != 1 {
		t.Errorf("one-apart pair weight = %d, want 1", w)
	}
	if w := g.Weight(4, 1); w != 0 {
		t.Errorf("beyond-window pair weight = %d, want 0", w)
	}
}

func TestQueueMacroAccessDedup(t *testing.T) {
	// Consecutive accesses to one object are a single macro access: no
	// re-traversal, no access recount.
	g := NewGraph()
	q := NewQueue(64, g, nil)
	q.Push(acc(1, 0, 8))
	q.Push(acc(2, 1, 8))
	q.Push(acc(2, 1, 8))
	q.Push(acc(2, 1, 8))
	if g.TotalAccesses() != 2 {
		t.Fatalf("macro accesses = %d, want 2", g.TotalAccesses())
	}
	if w := g.Weight(0, 1); w != 1 {
		t.Fatalf("weight = %d, want 1 (no duplicate edges)", w)
	}
}

func TestQueueNoSelfAffinity(t *testing.T) {
	g := NewGraph()
	q := NewQueue(64, g, nil)
	q.Push(acc(1, 0, 8))
	q.Push(acc(2, 0, 8))
	q.Push(acc(1, 0, 8)) // non-consecutive revisit of object 1
	// Loop edge (0,0) may exist between objects 1 and 2, but object 1
	// must not be affinitive with itself.
	if w := g.Weight(0, 0); w != 2 {
		// 2 pairs: (2 after 1), (1 after 2); the second traversal of
		// object 1 pairs with object 2 only.
		t.Fatalf("loop weight = %d, want 2", w)
	}
}

func TestQueueDoubleCountSuppression(t *testing.T) {
	// Object 2 appears twice in the window; a new access to object 3 may
	// count it only once.
	g := NewGraph()
	q := NewQueue(128, g, nil)
	q.Push(acc(2, 1, 8))
	q.Push(acc(9, 5, 8))
	q.Push(acc(2, 1, 8)) // second occurrence (non-consecutive)
	q.Push(acc(3, 2, 8))
	if w := g.Weight(2, 1); w != 1 {
		t.Fatalf("weight(ctx2,ctx1) = %d, want 1 (double counting suppressed)", w)
	}
}

func TestQueueCoallocatability(t *testing.T) {
	// Serial s was allocated from context inter[s]. Context 1 allocated
	// serial 5 between objects 2 (context 1) and 8 (context 2), and
	// context 3 allocated serial 7 between objects 4 (context 4) and 9
	// (context 3); every other serial comes from an unrelated context 9.
	inter := fakeInter{9, 9, 1, 9, 4, 1, 9, 3, 2, 3}
	g := NewGraph()
	q := NewQueue(64, g, inter)
	q.Push(acc(2, 1, 8))
	q.Push(acc(8, 2, 8))
	if w := g.Weight(1, 2); w != 0 {
		t.Fatalf("pair split by the older object's context counted: weight = %d", w)
	}
	// A pair with no intervening allocation still counts.
	q.Push(acc(9, 3, 8))
	if w := g.Weight(2, 3); w != 1 {
		t.Fatalf("clean pair weight = %d, want 1", w)
	}
	q.Push(acc(4, 4, 8))
	if w := g.Weight(4, 3); w != 0 {
		t.Fatalf("pair split by the newer object's context counted: weight = %d", w)
	}
	if w := g.Weight(4, 2); w != 1 {
		t.Fatalf("clean pair (4, 8) weight = %d, want 1", w)
	}
}

func TestQueueEviction(t *testing.T) {
	g := NewGraph()
	q := NewQueue(32, g, nil)
	for i := uint64(1); i <= 100; i++ {
		q.Push(acc(i, Ctx(i%7), 8))
	}
	// With A=32 and 8-byte entries the queue holds at most A/8 + 1
	// entries whose preceding bytes are under the distance.
	if q.Len() > 5 {
		t.Fatalf("queue holds %d entries; eviction broken", q.Len())
	}
	if q.Bytes() >= 32+8 {
		t.Fatalf("queue bytes = %d", q.Bytes())
	}
}

func TestQueueWindowInvariantProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		g := NewGraph()
		q := NewQueue(64, g, nil)
		for i, s := range sizes {
			size := uint32(s%16) + 1
			q.Push(acc(uint64(i+1), Ctx(i%5), size))
			// Invariant: evicted entries have >= A bytes of newer
			// entries; all but the oldest live entry fit in A.
			if q.Len() > 0 && q.Bytes() > 64+16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueCompactionReleasesBurstMemory(t *testing.T) {
	g := NewGraph()
	q := NewQueue(4096, g, nil)
	// Bursty phase: thousands of 1-byte entries keep a ~4096-entry window
	// live, growing the backing array.
	for i := uint64(1); i <= 6000; i++ {
		q.Push(acc(i, Ctx(i%3), 1))
	}
	if cap(q.entries) < 4096 {
		t.Fatalf("burst did not grow the window: cap %d", cap(q.entries))
	}
	// Page-sized entries shrink the live window to a couple of entries;
	// compaction must release the burst's backing array, not just skip
	// over the dead prefix.
	for i := uint64(10000); i < 10004; i++ {
		q.Push(acc(i, Ctx(i%3), 4096))
	}
	if c := cap(q.entries); c >= 4096 {
		t.Fatalf("backing array not shrunk after burst: cap %d, live %d", c, q.Len())
	}
	if q.Len() == 0 || q.Len() > 2 {
		t.Fatalf("live window = %d entries after page-sized accesses", q.Len())
	}
}

// TestQueuePushSteadyStateAllocs drives a warm queue, whose graph already
// holds every node and edge and whose dedup stamps cover every object,
// through many dead-prefix compactions: sliding the live window back to
// the front of its backing array must not allocate.
func TestQueuePushSteadyStateAllocs(t *testing.T) {
	g := NewGraph()
	q := NewQueue(128, g, nil)
	next := uint64(0)
	compactions := 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			obj := next%64 + 1
			next++
			head := q.head
			q.Push(acc(obj, Ctx(obj%4), 8))
			if q.head < head {
				compactions++
			}
		}
	}
	push(5000) // warm up
	compactions = 0
	if allocs := testing.AllocsPerRun(10, func() { push(5000) }); allocs != 0 {
		t.Fatalf("Push allocated %.1f times per 5000 pushes on a warm queue", allocs)
	}
	if compactions < 10*4 {
		t.Fatalf("only %d compactions over the measured pushes", compactions)
	}
}

func TestGraphNoCtxNode(t *testing.T) {
	// The NoCtx sentinel (-1) is a legal node: the dense layout must keep
	// it addressable and ordered before every real context.
	g := NewGraph()
	g.AddAccess(NoCtx)
	g.AddEdge(NoCtx, 2, 3)
	nodes := g.Nodes()
	if len(nodes) != 2 || nodes[0] != NoCtx || nodes[1] != 2 {
		t.Fatalf("nodes = %v, want [-1 2]", nodes)
	}
	if g.Weight(2, NoCtx) != 3 {
		t.Fatalf("weight = %d, want 3", g.Weight(2, NoCtx))
	}
	if g.Accesses(NoCtx) != 1 || g.TotalAccesses() != 1 {
		t.Fatalf("accesses = %d/%d, want 1/1", g.Accesses(NoCtx), g.TotalAccesses())
	}
}

func TestGraphFilterCoverage(t *testing.T) {
	g := NewGraph()
	// Context 0: 90 accesses; context 1: 9; context 2: 1.
	for i := 0; i < 90; i++ {
		g.AddAccess(0)
	}
	for i := 0; i < 9; i++ {
		g.AddAccess(1)
	}
	g.AddAccess(2)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 3)
	f := g.Filter(0.90)
	if f.Accesses(0) == 0 {
		t.Fatal("hottest node filtered out")
	}
	if f.Accesses(2) != 0 {
		t.Fatal("cold node survived the 90% filter")
	}
	if f.Weight(1, 2) != 0 {
		t.Fatal("edge to filtered node survived")
	}
	if f.TotalAccesses() != 100 {
		t.Fatalf("filter changed total accesses: %d", f.TotalAccesses())
	}
}

func TestGraphPrune(t *testing.T) {
	g := NewGraph()
	g.AddAccess(0)
	g.AddAccess(1)
	g.AddEdge(0, 1, 10)
	g.AddEdge(0, 2, 1)
	p := g.Prune(5)
	if p.Weight(0, 1) != 10 || p.Weight(0, 2) != 0 {
		t.Fatalf("prune kept %d/%d", p.Weight(0, 1), p.Weight(0, 2))
	}
}

func TestEdgeKeyNormalisation(t *testing.T) {
	if MakeEdge(5, 3) != MakeEdge(3, 5) {
		t.Fatal("edge keys not normalised")
	}
	g := NewGraph()
	g.AddEdge(5, 3, 1)
	g.AddEdge(3, 5, 1)
	if g.Weight(3, 5) != 2 {
		t.Fatalf("weight = %d, want 2", g.Weight(3, 5))
	}
}

func TestGraphDeterministicOrder(t *testing.T) {
	g := NewGraph()
	for _, c := range []Ctx{7, 2, 9, 1} {
		g.AddAccess(c)
	}
	g.AddEdge(7, 2, 1)
	g.AddEdge(9, 1, 1)
	nodes := g.Nodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1] >= nodes[i] {
			t.Fatal("nodes not sorted")
		}
	}
	edges := g.Edges()
	if len(edges) != 2 || edges[0].U > edges[1].U {
		t.Fatalf("edges not deterministic: %v", edges)
	}
}
