package affinity

// Access is one macro-level heap access as seen by the profiler.
type Access struct {
	Obj  uint64 // object identity: its allocation serial
	Ctx  Ctx    // reduced allocation context of the object
	Size uint32 // access size in bytes (a queue entry's width, Figure 5)
}

// Interference answers the co-allocatability constraint for two objects,
// named by their allocation serials lo < hi: whether the context of
// either one made an allocation chronologically strictly between them.
// The profiler answers it in O(1) from per-serial links to the previous
// and next allocation of the same context.
type Interference interface {
	Interferes(lo, hi uint64) bool
}

// maxDenseObj bounds the dense per-object dedup array. Profiler object
// identities are allocation serials, issued contiguously from 1, so real
// runs stay far below it; synthetic ids beyond the bound fall back to a
// per-traversal map rather than forcing a giant allocation.
const maxDenseObj = 1 << 26

// Queue is the affinity queue of §4.1 (Figure 5): a window over the most
// recent heap accesses, implicitly sized by the affinity distance A. Two
// entries are affinitive when the sizes of the entries strictly between
// them sum to less than A bytes.
type Queue struct {
	dist  uint64 // the affinity distance A
	graph *Graph
	inter Interference

	entries []Access // oldest first
	head    int      // index of the oldest live entry
	bytes   uint64   // total size of live entries

	// Double-counting suppression is generation-stamped: each traversal
	// bumps gen, and an object is "seen" when its stamp matches. This
	// replaces a per-access map clear with one integer increment, and the
	// dense array keeps marking to a single indexed store.
	//
	// seenGen grows with the highest serial marked — 4 bytes per
	// allocation issued, a quarter of the profiler's own per-serial
	// links — and is deliberately never shrunk: serials only increase, so
	// a smaller array would be reallocated on the next traversal, and a
	// window-bounded set would push long-lived hot objects (old serials,
	// touched every traversal) onto the slow map.
	gen     uint32
	seenGen []uint32          // object serial -> generation last seen
	seenBig map[uint64]uint32 // overflow for ids >= maxDenseObj

	// Pairs counts affinitive pairs recorded, for diagnostics.
	Pairs uint64
}

// NewQueue builds a queue feeding the given graph. dist is the affinity
// distance A in bytes (the paper evaluates 2^3..2^17 and selects 128).
func NewQueue(dist uint64, graph *Graph, inter Interference) *Queue {
	return &Queue{
		dist:  dist,
		graph: graph,
		inter: inter,
	}
}

// beginTraversal starts a new seen-generation, invalidating every stamp
// from prior traversals in O(1). The uint32 generation wraps after 2^32-1
// traversals; on wrap every stale stamp is zeroed so no old stamp can
// alias the restarted counter.
func (q *Queue) beginTraversal() {
	q.gen++
	if q.gen == 0 {
		clear(q.seenGen)
		clear(q.seenBig)
		q.gen = 1
	}
}

// markSeen stamps an object as counted in the current traversal.
func (q *Queue) markSeen(obj uint64) {
	if obj < maxDenseObj {
		if int(obj) >= len(q.seenGen) {
			n := len(q.seenGen) * 2
			if n <= int(obj) {
				n = int(obj) + 1
			}
			grown := make([]uint32, n)
			copy(grown, q.seenGen)
			q.seenGen = grown
		}
		q.seenGen[obj] = q.gen
		return
	}
	if q.seenBig == nil {
		q.seenBig = make(map[uint64]uint32)
	}
	q.seenBig[obj] = q.gen
}

// seen reports whether the object was already counted in this traversal.
func (q *Queue) seen(obj uint64) bool {
	if obj < maxDenseObj {
		return int(obj) < len(q.seenGen) && q.seenGen[obj] == q.gen
	}
	return q.seenBig[obj] == q.gen
}

// Push observes one machine-level access. Consecutive accesses to a single
// object are part of the same macro-level access and do not re-trigger
// traversal (the deduplication constraint). Steady-state pushes allocate
// nothing: the entry window slides back to the front of its backing array,
// and the dedup stamps and the graph reuse theirs.
func (q *Queue) Push(a Access) {
	if n := len(q.entries); n > q.head && q.entries[n-1].Obj == a.Obj {
		return
	}
	q.graph.AddAccess(a.Ctx)

	// Traverse from newest to oldest. `between` accumulates the sizes of
	// the entries strictly between the candidate and the new access.
	q.beginTraversal()
	var between uint64
	for i := len(q.entries) - 1; i >= q.head && between < q.dist; i-- {
		cand := q.entries[i]
		if q.affinitive(a, cand) {
			q.graph.AddEdge(a.Ctx, cand.Ctx, 1)
			q.Pairs++
		}
		q.markSeen(cand.Obj)
		between += uint64(cand.Size)
	}

	// Append and evict entries that can never be affinitive again: those
	// with at least A bytes of newer entries in front of them.
	q.entries = append(q.entries, a)
	q.bytes += uint64(a.Size)
	for q.head < len(q.entries) && q.bytes-uint64(q.entries[q.head].Size) >= q.dist {
		q.bytes -= uint64(q.entries[q.head].Size)
		q.head++
	}
	q.compact()
}

// compact bounds the backing array. Two triggers: a bursty phase left
// capacity far beyond the live window, which re-allocates at the window
// size so the burst's memory is actually released; or the dead prefix
// dominates the slice, which slides the live window to the front of the
// same backing array.
func (q *Queue) compact() {
	live := len(q.entries) - q.head
	switch {
	case q.head > 0 && cap(q.entries) >= 4096 && live*4 < cap(q.entries):
		q.entries = append(q.entries[:0:0], q.entries[q.head:]...)
	case q.head > 1024 && q.head > live:
		q.entries = q.entries[:copy(q.entries, q.entries[q.head:])]
	default:
		return
	}
	q.head = 0
}

// affinitive applies the paper's constraints to a candidate pair (u = the
// new access, v = the queue entry).
func (q *Queue) affinitive(u, v Access) bool {
	// No self-affinity: objects occupy a single memory location.
	if u.Obj == v.Obj {
		return false
	}
	// No double counting: each unique object at most once per traversal.
	if q.seen(v.Obj) {
		return false
	}
	// Co-allocatability: no allocation made chronologically between u and
	// v may originate from either context, otherwise the pair could not
	// actually be co-located by contiguous pool allocation.
	lo, hi := min(u.Obj, v.Obj), max(u.Obj, v.Obj)
	return q.inter == nil || hi == lo+1 || !q.inter.Interferes(lo, hi)
}

// Len reports the live entry count.
func (q *Queue) Len() int { return len(q.entries) - q.head }

// Bytes reports the live entry bytes (the queue's implicit size).
func (q *Queue) Bytes() uint64 { return q.bytes }
