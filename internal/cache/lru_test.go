package cache

import "testing"

// listLRU is the reference model for lru: one MRU-first list of keys per
// set, kept with plain slice operations.
type listLRU struct {
	sets  [][]uint64
	ways  int
	stats LevelStats
}

func newListLRU(sets, ways int) *listLRU {
	return &listLRU{sets: make([][]uint64, sets), ways: ways}
}

func (m *listLRU) access(key uint64, count bool) bool {
	si := key % uint64(len(m.sets))
	set := m.sets[si]
	if count {
		m.stats.Accesses++
	}
	for i, k := range set {
		if k == key {
			m.sets[si] = append([]uint64{key}, append(set[:i:i], set[i+1:]...)...)
			if count {
				m.stats.Hits++
			}
			return true
		}
	}
	if count {
		m.stats.Misses++
	}
	set = append([]uint64{key}, set...)
	if len(set) > m.ways {
		set = set[:m.ways]
	}
	m.sets[si] = set
	return false
}

func (m *listLRU) contains(key uint64) bool {
	for _, k := range m.sets[key%uint64(len(m.sets))] {
		if k == key {
			return true
		}
	}
	return false
}

// TestLRUMatchesListModel drives the flat lru and the list model with the
// same random key stream — counted lookups mixed with uncounted
// (prefetch) fills and residency probes — and compares every outcome and
// the stats after every step.
func TestLRUMatchesListModel(t *testing.T) {
	shapes := []struct{ sets, ways int }{
		{1, 1}, {1, 4}, {4, 2}, {8, 8}, {16, 11}, {32, 12}, {64, 16},
	}
	for _, sh := range shapes {
		c := newLRU(sh.sets*sh.ways, sh.ways)
		if got := int(c.mask + 1); got != sh.sets {
			t.Fatalf("%d×%d: built %d sets", sh.sets, sh.ways, got)
		}
		ref := newListLRU(sh.sets, sh.ways)
		rng := uint64(sh.sets*131 + sh.ways)
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		// Enough distinct keys to overflow every set, few enough to hit.
		keyspace := uint64(sh.sets * (sh.ways + 3))
		for step := 0; step < 20000; step++ {
			key := next() % keyspace
			if next()%8 == 0 {
				key = ^uint64(0) >> LineShift // the largest line number
			}
			op := next() % 8
			if op == 0 {
				if got, want := c.contains(key), ref.contains(key); got != want {
					t.Fatalf("%d×%d step %d: contains(%d) = %v, want %v", sh.sets, sh.ways, step, key, got, want)
				}
				continue
			}
			count := op != 1 // one in eight is an uncounted prefetch fill
			if got, want := c.access(key, count), ref.access(key, count); got != want {
				t.Fatalf("%d×%d step %d: access(%d, %v) hit = %v, want %v", sh.sets, sh.ways, step, key, count, got, want)
			}
			if c.stats != ref.stats {
				t.Fatalf("%d×%d step %d: stats %+v, want %+v", sh.sets, sh.ways, step, c.stats, ref.stats)
			}
		}
		// Final contents agree set for set, MRU first, empties at the tail.
		for si, want := range ref.sets {
			got := c.slots[si*sh.ways : (si+1)*sh.ways]
			for i := range got {
				var w uint64
				if i < len(want) {
					w = want[i] + 1
				}
				if got[i] != w {
					t.Fatalf("%d×%d set %d: slots %v, want keys %v", sh.sets, sh.ways, si, got, want)
				}
			}
		}
	}
}
