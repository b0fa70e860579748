package cache

import (
	"testing"

	"halo/internal/vm"
)

// drainSpares empties the spare channel, so the next New allocates.
func drainSpares() {
	for {
		select {
		case <-spares:
		default:
			return
		}
	}
}

// oddConfig is a small hierarchy with a direct-mapped L1D, 3-way L2, L3
// and STLB, and a two-entry direct-mapped DTLB: every set fills and
// evicts within a short stream, and a direct-mapped set can only ever be
// recorded once.
func oddConfig() Config {
	return Config{
		L1:         LevelConfig{Size: 8 * LineSize, Ways: 1, Latency: 1},
		L2:         LevelConfig{Size: 3 * 32 * LineSize, Ways: 3, Latency: 7},
		L3:         LevelConfig{Size: 3 * 256 * LineSize, Ways: 3, Latency: 20},
		TLB:        TLBConfig{Entries: 2, Ways: 1, PageBits: 10, Penalty: 5},
		STLB:       TLBConfig{Entries: 6, Ways: 3, PageBits: 10, Penalty: 40},
		MemLatency: 90,
		Prefetch:   true,
		BaseCPI:    0.7,
		ClockGHz:   2,
	}
}

// accessStream returns n access events from a xorshift generator over a
// 2^spanBits-byte range: mixed sizes, same-line repeats, line and page
// straddles, and a few non-access records.
func accessStream(seed uint64, n int, spanBits uint) []vm.Event {
	rng := seed | 1
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	evs := make([]vm.Event, 0, n)
	var addr uint64
	for i := 0; i < n; i++ {
		switch r := next(); {
		case r%8 == 0: // same line again
		case r%16 == 1:
			addr = addr&^(LineSize-1) | (LineSize - 2) // straddle a line
		case r%32 == 3:
			addr = addr&^0x3ff | 0x3fe // straddle a 1 KiB page
		default:
			addr = next() & (1<<spanBits - 1)
		}
		kind := vm.EvAccess
		if next()%32 == 0 {
			kind = vm.EvCall
		}
		evs = append(evs, vm.Event{Kind: kind, Addr: addr, Size: uint8(1 << (next() % 4))})
	}
	return evs
}

// FuzzHierarchyReuse: a hierarchy released after one access stream and
// taken back by New must be indistinguishable from a new one, every slot
// empty, and give the same stats and cycles on a second stream. The
// streams are long enough on the Xeon geometry to cover both resets:
// clearing only the listed sets, and clearing everything once more than
// a quarter of a level's sets were used.
func FuzzHierarchyReuse(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint16(300), uint16(300), uint8(12), false)
	f.Add(uint64(3), uint64(4), uint16(5000), uint16(2000), uint8(20), false)
	f.Add(uint64(5), uint64(6), uint16(0), uint16(100), uint8(8), false)
	f.Add(uint64(7), uint64(8), uint16(3000), uint16(3000), uint8(22), true)
	f.Add(uint64(9), uint64(10), uint16(40000), uint16(20000), uint8(26), true)
	f.Fuzz(func(t *testing.T, seedA, seedB uint64, nA, nB uint16, spanBits uint8, xeon bool) {
		cfg := oddConfig()
		if xeon {
			cfg = XeonW2195()
		}
		span := 6 + uint(spanBits)%28
		drainSpares()
		h := New(cfg)
		h.ConsumeEvents(accessStream(seedA, int(nA), span))
		h.Release()
		reused := New(cfg)
		if reused != h {
			t.Fatal("New did not take the released hierarchy")
		}
		for _, c := range []*lru{&reused.l1, &reused.l2, &reused.l3, &reused.tlb, &reused.stlb} {
			if len(c.used) != 0 {
				t.Fatalf("reset left %d used sets listed", len(c.used))
			}
			for i, s := range c.slots {
				if s != 0 {
					t.Fatalf("reset left slot %d of a %d-set level holding %d", i, c.mask+1, s-1)
				}
			}
		}
		fresh := New(cfg)
		evs := accessStream(seedB, int(nB), span)
		reused.ConsumeEvents(evs)
		fresh.ConsumeEvents(evs)
		if got, want := reused.Stats(), fresh.Stats(); got != want {
			t.Fatalf("reused stats %+v, new %+v", got, want)
		}
		if got, want := reused.Cycles(uint64(nB)), fresh.Cycles(uint64(nB)); got != want {
			t.Fatalf("reused cycles %d, new %d", got, want)
		}
	})
}

// TestNewAllocations pins the flat layout: a full Xeon W-2195 hierarchy
// is a handful of allocations, not one per cache set, and taking a
// released one allocates nothing.
func TestNewAllocations(t *testing.T) {
	cfg := XeonW2195()
	if n := testing.AllocsPerRun(5, func() { drainSpares(); New(cfg) }); n > 16 {
		t.Fatalf("cache.New made %.0f allocations, want <= 16", n)
	}
	New(cfg).Release()
	if n := testing.AllocsPerRun(5, func() { New(cfg).Release() }); n != 0 {
		t.Fatalf("cache.New of a released hierarchy made %.0f allocations, want 0", n)
	}
}

// BenchmarkHierarchyNew times one run's use of a Xeon W-2195 hierarchy:
// New, a stream that touches about as many sets as a test-scale
// workload's measured run, and for "reused" the Release that hands it to
// the next iteration. "fresh" allocates each time, so its figure includes
// first-touch page faults of the new slots.
func BenchmarkHierarchyNew(b *testing.B) {
	cfg := XeonW2195()
	evs := accessStream(11, 4000, 22)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			drainSpares()
			New(cfg).ConsumeEvents(evs)
		}
	})
	b.Run("reused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h := New(cfg)
			h.ConsumeEvents(evs)
			h.Release()
		}
	})
}
