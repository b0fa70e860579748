package cache

import (
	"testing"

	"halo/internal/vm"
)

func smallConfig() Config {
	return Config{
		L1:         LevelConfig{Size: 1 << 10, Ways: 2, Latency: 0}, // 8 sets
		L2:         LevelConfig{Size: 8 << 10, Ways: 4, Latency: 10},
		L3:         LevelConfig{Size: 64 << 10, Ways: 8, Latency: 30},
		TLB:        TLBConfig{Entries: 4, Ways: 2, PageBits: 12, Penalty: 9},
		STLB:       TLBConfig{Entries: 16, Ways: 4, PageBits: 12, Penalty: 70},
		MemLatency: 100,
		BaseCPI:    0.5,
		ClockGHz:   1,
	}
}

// access is the per-access path ConsumeEvents must match: one program load
// or store run through the hierarchy, its stall cycles and DRAM accesses
// charged at once. Accesses that straddle a line boundary touch both
// lines, as on real hardware.
func (h *Hierarchy) access(addr uint64, size uint8) {
	stall, mem := h.accessStall(addr, size)
	h.stallCycle += stall
	h.memAccess += mem
}

func TestColdMissThenHit(t *testing.T) {
	h := New(smallConfig())
	h.access(0x1000, 8)
	s := h.Stats()
	if s.L1D.Misses != 1 || s.L1D.Hits != 0 {
		t.Fatalf("cold access: %+v", s.L1D)
	}
	h.access(0x1000, 8)
	s = h.Stats()
	if s.L1D.Hits != 1 {
		t.Fatalf("warm access missed: %+v", s.L1D)
	}
}

func TestSameLineSharing(t *testing.T) {
	h := New(smallConfig())
	h.access(0x1000, 8)
	h.access(0x1008, 8) // same 64-byte line
	s := h.Stats()
	if s.L1D.Misses != 1 || s.L1D.Hits != 1 {
		t.Fatalf("line sharing broken: %+v", s.L1D)
	}
}

func TestLineStraddle(t *testing.T) {
	h := New(smallConfig())
	h.access(0x103C, 8) // crosses the 0x1040 line boundary
	s := h.Stats()
	if s.L1D.Accesses != 2 {
		t.Fatalf("straddling access touched %d lines, want 2", s.L1D.Accesses)
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := smallConfig()
	cfg.Prefetch = false
	h := New(cfg)
	// L1: 8 sets x 2 ways. Three lines in the same set evict the LRU.
	setStride := uint64(8 * 64)
	a, b, c := uint64(0), setStride, 2*setStride
	h.access(a, 8)
	h.access(b, 8)
	h.access(c, 8) // evicts a
	h.access(b, 8) // hit
	h.access(a, 8) // miss again
	s := h.Stats()
	if s.L1D.Misses != 4 || s.L1D.Hits != 1 {
		t.Fatalf("LRU behaviour: %+v", s.L1D)
	}
}

func TestMissPathReachesMemory(t *testing.T) {
	cfg := smallConfig()
	cfg.Prefetch = false
	h := New(cfg)
	h.access(0x5000, 8)
	s := h.Stats()
	if s.L2.Misses != 1 || s.L3.Misses != 1 || s.Mem != 1 {
		t.Fatalf("miss path: %+v", s)
	}
	// A second access hits in L1; lower levels see no traffic.
	h.access(0x5000, 8)
	s2 := h.Stats()
	if s2.L2.Accesses != s.L2.Accesses {
		t.Fatal("L1 hit leaked to L2")
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	cfg := smallConfig()
	cfg.Prefetch = false
	h := New(cfg)
	// Fill one L1 set with 3 lines; the first goes to L2-only residence.
	setStride := uint64(8 * 64)
	for i := uint64(0); i < 3; i++ {
		h.access(i*setStride, 8)
	}
	before := h.Stats().L2.Hits
	h.access(0, 8) // L1 miss, L2 hit
	if h.Stats().L2.Hits != before+1 {
		t.Fatalf("expected L2 hit: %+v", h.Stats())
	}
}

func TestPrefetchNextLine(t *testing.T) {
	cfg := smallConfig()
	cfg.Prefetch = true
	h := New(cfg)
	h.access(0x8000, 8) // miss; prefetches 0x8040 into L2
	h.access(0x8040, 8) // L1 miss but L2 hit thanks to prefetch
	s := h.Stats()
	if s.L2.Hits == 0 {
		t.Fatalf("prefetch ineffective: %+v", s)
	}
	if s.Mem != 1 {
		t.Fatalf("memory accesses = %d, want 1 (prefetch is free)", s.Mem)
	}
}

func TestTLBTwoLevels(t *testing.T) {
	h := New(smallConfig())
	// Touch 5 pages: DTLB (4 entries) overflows, STLB (16) holds all.
	for p := uint64(0); p < 5; p++ {
		h.access(p*4096, 8)
	}
	base := h.StallCycles()
	// Revisit page 0: the DTLB misses but the STLB holds the entry, so
	// no full page walk (70 cycles) is charged.
	h.access(0, 8)
	delta := h.StallCycles() - base
	if delta >= 70 {
		t.Fatalf("page walk charged (%d cycles) despite STLB residency", delta)
	}
	s := h.Stats()
	if s.TLB.Misses == 0 {
		t.Fatal("no DTLB misses recorded")
	}
	if s.STLB.Misses != 5 {
		t.Fatalf("STLB cold misses = %d, want 5", s.STLB.Misses)
	}
	if s.STLB.Hits == 0 {
		t.Fatal("revisit did not hit the STLB")
	}
}

func TestCycleModelMonotone(t *testing.T) {
	h := New(smallConfig())
	c0 := h.Cycles(1000)
	h.access(0x9000, 8) // adds stall cycles
	c1 := h.Cycles(1000)
	if c1 <= c0 {
		t.Fatalf("stalls did not increase cycles: %d -> %d", c0, c1)
	}
	if h.Seconds(1000) <= 0 {
		t.Fatal("seconds not positive")
	}
}

func TestXeonW2195Geometry(t *testing.T) {
	cfg := XeonW2195()
	h := New(cfg)
	if sets := h.l1.mask + 1; sets != 64 {
		t.Fatalf("L1 sets = %d, want 64 (32KiB/64B/8-way)", sets)
	}
	if sets := h.l2.mask + 1; sets != 1024 {
		t.Fatalf("L2 sets = %d, want 1024", sets)
	}
	if cfg.L3.Size != 25344<<10 {
		t.Fatalf("L3 size = %d", cfg.L3.Size)
	}
	// 25,344 KiB / 64 B / 11 ways is 36,864 sets; rounding down to a
	// power of two keeps 32,768 of them.
	if sets := h.l3.mask + 1; sets != 32768 {
		t.Fatalf("L3 sets = %d, want 32768", sets)
	}
	for _, c := range []*lru{&h.l1, &h.l2, &h.l3, &h.tlb, &h.stlb} {
		if len(c.slots) != int(c.mask+1)*c.ways {
			t.Fatalf("slots = %d, want sets×ways = %d", len(c.slots), int(c.mask+1)*c.ways)
		}
	}
}

func TestStatsString(t *testing.T) {
	h := New(smallConfig())
	h.access(0, 8)
	if s := h.Stats().String(); len(s) == 0 {
		t.Fatal("empty stats string")
	}
}

func TestBatchedConsumeMatchesPerAccess(t *testing.T) {
	// The batched ConsumeEvents path accumulates stall/DRAM charges in
	// locals and writes them back once per batch; it must land on exactly
	// the same counters as charging every access individually.
	mkEvents := func() []vm.Event {
		rng := uint64(42)
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		evs := make([]vm.Event, 0, 20000)
		for i := 0; i < 20000; i++ {
			// Mix of hot lines, straddles and page-crossing strides.
			addr := (next() % (1 << 20)) &^ 1
			size := uint8(1 << (next() % 4))
			if next()%16 == 0 {
				addr = addr&^0xfff | 0xffe // straddle a page boundary
			}
			kind := vm.EvAccess
			if next()%32 == 0 {
				kind = vm.EvCall // non-access records must be ignored
			}
			evs = append(evs, vm.Event{Kind: kind, Addr: addr, Size: size, Write: next()%3 == 0})
		}
		return evs
	}

	ref := New(smallConfig())
	for _, ev := range mkEvents() {
		if ev.Kind == vm.EvAccess {
			ref.access(ev.Addr, ev.Size)
		}
	}

	for _, batchSize := range []int{1, 64, 4096} {
		h := New(smallConfig())
		evs := mkEvents()
		for len(evs) > 0 {
			n := batchSize
			if n > len(evs) {
				n = len(evs)
			}
			h.ConsumeEvents(evs[:n])
			evs = evs[n:]
		}
		if h.Stats() != ref.Stats() {
			t.Errorf("batch=%d: stats diverge:\n got %+v\nwant %+v", batchSize, h.Stats(), ref.Stats())
		}
		if h.StallCycles() != ref.StallCycles() {
			t.Errorf("batch=%d: stalls %d, want %d", batchSize, h.StallCycles(), ref.StallCycles())
		}
	}
}

func TestBatchedSameLineRuns(t *testing.T) {
	// Runs of accesses to one line — the case the batched path charges
	// as L1D+DTLB hits without a lookup — broken by line straddles,
	// set-colliding lines, page changes and non-access records. Totals
	// must match the per-access reference exactly, also with a nonzero
	// L1 latency and with pages smaller than a line (shortcut off).
	mkEvents := func() []vm.Event {
		evs := make([]vm.Event, 0, 20000)
		base := uint64(0x20_0000)
		for r := 0; r < 200; r++ {
			line := base + uint64(r%13)*0x440 // wanders over sets and pages
			for i := 0; i < 40; i++ {
				size := uint8(1 << (i % 4))
				evs = append(evs, vm.Event{Kind: vm.EvAccess, Addr: line + uint64(i*8)%(64-uint64(size)), Size: size, Write: i%3 == 0})
				if i%9 == 0 {
					evs = append(evs, vm.Event{Kind: vm.EvCall, Addr: line + 4096})
				}
			}
			// Line straddle: two lines, so the next access takes the full path.
			evs = append(evs, vm.Event{Kind: vm.EvAccess, Addr: line + 124, Size: 8})
			evs = append(evs, vm.Event{Kind: vm.EvAccess, Addr: line + 128, Size: 8})
			// Same L1 set, different line: evicts the run's line in time.
			evs = append(evs, vm.Event{Kind: vm.EvAccess, Addr: line + 1<<10, Size: 8})
			evs = append(evs, vm.Event{Kind: vm.EvAccess, Addr: line + 2<<10, Size: 8})
			evs = append(evs, vm.Event{Kind: vm.EvAccess, Addr: line, Size: 8})
		}
		return evs
	}

	slow := smallConfig()
	slow.L1.Latency = 4
	tiny := smallConfig()
	tiny.TLB.PageBits, tiny.STLB.PageBits = 5, 5
	for name, cfg := range map[string]Config{"small": smallConfig(), "l1-latency": slow, "tiny-pages": tiny} {
		ref := New(cfg)
		for _, ev := range mkEvents() {
			if ev.Kind == vm.EvAccess {
				ref.access(ev.Addr, ev.Size)
			}
		}
		for _, batchSize := range []int{1, 7, 4096} {
			h := New(cfg)
			evs := mkEvents()
			for len(evs) > 0 {
				n := min(batchSize, len(evs))
				h.ConsumeEvents(evs[:n])
				evs = evs[n:]
			}
			if h.Stats() != ref.Stats() {
				t.Errorf("%s batch=%d: stats diverge:\n got %+v\nwant %+v", name, batchSize, h.Stats(), ref.Stats())
			}
			if h.StallCycles() != ref.StallCycles() {
				t.Errorf("%s batch=%d: stalls %d, want %d", name, batchSize, h.StallCycles(), ref.StallCycles())
			}
		}
	}
}

func TestBatchedSharedTranslationRuns(t *testing.T) {
	// Dense same-page runs — the case the batched path serves via the
	// shared translation (MRU repeat-hit) instead of a TLB set scan —
	// interleaved with page straddles and slot-colliding strides. Totals
	// must match the per-access reference exactly.
	mkEvents := func() []vm.Event {
		evs := make([]vm.Event, 0, 12000)
		base := uint64(0x10_0000)
		for r := 0; r < 100; r++ {
			page := base + uint64(r%7)*0x1000
			for i := 0; i < 50; i++ { // long same-page run
				evs = append(evs, vm.Event{Kind: vm.EvAccess, Addr: page + uint64(i*8)%0xff8, Size: 8})
			}
			// Page straddle: translates two pages, leaves the second MRU.
			evs = append(evs, vm.Event{Kind: vm.EvAccess, Addr: page + 0xffe, Size: 4})
			// Immediately touch the straddle's second page: fast path again.
			evs = append(evs, vm.Event{Kind: vm.EvAccess, Addr: page + 0x1000, Size: 8})
			// Colliding stride: same TLB set, different page.
			evs = append(evs, vm.Event{Kind: vm.EvAccess, Addr: page + 64*0x1000, Size: 8})
		}
		return evs
	}

	ref := New(smallConfig())
	for _, ev := range mkEvents() {
		ref.access(ev.Addr, ev.Size)
	}
	for _, batchSize := range []int{1, 64, 4096} {
		h := New(smallConfig())
		evs := mkEvents()
		for len(evs) > 0 {
			n := batchSize
			if n > len(evs) {
				n = len(evs)
			}
			h.ConsumeEvents(evs[:n])
			evs = evs[n:]
		}
		if h.Stats() != ref.Stats() {
			t.Errorf("batch=%d: stats diverge:\n got %+v\nwant %+v", batchSize, h.Stats(), ref.Stats())
		}
		if h.StallCycles() != ref.StallCycles() {
			t.Errorf("batch=%d: stalls %d, want %d", batchSize, h.StallCycles(), ref.StallCycles())
		}
	}
}
