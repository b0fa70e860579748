// Package cache simulates the memory hierarchy of the paper's evaluation
// machine — an Intel Xeon W-2195 with 32 KiB 8-way L1 data caches, 1 MiB
// 16-way L2 caches, and a 25,344 KiB shared L3 — together with a data TLB
// and a next-line prefetcher. It substitutes for the hardware performance
// counters the paper reads: the harness reports L1D misses (Figure 13) and
// a cycle-based execution-time model (Figures 12, 14, 15).
//
// The model is deliberately simple but captures what the paper's
// optimisation changes: which cache lines and pages the program's heap
// accesses touch. Placement that packs related objects into fewer lines
// produces fewer misses here for exactly the reason it does on hardware.
package cache

import (
	"fmt"

	"halo/internal/vm"
)

// LineSize is the cache line size in bytes.
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// LevelConfig describes one cache level.
type LevelConfig struct {
	Name    string
	Size    uint64 // total bytes
	Ways    int
	Latency uint64 // extra cycles charged when the access is satisfied here
}

// Level is a set-associative, write-allocate cache with LRU replacement.
type Level struct {
	cfg   LevelConfig
	sets  int
	mask  uint64
	tags  [][]uint64 // per set, MRU-first line addresses
	stats LevelStats
}

// LevelStats counts per-level traffic.
type LevelStats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// MissRate returns misses per access.
func (s LevelStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// NewLevel builds a cache level.
func NewLevel(cfg LevelConfig) *Level {
	sets := int(cfg.Size) / LineSize / cfg.Ways
	if sets <= 0 {
		sets = 1
	}
	// Round sets down to a power of two for cheap indexing.
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	l := &Level{cfg: cfg, sets: p, mask: uint64(p - 1)}
	l.tags = make([][]uint64, p)
	for i := range l.tags {
		l.tags[i] = make([]uint64, 0, cfg.Ways)
	}
	return l
}

// access looks up the line (already shifted address) and installs it on
// miss. Returns true on hit. When an eviction occurs the victim line is
// returned for lower levels.
func (l *Level) access(line uint64, count bool) (hit bool) {
	set := l.tags[line&l.mask]
	if count {
		l.stats.Accesses++
	}
	for i, t := range set {
		if t == line {
			// Move to MRU.
			copy(set[1:i+1], set[:i])
			set[0] = line
			if count {
				l.stats.Hits++
			}
			return true
		}
	}
	if count {
		l.stats.Misses++
	}
	// Install as MRU, evicting LRU if full.
	if len(set) < l.cfg.Ways {
		set = append(set, 0)
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = line
	l.tags[line&l.mask] = set
	return false
}

// Contains reports whether the line is resident (no state change).
func (l *Level) Contains(line uint64) bool {
	for _, t := range l.tags[line&l.mask] {
		if t == line {
			return true
		}
	}
	return false
}

// Stats returns the level's counters.
func (l *Level) Stats() LevelStats { return l.stats }

// Name returns the level's configured name.
func (l *Level) Name() string { return l.cfg.Name }

// TLBConfig describes a translation cache level.
type TLBConfig struct {
	Entries  int
	Ways     int
	PageBits uint
	Penalty  uint64 // cycles charged when the lookup is satisfied below
}

// TLB is a set-associative translation cache over page numbers.
type TLB struct {
	cfg   TLBConfig
	sets  int
	mask  uint64
	tags  [][]uint64
	stats LevelStats
}

// NewTLB builds a TLB.
func NewTLB(cfg TLBConfig) *TLB {
	sets := cfg.Entries / cfg.Ways
	if sets <= 0 {
		sets = 1
	}
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	t := &TLB{cfg: cfg, sets: p, mask: uint64(p - 1)}
	t.tags = make([][]uint64, p)
	return t
}

func (t *TLB) access(page uint64) bool {
	set := t.tags[page&t.mask]
	t.stats.Accesses++
	for i, tag := range set {
		if tag == page {
			copy(set[1:i+1], set[:i])
			set[0] = page
			t.stats.Hits++
			return true
		}
	}
	t.stats.Misses++
	if len(set) < t.cfg.Ways {
		set = append(set, 0)
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = page
	t.tags[page&t.mask] = set
	return false
}

// Stats returns the TLB counters.
func (t *TLB) Stats() LevelStats { return t.stats }

// Config describes the whole hierarchy.
type Config struct {
	L1, L2, L3  LevelConfig
	TLB         TLBConfig // first-level DTLB
	STLB        TLBConfig // unified second-level TLB; Entries=0 disables
	MemLatency  uint64    // cycles for a DRAM access
	Prefetch    bool      // next-line prefetch into L2 on L2 miss
	PrefetchDeg int       // lines prefetched ahead (default 1)
	BaseCPI     float64
	ClockGHz    float64
}

// XeonW2195 returns the evaluation machine's parameters (§5.1): 32 KiB
// per-core L1D, 1,024 KiB per-core L2, 25,344 KiB shared L3. Latencies and
// the base CPI approximate Skylake-SP single-thread behaviour.
func XeonW2195() Config {
	return Config{
		L1:          LevelConfig{Name: "L1D", Size: 32 << 10, Ways: 8, Latency: 0},
		L2:          LevelConfig{Name: "L2", Size: 1024 << 10, Ways: 16, Latency: 12},
		L3:          LevelConfig{Name: "L3", Size: 25344 << 10, Ways: 11, Latency: 38},
		TLB:         TLBConfig{Entries: 64, Ways: 4, PageBits: 12, Penalty: 9},
		STLB:        TLBConfig{Entries: 1536, Ways: 12, PageBits: 12, Penalty: 70},
		MemLatency:  180,
		Prefetch:    true,
		PrefetchDeg: 1,
		BaseCPI:     0.45,
		ClockGHz:    3.7,
	}
}

// Hierarchy simulates the full data-side memory system.
type Hierarchy struct {
	cfg  Config
	l1   *Level
	l2   *Level
	l3   *Level
	tlb  *TLB
	stlb *TLB

	memAccess  uint64
	stallCycle uint64
}

// New builds a hierarchy from the config.
func New(cfg Config) *Hierarchy {
	if cfg.PrefetchDeg == 0 {
		cfg.PrefetchDeg = 1
	}
	h := &Hierarchy{
		cfg: cfg,
		l1:  NewLevel(cfg.L1),
		l2:  NewLevel(cfg.L2),
		l3:  NewLevel(cfg.L3),
		tlb: NewTLB(cfg.TLB),
	}
	if cfg.STLB.Entries > 0 {
		h.stlb = NewTLB(cfg.STLB)
	}
	return h
}

// Access runs one program load or store through the hierarchy, charging
// stall cycles for the miss path. Accesses that straddle a line boundary
// touch both lines, as on real hardware.
func (h *Hierarchy) Access(addr uint64, size uint8, write bool) {
	stall, mem := h.accessStall(addr, size)
	h.stallCycle += stall
	h.memAccess += mem
}

// accessStall simulates one access and returns the stall cycles and DRAM
// accesses it cost instead of charging them, so batch consumers can
// accumulate the charges in locals and write them back once per batch.
// Level and TLB hit/miss counters still update in place: they are updated
// exactly once per lookup either way, so their totals are bit-identical.
func (h *Hierarchy) accessStall(addr uint64, size uint8) (stall, mem uint64) {
	stall, mem = h.linesStall(addr, size)
	page := addr >> h.cfg.TLB.PageBits
	stall += h.translate(page)
	if lastPage := (addr + uint64(size) - 1) >> h.cfg.TLB.PageBits; lastPage != page {
		stall += h.translate(lastPage)
	}
	return stall, mem
}

// linesStall charges the cache-line side of one access (no translation).
func (h *Hierarchy) linesStall(addr uint64, size uint8) (stall, mem uint64) {
	first := addr >> LineShift
	last := (addr + uint64(size) - 1) >> LineShift
	for line := first; line <= last; line++ {
		s, m := h.accessLine(line)
		stall += s
		mem += m
	}
	return stall, mem
}

// ConsumeEvents implements vm.EventSink: the hierarchy drains the VM's
// batched event stream directly, simulating each load and store in batch
// order and ignoring the non-access records. The hierarchy-wide charge
// counters accumulate in locals across the whole batch and are written
// back once, so the hot loop's read-modify-write traffic on the Hierarchy
// stays out of the per-event path.
//
// Page translation is shared across the batch, mirroring the VM's software
// TLB on the execution side: after an access translates page P, P sits at
// the MRU slot of its DTLB set, so a repeat lookup by the next access is a
// guaranteed hit whose MRU move is a no-op. Runs of same-page accesses —
// the common case the VM's own TLB exploits — therefore charge the hit
// counters directly and skip the set scan, with totals provably
// bit-identical to the per-access path (TestBatchedConsumeMatchesPerAccess
// pins this).
func (h *Hierarchy) ConsumeEvents(batch []vm.Event) {
	var stall, mem uint64
	last := ^uint64(0) // most recently translated page; ^0 = none yet
	pb := h.cfg.TLB.PageBits
	for i := range batch {
		ev := &batch[i]
		if ev.Kind != vm.EvAccess {
			continue
		}
		page := ev.Addr >> pb
		if end := (ev.Addr + uint64(ev.Size) - 1) >> pb; page == last && end == page {
			h.tlb.stats.Accesses++
			h.tlb.stats.Hits++
			s, m := h.linesStall(ev.Addr, ev.Size)
			stall += s
			mem += m
			continue
		}
		s, m := h.accessStall(ev.Addr, ev.Size)
		stall += s
		mem += m
		last = (ev.Addr + uint64(ev.Size) - 1) >> pb
	}
	h.stallCycle += stall
	h.memAccess += mem
}

// translate returns the DTLB penalty on a first-level miss and the full
// page-walk penalty when the second-level TLB misses too.
func (h *Hierarchy) translate(page uint64) (stall uint64) {
	if h.tlb.access(page) {
		return 0
	}
	if h.stlb != nil {
		if h.stlb.access(page) {
			return h.cfg.TLB.Penalty
		}
		return h.cfg.STLB.Penalty
	}
	return h.cfg.TLB.Penalty
}

func (h *Hierarchy) accessLine(line uint64) (stall, mem uint64) {
	if h.l1.access(line, true) {
		return h.cfg.L1.Latency, 0
	}
	if h.l2.access(line, true) {
		return h.cfg.L2.Latency, 0
	}
	if h.l3.access(line, true) {
		stall = h.cfg.L3.Latency
	} else {
		stall = h.cfg.MemLatency
		mem = 1
	}
	if h.cfg.Prefetch {
		// Next-line prefetcher at L2: on an L2 miss, pull the following
		// line(s) into L2/L3 without charging stall cycles.
		for d := 1; d <= h.cfg.PrefetchDeg; d++ {
			next := line + uint64(d)
			if !h.l2.Contains(next) {
				h.l2.access(next, false)
				h.l3.access(next, false)
			}
		}
	}
	return stall, mem
}

// Stats aggregates the hierarchy's counters.
type Stats struct {
	L1D  LevelStats
	L2   LevelStats
	L3   LevelStats
	TLB  LevelStats
	STLB LevelStats
	Mem  uint64 // DRAM accesses
}

// Stats returns a snapshot of all counters.
func (h *Hierarchy) Stats() Stats {
	st := Stats{
		L1D: h.l1.Stats(),
		L2:  h.l2.Stats(),
		L3:  h.l3.Stats(),
		TLB: h.tlb.Stats(),
		Mem: h.memAccess,
	}
	if h.stlb != nil {
		st.STLB = h.stlb.Stats()
	}
	return st
}

// StallCycles reports accumulated memory stall cycles.
func (h *Hierarchy) StallCycles() uint64 { return h.stallCycle }

// Cycles estimates total execution cycles for a run that retired the given
// instruction count: a base CPI plus the accumulated memory stalls.
func (h *Hierarchy) Cycles(instructions uint64) uint64 {
	return uint64(float64(instructions)*h.cfg.BaseCPI) + h.stallCycle
}

// Seconds converts Cycles to simulated wall-clock time at the configured
// frequency, the unit of the paper's Figure 12.
func (h *Hierarchy) Seconds(instructions uint64) float64 {
	return float64(h.Cycles(instructions)) / (h.cfg.ClockGHz * 1e9)
}

// String summarises the stats.
func (s Stats) String() string {
	return fmt.Sprintf("L1D %d/%d miss (%.2f%%), L2 %d miss, L3 %d miss, TLB %d miss, mem %d",
		s.L1D.Misses, s.L1D.Accesses, s.L1D.MissRate()*100, s.L2.Misses, s.L3.Misses, s.TLB.Misses, s.Mem)
}
