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
	Size    uint64 // total bytes
	Ways    int
	Latency uint64 // extra cycles charged when the access is satisfied here
}

// TLBConfig describes a translation cache level.
type TLBConfig struct {
	Entries  int
	Ways     int
	PageBits uint
	Penalty  uint64 // cycles charged when the lookup is satisfied below
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

// lru is a set-associative cache with LRU replacement over uint64 keys
// (line numbers for the data caches, page numbers for the TLBs). All sets
// live in one flat sets×ways slice, each set ordered MRU-first. A slot
// holds key+1, so 0 marks an empty slot; empty slots only ever sit at the
// tail of a set, since installs shift the set right by one from the front.
type lru struct {
	slots []uint64
	ways  int
	mask  uint64 // sets-1; the set count is a power of two
	stats LevelStats

	// used lists the sets installs have filled since the cache was built
	// or last reset, each once: a set is recorded by the install that
	// finds it empty. Its capacity is a quarter of the sets plus one, and
	// a full list stops recording, so reset clears the listed sets or,
	// once more than a quarter were used, the whole slots slice.
	used []uint32
}

// newLRU builds a cache of the given capacity in entries, rounding the
// set count down to a power of two for cheap indexing.
func newLRU(entries, ways int) lru {
	sets := entries / ways
	if sets <= 0 {
		sets = 1
	}
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	return lru{
		slots: make([]uint64, p*ways),
		ways:  ways,
		mask:  uint64(p - 1),
		used:  make([]uint32, 0, p/4+1),
	}
}

// reset empties the cache and zeroes its stats, leaving it as newLRU
// built it.
func (c *lru) reset() {
	if len(c.used) == cap(c.used) {
		clear(c.slots)
	} else {
		for _, si := range c.used {
			base := int(si) * c.ways
			clear(c.slots[base : base+c.ways])
		}
	}
	c.used = c.used[:0]
	c.stats = LevelStats{}
}

// access looks up key, moving it to MRU on a hit and installing it as MRU
// (evicting the LRU entry of a full set) on a miss. It reports whether the
// key hit. Only counted accesses update the stats; the prefetcher's fills
// are not counted.
func (c *lru) access(key uint64, count bool) (hit bool) {
	base := int(key&c.mask) * c.ways
	set := c.slots[base : base+c.ways : base+c.ways]
	tag := key + 1
	if count {
		c.stats.Accesses++
	}
	n := len(set) - 1 // slot the install shifts out: the LRU, or the first empty
	for i, t := range set {
		if t == tag {
			copy(set[1:i+1], set[:i])
			set[0] = tag
			if count {
				c.stats.Hits++
			}
			return true
		}
		if t == 0 {
			n = i
			break
		}
	}
	if count {
		c.stats.Misses++
	}
	if set[0] == 0 && len(c.used) < cap(c.used) {
		c.used = append(c.used, uint32(key&c.mask))
	}
	copy(set[1:n+1], set[:n])
	set[0] = tag
	return false
}

// contains reports whether key is resident, without changing any state.
func (c *lru) contains(key uint64) bool {
	base := int(key&c.mask) * c.ways
	tag := key + 1
	for _, t := range c.slots[base : base+c.ways] {
		if t == tag {
			return true
		}
		if t == 0 {
			return false
		}
	}
	return false
}

// Config describes the whole hierarchy.
type Config struct {
	L1, L2, L3 LevelConfig
	TLB        TLBConfig // first-level DTLB
	STLB       TLBConfig // unified second-level TLB
	MemLatency uint64    // cycles for a DRAM access
	Prefetch   bool      // next-line prefetch into L2 on L2 miss
	BaseCPI    float64
	ClockGHz   float64
}

// XeonW2195 returns the evaluation machine's parameters (§5.1): 32 KiB
// per-core L1D, 1,024 KiB per-core L2, 25,344 KiB shared L3. Latencies and
// the base CPI approximate Skylake-SP single-thread behaviour.
func XeonW2195() Config {
	return Config{
		L1:         LevelConfig{Size: 32 << 10, Ways: 8, Latency: 0},
		L2:         LevelConfig{Size: 1024 << 10, Ways: 16, Latency: 12},
		L3:         LevelConfig{Size: 25344 << 10, Ways: 11, Latency: 38},
		TLB:        TLBConfig{Entries: 64, Ways: 4, PageBits: 12, Penalty: 9},
		STLB:       TLBConfig{Entries: 1536, Ways: 12, PageBits: 12, Penalty: 70},
		MemLatency: 180,
		Prefetch:   true,
		BaseCPI:    0.45,
		ClockGHz:   3.7,
	}
}

// Hierarchy simulates the full data-side memory system.
type Hierarchy struct {
	cfg        Config
	l1, l2, l3 lru
	tlb, stlb  lru

	memAccess  uint64
	stallCycle uint64
}

// MaxSpares is the most released hierarchies kept for reuse: as many as
// the runs a 4-CPU machine's pool budget lets hold one at once. A Xeon
// W-2195 hierarchy holds about 3 MB of cache and TLB slots, its L3 alone
// 2.9 MB, so the spares retain at most MaxSpares times that.
const MaxSpares = 4

// spares keeps hierarchies between runs, so a measurement run that
// releases its hierarchy hands the next run a cleared one instead of a
// fresh allocation. It is a bounded channel rather than a sync.Pool
// because every GC cycle empties a sync.Pool's older half, and a
// measurement run allocates enough to trigger GCs between runs.
var spares = make(chan *Hierarchy, MaxSpares)

// New builds a hierarchy from the config. It reuses a released
// hierarchy when the oldest spare was built from an equal config (reset
// first, so it cannot be told from a new one) and allocates otherwise.
func New(cfg Config) *Hierarchy {
	select {
	case h := <-spares:
		if h.cfg == cfg {
			h.reset()
			return h
		}
	default:
	}
	return &Hierarchy{
		cfg:  cfg,
		l1:   newLevel(cfg.L1),
		l2:   newLevel(cfg.L2),
		l3:   newLevel(cfg.L3),
		tlb:  newLRU(cfg.TLB.Entries, cfg.TLB.Ways),
		stlb: newLRU(cfg.STLB.Entries, cfg.STLB.Ways),
	}
}

// Release hands the hierarchy back for a later New to reuse. The caller
// must be done with it: once released, its counters and contents belong
// to whichever run takes it next.
func (h *Hierarchy) Release() {
	select {
	case spares <- h:
	default:
	}
}

// reset empties every level and zeroes every counter.
func (h *Hierarchy) reset() {
	for _, c := range []*lru{&h.l1, &h.l2, &h.l3, &h.tlb, &h.stlb} {
		c.reset()
	}
	h.memAccess, h.stallCycle = 0, 0
}

// newLevel builds a data cache over line numbers.
func newLevel(cfg LevelConfig) lru {
	return newLRU(int(cfg.Size)/LineSize, cfg.Ways)
}

// accessStall simulates one access and returns the stall cycles and DRAM
// accesses it cost instead of charging them, so batch consumers can
// accumulate the charges in locals and write them back once per batch.
// The per-level hit/miss counters still update in place: they are updated
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
// bit-identical to charging every access through accessStall
// (TestBatchedConsumeMatchesPerAccess pins this).
//
// The same argument holds one level up for cache lines. An access that
// touches a single line leaves that line at the MRU slot of its L1D set,
// and the L1D hit it took (or the fill it caused) moves nothing below.
// The next access to that same single line is therefore an L1D hit and a
// DTLB hit that change no replacement state, so runs of same-line
// accesses are counted in a local and charged as hits once per batch
// (TestBatchedSameLineRuns pins this).
func (h *Hierarchy) ConsumeEvents(batch []vm.Event) {
	var stall, mem, repeats uint64
	last := ^uint64(0) // most recently translated page; ^0 = none yet
	pb := h.cfg.TLB.PageBits
	lastLine := ^uint64(0)        // line of the previous access if it touched only that line; ^0 = none
	lineInPage := pb >= LineShift // otherwise a line can span pages: no same-line shortcut
	for i := range batch {
		ev := &batch[i]
		if ev.Kind != vm.EvAccess {
			continue
		}
		end := ev.Addr + uint64(ev.Size) - 1
		line := ev.Addr >> LineShift
		if line == lastLine && end>>LineShift == line {
			repeats++
			continue
		}
		lastLine = ^uint64(0)
		if lineInPage && end>>LineShift == line {
			lastLine = line
		}
		page := ev.Addr >> pb
		if page == last && end>>pb == page {
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
		last = end >> pb
	}
	h.l1.stats.Accesses += repeats
	h.l1.stats.Hits += repeats
	h.tlb.stats.Accesses += repeats
	h.tlb.stats.Hits += repeats
	h.stallCycle += stall + repeats*h.cfg.L1.Latency
	h.memAccess += mem
}

// translate returns the DTLB penalty on a first-level miss and the full
// page-walk penalty when the second-level TLB misses too.
func (h *Hierarchy) translate(page uint64) (stall uint64) {
	if h.tlb.access(page, true) {
		return 0
	}
	if h.stlb.access(page, true) {
		return h.cfg.TLB.Penalty
	}
	return h.cfg.STLB.Penalty
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
		// line into L2/L3 without charging stall cycles.
		if next := line + 1; !h.l2.contains(next) {
			h.l2.access(next, false)
			h.l3.access(next, false)
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
	return Stats{
		L1D:  h.l1.stats,
		L2:   h.l2.stats,
		L3:   h.l3.stats,
		TLB:  h.tlb.stats,
		STLB: h.stlb.stats,
		Mem:  h.memAccess,
	}
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
