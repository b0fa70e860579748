// Package halloc implements the paper's specialised group allocator (§4.4):
// a runtime allocator that diverts allocations belonging to an affinity
// group into group-private, size-aligned chunks carved from large
// demand-paged slabs, bump-allocating regions with no per-object headers so
// that consecutive grouped allocations are contiguous. Everything else is
// forwarded to the default allocator, as the real HALO forwards through
// dlsym to the next allocator in the chain.
//
// Which group (if any) an allocation belongs to is decided by a Classifier.
// Three classifiers reproduce the paper's three measured policies:
//
//   - SelectorClassifier: HALO proper — evaluates the DNF selectors from
//     the identification stage against the group-state bit vector the
//     rewritten binary maintains (internal/identify, internal/rewrite).
//   - SiteClassifier: the Chilimbi & Shaham replication — keyed by the
//     immediate call site of the allocation (internal/hds).
//   - RandomClassifier: the Figure 15 control — small objects are assigned
//     uniformly at random to one of four pools.
package halloc

import (
	"fmt"

	"halo/internal/alloc"
	"halo/internal/isa"
	"halo/internal/mem"
)

// Classifier decides group membership for an allocation request.
type Classifier interface {
	// Classify returns the group index for an allocation of the given
	// size at the given immediate call site, or -1 for "ungrouped".
	Classify(size uint64, site isa.Addr) int
	// NumGroups reports how many groups exist.
	NumGroups() int
}

// Config parameterises the group allocator. Zero values take the paper's
// defaults.
type Config struct {
	// ChunkSize is the size of group chunks; chunks are aligned to their
	// size so region pointers locate their chunk with bitwise ops.
	// Default 1 MiB; the artifact runs omnetpp with 128 KiB.
	ChunkSize uint64
	// SlabSize is the size of the demand-paged slabs chunks are carved
	// from. Default 16 MiB.
	SlabSize uint64
	// MaxGroupedSize is the largest allocation eligible for grouping.
	// Default 4 KiB (the page size), per §5.1.
	MaxGroupedSize uint64
	// MaxSpareChunks bounds the empty chunks kept resident for reuse.
	// Default 1, "as early versions of jemalloc did"; the artifact runs
	// omnetpp and xalanc with 0.
	MaxSpareChunks int
	// AlwaysReuseChunks reproduces the omnetpp/xalanc limitation in which
	// "group chunks are always reused": empty chunks are never purged.
	AlwaysReuseChunks bool
	// NoSpare distinguishes an explicit MaxSpareChunks=0 from the unset
	// default.
	NoSpare bool
}

func (c Config) withDefaults() Config {
	if c.ChunkSize == 0 {
		c.ChunkSize = 1 << 20
	}
	if c.SlabSize == 0 {
		c.SlabSize = 16 << 20
	}
	if c.SlabSize < c.ChunkSize {
		c.SlabSize = c.ChunkSize
	}
	if c.MaxGroupedSize == 0 {
		c.MaxGroupedSize = mem.PageSize
	}
	if c.MaxSpareChunks == 0 && !c.NoSpare {
		c.MaxSpareChunks = 1
	}
	return c
}

// chunk is a group-private region of the heap. The paper stores a header
// at the chunk's base; we reserve the same bytes and keep the header's
// fields (live_regions, bump offset) in this registry entry, which is what
// the "trivially located ... by way of simple bitwise operations" lookup
// resolves to.
type chunk struct {
	base  uint64
	group int
	bump  uint64 // offset of the next free byte
	live  uint64 // live regions, the header's live_regions field
}

// chunkHeader is the space reserved at the base of each chunk for the
// paper's in-chunk header.
const chunkHeader = 64

// minAlign is the minimum alignment of grouped regions (§4.4, citing
// SuperMalloc).
const minAlign = 8

// GroupAlloc is the specialised allocator.
type GroupAlloc struct {
	os       *mem.OS
	fallback alloc.Allocator
	classify Classifier
	cfg      Config
	curSite  isa.Addr // immediate call site of the in-flight request

	chunks  map[uint64]*chunk // chunk base -> chunk, the chunk registry
	current map[int]*chunk    // group -> current chunk
	spare   []*chunk          // empty chunks kept for reuse
	purged  []*chunk          // empty chunks with pages released
	sizes   map[uint64]uint64 // grouped region -> requested size

	slab    mem.Region
	slabOff uint64

	stats      alloc.Stats // grouped-data statistics
	peakRes    uint64      // grouped resident at its peak
	liveAtPeak uint64      // grouped live bytes when peak was recorded

	// Diagnostics.
	grouped   uint64 // allocations served from groups
	forwarded uint64 // allocations forwarded to the fallback
}

// New builds a group allocator forwarding ungrouped requests to fallback.
func New(os *mem.OS, fallback alloc.Allocator, classify Classifier, cfg Config) *GroupAlloc {
	return &GroupAlloc{
		os:       os,
		fallback: fallback,
		classify: classify,
		cfg:      cfg.withDefaults(),
		chunks:   make(map[uint64]*chunk),
		current:  make(map[int]*chunk),
		sizes:    make(map[uint64]uint64),
	}
}

// Name implements alloc.Allocator.
func (a *GroupAlloc) Name() string { return "halo-group" }

// SetAllocSite announces the immediate call site of the next
// memory-management call. The VM calls it before each intercepted
// allocation, standing in for the allocator reading the return address off
// the stack.
func (a *GroupAlloc) SetAllocSite(site isa.Addr) { a.curSite = site }

// groupable reports whether a request may be served from a group chunk:
// within the configured grouped-size limit, and small enough to fit a
// chunk's payload area. The second clamp matters when ChunkSize is
// configured below MaxGroupedSize + header (the 128 KiB omnetpp artifact
// config): without it, groupMalloc would bump past the chunk end into the
// neighbouring chunk.
func (a *GroupAlloc) groupable(size uint64) bool {
	return size > 0 && size <= a.cfg.MaxGroupedSize && size+chunkHeader <= a.cfg.ChunkSize
}

// Malloc implements alloc.Allocator.
func (a *GroupAlloc) Malloc(size uint64) uint64 {
	// The allocator first compares the size against the maximum grouped
	// object size, then consults the selectors (§4.4).
	if a.groupable(size) {
		if g := a.classify.Classify(size, a.curSite); g >= 0 {
			return a.groupMalloc(g, size)
		}
	}
	a.forwarded++
	return a.fallback.Malloc(size)
}

func (a *GroupAlloc) groupMalloc(g int, size uint64) uint64 {
	c := a.current[g]
	if c == nil || !a.fits(c, size) {
		c = a.newChunk(g)
		a.current[g] = c
	}
	off := (c.bump + minAlign - 1) &^ uint64(minAlign-1)
	ptr := c.base + off
	c.bump = off + size
	c.live++
	a.sizes[ptr] = size
	a.grouped++
	a.stats.Allocs++
	a.stats.LiveObjects++
	a.stats.LiveBytes += size
	if a.stats.LiveBytes > a.stats.PeakLive {
		a.stats.PeakLive = a.stats.LiveBytes
	}
	a.recordPeak()
	return ptr
}

func (a *GroupAlloc) fits(c *chunk, size uint64) bool {
	off := (c.bump + minAlign - 1) &^ uint64(minAlign-1)
	return off+size <= a.cfg.ChunkSize
}

func (a *GroupAlloc) newChunk(g int) *chunk {
	// Reuse a spare chunk (pages intact), then a purged one, then carve
	// from the current slab.
	if n := len(a.spare); n > 0 {
		c := a.spare[n-1]
		a.spare = a.spare[:n-1]
		c.group, c.bump, c.live = g, chunkHeader, 0
		return c
	}
	if n := len(a.purged); n > 0 {
		c := a.purged[n-1]
		a.purged = a.purged[:n-1]
		c.group, c.bump, c.live = g, chunkHeader, 0
		a.stats.Resident += a.cfg.ChunkSize
		a.recordPeak()
		return c
	}
	if a.slab.Size == 0 || a.slabOff+a.cfg.ChunkSize > a.slab.Size {
		// Memory is reserved from the OS in large, demand-paged slabs
		// to amortise mmap costs (§4.4). Aligning the slab to the chunk
		// size aligns every chunk carved from it.
		a.slab = a.os.Map(a.cfg.SlabSize, a.cfg.ChunkSize)
		a.slabOff = 0
	}
	c := &chunk{base: a.slab.Base + a.slabOff, group: g, bump: chunkHeader}
	a.slabOff += a.cfg.ChunkSize
	a.chunks[c.base] = c
	a.stats.Resident += a.cfg.ChunkSize
	a.recordPeak()
	return c
}

// recordPeak samples fragmentation at the grouped-data memory high-water
// mark, the moment Table 1 reports.
func (a *GroupAlloc) recordPeak() {
	if a.stats.Resident >= a.peakRes {
		a.peakRes = a.stats.Resident
		a.liveAtPeak = a.stats.LiveBytes
	}
}

// chunkOf locates the chunk owning ptr via the alignment trick: chunks are
// aligned to their size, so masking the low bits yields the header address.
func (a *GroupAlloc) chunkOf(ptr uint64) *chunk {
	return a.chunks[ptr&^(a.cfg.ChunkSize-1)]
}

// Free implements alloc.Allocator.
func (a *GroupAlloc) Free(ptr uint64) {
	if ptr == 0 {
		return
	}
	c := a.chunkOf(ptr)
	if c == nil {
		a.fallback.Free(ptr)
		return
	}
	size, ok := a.sizes[ptr]
	if !ok {
		// No size entry: the pointer was never handed out from this chunk,
		// or it was already freed. Accepting it would underflow the live
		// statistics and double-decrement the chunk's region count,
		// corrupting chunk reuse.
		panic(fmt.Sprintf("halloc: double or invalid free of %#x in chunk %#x", ptr, c.base))
	}
	delete(a.sizes, ptr)
	a.stats.Frees++
	a.stats.LiveObjects--
	a.stats.LiveBytes -= size
	if c.live == 0 {
		panic(fmt.Sprintf("halloc: free of %#x in empty chunk %#x", ptr, c.base))
	}
	c.live--
	if c.live > 0 {
		return
	}
	// The chunk is empty and can be reused or freed (§4.4).
	if a.current[c.group] == c {
		delete(a.current, c.group)
	}
	switch {
	case a.cfg.AlwaysReuseChunks:
		a.spare = append(a.spare, c)
	case len(a.spare) < a.cfg.MaxSpareChunks:
		a.spare = append(a.spare, c)
	default:
		// Purge the chunk's dirty pages but keep the address range for
		// later reuse.
		a.os.Purge(c.base, a.cfg.ChunkSize)
		a.purged = append(a.purged, c)
		a.stats.Resident -= a.cfg.ChunkSize
	}
}

// SizeOf implements alloc.Allocator.
func (a *GroupAlloc) SizeOf(ptr uint64) uint64 {
	if c := a.chunkOf(ptr); c != nil {
		return a.sizes[ptr]
	}
	return a.fallback.SizeOf(ptr)
}

// Calloc implements alloc.Allocator. The region is zeroed on both paths:
// grouped regions may come from a reused spare chunk holding stale bytes,
// and forwarded requests go through the fallback's Calloc so its own
// zeroing contract applies (backed by an explicit Zero, as the simulated
// fallbacks leave zeroing to their caller). The VM also zeroes after any
// allocator's Calloc — that stays, because the baseline allocators do not
// zero; this allocator must regardless, for callers that use it directly.
// A product that overflows is forwarded as failure, matching calloc(3).
func (a *GroupAlloc) Calloc(n, size uint64) uint64 {
	total := n * size
	if n != 0 && total/n != size {
		return 0 // n*size wrapped; a tiny allocation here would be UB bait
	}
	if a.groupable(total) {
		if g := a.classify.Classify(total, a.curSite); g >= 0 {
			ptr := a.groupMalloc(g, total)
			a.os.Memory().Zero(ptr, total)
			return ptr
		}
	}
	a.forwarded++
	ptr := a.fallback.Calloc(n, size)
	if ptr != 0 {
		a.os.Memory().Zero(ptr, total)
	}
	return ptr
}

// Realloc implements alloc.Allocator.
func (a *GroupAlloc) Realloc(ptr, size uint64) uint64 {
	if ptr == 0 {
		return a.Malloc(size)
	}
	c := a.chunkOf(ptr)
	if c == nil {
		// Not group allocated; but the new allocation may well be.
		old := a.fallback.SizeOf(ptr)
		np := a.Malloc(size)
		if a.chunkOf(np) == nil {
			// Stayed in the fallback: let it handle the move.
			a.fallback.Free(np)
			return a.fallback.Realloc(ptr, size)
		}
		n := min(old, size)
		a.os.Memory().Copy(np, ptr, n)
		a.fallback.Free(ptr)
		return np
	}
	old := a.sizes[ptr]
	np := a.Malloc(size)
	a.os.Memory().Copy(np, ptr, min(old, size))
	a.Free(ptr)
	return np
}

// Stats implements alloc.Allocator, reporting grouped-data statistics.
// Combined program-wide statistics are the sum with the fallback's.
func (a *GroupAlloc) Stats() alloc.Stats { return a.stats }

// FragAtPeak reports the fragmentation of grouped data at peak grouped
// memory usage: the paper's Table 1 metric.
func (a *GroupAlloc) FragAtPeak() (pct float64, bytes uint64) {
	if a.peakRes == 0 {
		return 0, 0
	}
	if a.liveAtPeak >= a.peakRes {
		return 0, 0
	}
	b := a.peakRes - a.liveAtPeak
	return float64(b) / float64(a.peakRes) * 100, b
}

// GroupedAllocs and ForwardedAllocs report the request split.
func (a *GroupAlloc) GroupedAllocs() uint64 { return a.grouped }

// ForwardedAllocs reports requests passed to the fallback allocator.
func (a *GroupAlloc) ForwardedAllocs() uint64 { return a.forwarded }
