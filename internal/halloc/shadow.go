package halloc

import (
	"fmt"
	"sort"

	"halo/internal/mem"
)

// ShadowHeap is an independent heap oracle for fuzzing and adversarial
// stress: it tracks every live region's bounds and every byte the harness
// has written through it, using nothing from the allocator under test. The
// fuzz harness routes all allocations, frees and data accesses through the
// shadow, then asks it to verify that the allocator never handed out
// overlapping regions, never let a grouped region escape its chunk's span,
// never aliased a forwarded region with a group chunk, and never corrupted
// a byte the program wrote.
//
// The shadow deliberately duplicates state the allocator also keeps (sizes,
// liveness) — that redundancy is the point. All checks report errors rather
// than panicking: a failing check is a finding about the allocator, not a
// corruption trap inside it.
type ShadowHeap struct {
	m    *mem.Memory
	live map[uint64]*shadowObj
}

type shadowObj struct {
	size    uint64
	data    []byte // expected value of each written byte
	written []bool // which bytes the harness has written
}

// NewShadowHeap builds an oracle over the memory the allocator under test
// operates on.
func NewShadowHeap(m *mem.Memory) *ShadowHeap {
	return &ShadowHeap{m: m, live: make(map[uint64]*shadowObj)}
}

// Live returns the tracked live regions sorted by base address.
func (s *ShadowHeap) Live() []mem.Region {
	out := make([]mem.Region, 0, len(s.live))
	for base, o := range s.live {
		out = append(out, mem.Region{Base: base, Size: o.size})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Base < out[j].Base })
	return out
}

// Contains reports whether ptr is the base of a live tracked region.
func (s *ShadowHeap) Contains(ptr uint64) bool {
	_, ok := s.live[ptr]
	return ok
}

// SizeOf reports the tracked size of a live region, 0 if not live.
func (s *ShadowHeap) SizeOf(ptr uint64) uint64 {
	if o, ok := s.live[ptr]; ok {
		return o.size
	}
	return 0
}

// OnAlloc records a fresh allocation. It fails if the new region overlaps
// any live region (the fundamental disjointness invariant) or, for zeroed
// allocations, if the region holds a nonzero byte.
func (s *ShadowHeap) OnAlloc(base, size uint64, zeroed bool) error {
	if base == 0 {
		return fmt.Errorf("shadow: allocator returned null for a %d-byte request", size)
	}
	if size == 0 {
		size = 1 // a zero-size allocation still owns a minimal region
	}
	for b, o := range s.live {
		if base < b+o.size && b < base+size {
			return fmt.Errorf("shadow: new region [%#x,%#x) overlaps live [%#x,%#x)",
				base, base+size, b, b+o.size)
		}
	}
	o := &shadowObj{size: size, data: make([]byte, size), written: make([]bool, size)}
	if zeroed {
		for i := uint64(0); i < size; i++ {
			if got := s.m.ByteAt(base + i); got != 0 {
				return fmt.Errorf("shadow: zeroed region [%#x,%#x) holds %#x at +%d",
					base, base+size, got, i)
			}
			o.written[i] = true // calloc's contract covers every byte
		}
	}
	s.live[base] = o
	return nil
}

// OnRealloc records a reallocation: the old region dies, the new one must
// be disjoint from every other live region, and the common prefix of the
// old contents must have moved intact.
func (s *ShadowHeap) OnRealloc(oldBase, newBase, newSize uint64) error {
	old, ok := s.live[oldBase]
	if !ok {
		return fmt.Errorf("shadow: realloc of untracked region %#x", oldBase)
	}
	delete(s.live, oldBase)
	if err := s.OnAlloc(newBase, newSize, false); err != nil {
		return err
	}
	o := s.live[newBase]
	n := old.size
	if newSize < n {
		n = newSize
	}
	for i := uint64(0); i < n; i++ {
		if !old.written[i] {
			continue
		}
		if got := s.m.ByteAt(newBase + i); got != old.data[i] {
			return fmt.Errorf("shadow: realloc %#x->%#x lost byte +%d: %#x, want %#x",
				oldBase, newBase, i, got, old.data[i])
		}
		o.data[i], o.written[i] = old.data[i], true
	}
	return nil
}

// OnFree records a free of a live region.
func (s *ShadowHeap) OnFree(base uint64) error {
	if _, ok := s.live[base]; !ok {
		return fmt.Errorf("shadow: free of untracked region %#x", base)
	}
	delete(s.live, base)
	return nil
}

// Write stores the low `size` bytes of v at base+off through the program
// memory and records the expected bytes. Writes must stay in bounds — the
// harness, not the oracle, enforces that op generation never overflows.
func (s *ShadowHeap) Write(base, off uint64, size uint8, v uint64) error {
	o, ok := s.live[base]
	if !ok {
		return fmt.Errorf("shadow: write through dead region %#x", base)
	}
	if off+uint64(size) > o.size {
		return fmt.Errorf("shadow: write [+%d,+%d) overflows %d-byte region %#x",
			off, off+uint64(size), o.size, base)
	}
	s.m.Write(base+off, size, v)
	for i := uint8(0); i < size; i++ {
		o.data[off+uint64(i)] = byte(v >> (8 * i))
		o.written[off+uint64(i)] = true
	}
	return nil
}

// Read loads the little-endian value at base+off from program memory and
// verifies every previously written byte against the shadow copy.
func (s *ShadowHeap) Read(base, off uint64, size uint8) (uint64, error) {
	o, ok := s.live[base]
	if !ok {
		return 0, fmt.Errorf("shadow: read through dead region %#x", base)
	}
	if off+uint64(size) > o.size {
		return 0, fmt.Errorf("shadow: read [+%d,+%d) overflows %d-byte region %#x",
			off, off+uint64(size), o.size, base)
	}
	v := s.m.Read(base+off, size)
	for i := uint8(0); i < size; i++ {
		at := off + uint64(i)
		if o.written[at] && s.m.ByteAt(base+at) != o.data[at] {
			return v, fmt.Errorf("shadow: region %#x corrupted at +%d: %#x, want %#x",
				base, at, s.m.ByteAt(base+at), o.data[at])
		}
	}
	return v, nil
}

// CheckContents verifies every written byte of every live region against
// program memory: the "hostile sequences never corrupt grouped chunks"
// assertion.
func (s *ShadowHeap) CheckContents() error {
	for _, r := range s.Live() {
		o := s.live[r.Base]
		for i := uint64(0); i < o.size; i++ {
			if !o.written[i] {
				continue
			}
			if got := s.m.ByteAt(r.Base + i); got != o.data[i] {
				return fmt.Errorf("shadow: region [%#x,%#x) corrupted at +%d: %#x, want %#x",
					r.Base, r.Base+o.size, i, got, o.data[i])
			}
		}
	}
	return nil
}

// CheckLayout verifies the structural invariants of the group allocator
// against the shadow's live set:
//
//   - no two live regions overlap (grouped or forwarded);
//   - every grouped region lies entirely inside one chunk's payload span,
//     never below the chunk header or past the chunk end;
//   - no forwarded region aliases any registered chunk's span.
func (s *ShadowHeap) CheckLayout(a *GroupAlloc) error {
	live := s.Live()
	for i := 1; i < len(live); i++ {
		p, q := live[i-1], live[i]
		if p.Base+p.Size > q.Base {
			return fmt.Errorf("shadow: live regions overlap: [%#x,%#x) and [%#x,%#x)",
				p.Base, p.End(), q.Base, q.End())
		}
	}
	chunks := a.ChunkInfos()
	cs := a.ChunkSize()
	chunkAt := func(addr uint64) (ChunkInfo, bool) {
		i := sort.Search(len(chunks), func(i int) bool { return chunks[i].Base > addr })
		if i == 0 {
			return ChunkInfo{}, false
		}
		c := chunks[i-1]
		if addr >= c.Base && addr < c.Base+cs {
			return c, true
		}
		return ChunkInfo{}, false
	}
	for _, r := range live {
		c, grouped := chunkAt(r.Base)
		if grouped != a.InChunk(r.Base) {
			return fmt.Errorf("shadow: chunk registry disagrees with span math for %#x", r.Base)
		}
		if grouped {
			if r.Base < c.Base+HeaderSize {
				return fmt.Errorf("shadow: grouped region %#x intrudes into chunk %#x's header",
					r.Base, c.Base)
			}
			if r.End() > c.Base+cs {
				return fmt.Errorf("shadow: grouped region [%#x,%#x) escapes chunk [%#x,%#x)",
					r.Base, r.End(), c.Base, c.Base+cs)
			}
			continue
		}
		// Forwarded region: it must not alias any chunk's span, or a
		// grouped bump allocation could later carve memory out of it.
		for _, c := range chunks {
			if r.Base < c.Base+cs && c.Base < r.End() {
				return fmt.Errorf("shadow: forwarded region [%#x,%#x) aliases chunk [%#x,%#x)",
					r.Base, r.End(), c.Base, c.Base+cs)
			}
		}
	}
	return nil
}
