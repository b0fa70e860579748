// Package mem provides the simulated 64-bit address space used by every
// other component of the HALO reproduction: a sparse, page-granular byte
// store (Memory) and an mmap-like address-space manager (OS).
//
// The package stands in for the operating system's virtual-memory facilities
// in the paper's runtime: allocators reserve demand-paged regions from OS,
// and the virtual machine performs its loads and stores against Memory.
// Pages materialise lazily on first touch, so reserving a multi-gigabyte
// slab costs nothing until it is written — mirroring mmap with overcommit,
// which the paper's artifact relies on ("running programs must be able to
// map at least 16GiB of virtual memory").
package mem

import (
	"fmt"
	"sort"
)

// PageSize is the size of a simulated OS page in bytes. It matches the
// 4 KiB pages of the x86-64 systems evaluated in the paper, and doubles as
// HALO's default maximum grouped-object size.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Memory is a sparse byte-addressable store. The zero value is ready to use.
// Reads of untouched memory return zero bytes, like freshly mapped pages.
type Memory struct {
	pages map[uint64]*[PageSize]byte

	// touched counts pages that have been materialised by a write. It is
	// the simulation's notion of "resident" memory.
	touched uint64
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[PageSize]byte)}
}

func (m *Memory) page(addr uint64, create bool) *[PageSize]byte {
	if m.pages == nil {
		if !create {
			return nil
		}
		m.pages = make(map[uint64]*[PageSize]byte)
	}
	id := addr >> PageShift
	p := m.pages[id]
	if p == nil && create {
		p = new([PageSize]byte)
		m.pages[id] = p
		m.touched++
	}
	return p
}

// PageFor exposes the backing page containing addr, materialising it when
// create is set. Execution engines cache the returned pointer as a
// software TLB to skip the per-access map lookup; any operation that can
// unmap or recreate pages (Release, and anything reachable from allocator
// externs) obliges cached pointers to be dropped.
func (m *Memory) PageFor(addr uint64, create bool) *[PageSize]byte {
	return m.page(addr, create)
}

// ByteAt returns the byte stored at addr.
func (m *Memory) ByteAt(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(PageSize-1)]
}

// SetByte stores b at addr.
func (m *Memory) SetByte(addr uint64, b byte) {
	m.page(addr, true)[addr&(PageSize-1)] = b
}

// Read returns the little-endian unsigned integer of the given size
// (1, 2, 4 or 8 bytes) stored at addr. Accesses may straddle pages.
func (m *Memory) Read(addr uint64, size uint8) uint64 {
	var v uint64
	for i := uint8(0); i < size; i++ {
		v |= uint64(m.ByteAt(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write stores the low `size` bytes of v at addr, little-endian.
func (m *Memory) Write(addr uint64, size uint8, v uint64) {
	for i := uint8(0); i < size; i++ {
		m.SetByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// ReadWord and WriteWord access the VM's native 8-byte word size.

// ReadWord returns the 8-byte word at addr.
func (m *Memory) ReadWord(addr uint64) uint64 { return m.Read(addr, 8) }

// WriteWord stores the 8-byte word v at addr.
func (m *Memory) WriteWord(addr uint64, v uint64) { m.Write(addr, 8, v) }

// Zero clears n bytes starting at addr. Untouched pages stay untouched.
func (m *Memory) Zero(addr, n uint64) {
	for i := uint64(0); i < n; i++ {
		if p := m.page(addr+i, false); p != nil {
			p[(addr+i)&(PageSize-1)] = 0
		}
	}
}

// Copy copies n bytes from src to dst, handling overlap like memmove.
func (m *Memory) Copy(dst, src, n uint64) {
	if dst == src || n == 0 {
		return
	}
	if dst < src {
		for i := uint64(0); i < n; i++ {
			m.SetByte(dst+i, m.ByteAt(src+i))
		}
		return
	}
	for i := n; i > 0; i-- {
		m.SetByte(dst+i-1, m.ByteAt(src+i-1))
	}
}

// TouchedPages reports how many distinct pages have been materialised.
func (m *Memory) TouchedPages() uint64 { return m.touched }

// Release discards the pages fully covered by [addr, addr+n), modelling
// madvise(MADV_DONTNEED)/munmap page purging. Partially covered pages are
// left intact. It reports the number of pages released.
func (m *Memory) Release(addr, n uint64) uint64 {
	if m.pages == nil || n == 0 {
		return 0
	}
	first := (addr + PageSize - 1) >> PageShift // first fully covered page
	last := (addr + n) >> PageShift             // one past last fully covered
	var released uint64
	for id := first; id < last; id++ {
		if _, ok := m.pages[id]; ok {
			delete(m.pages, id)
			m.touched--
			released++
		}
	}
	return released
}

// Region describes a reserved span of address space.
type Region struct {
	Base uint64
	Size uint64
}

// End returns one past the last address of the region.
func (r Region) End() uint64 { return r.Base + r.Size }

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool { return addr >= r.Base && addr < r.End() }

// OS hands out address-space regions, mimicking mmap. Regions are carved
// from a monotonically increasing cursor, optionally with alignment, and can
// be unmapped (returned regions are tracked so Owner lookups work).
//
// The base of the managed arena is deliberately placed high (0x10_0000_0000)
// so that heap addresses are visibly distinct from code addresses and the
// global segment in traces and disassembly.
type OS struct {
	mem     *Memory
	cursor  uint64
	regions []Region // sorted by Base, live mappings only
	mapped  uint64   // total currently mapped bytes
	maxMap  uint64   // high-water mark of mapped bytes
}

// HeapBase is the first address handed out by OS mappings.
const HeapBase = 0x10_0000_0000

// NewOS returns an address-space manager backed by mem.
func NewOS(mem *Memory) *OS {
	return &OS{mem: mem, cursor: HeapBase}
}

// Memory returns the backing store shared with the VM.
func (o *OS) Memory() *Memory { return o.mem }

// Map reserves size bytes aligned to align (0 or 1 for no alignment;
// otherwise a power of two) and returns the region. The memory is
// demand-paged: nothing is materialised until written.
func (o *OS) Map(size, align uint64) Region {
	if size == 0 {
		size = PageSize
	}
	// Round the size up to whole pages, as mmap does.
	size = (size + PageSize - 1) &^ uint64(PageSize-1)
	base := o.cursor
	if align > 1 {
		base = (base + align - 1) &^ (align - 1)
	}
	o.cursor = base + size
	r := Region{Base: base, Size: size}
	o.insert(r)
	o.mapped += size
	if o.mapped > o.maxMap {
		o.maxMap = o.mapped
	}
	return r
}

func (o *OS) insert(r Region) {
	i := sort.Search(len(o.regions), func(i int) bool { return o.regions[i].Base >= r.Base })
	o.regions = append(o.regions, Region{})
	copy(o.regions[i+1:], o.regions[i:])
	o.regions[i] = r
}

// Unmap releases a region previously returned by Map. The backing pages are
// discarded. Unmapping a region that is not live is an error: the simulation
// treats it as a bug in an allocator.
func (o *OS) Unmap(r Region) error {
	i := sort.Search(len(o.regions), func(i int) bool { return o.regions[i].Base >= r.Base })
	if i >= len(o.regions) || o.regions[i] != r {
		return fmt.Errorf("mem: unmap of non-mapped region [%#x, %#x)", r.Base, r.End())
	}
	o.regions = append(o.regions[:i], o.regions[i+1:]...)
	o.mapped -= r.Size
	o.mem.Release(r.Base, r.Size)
	return nil
}

// Purge releases the resident pages of [addr, addr+n) without unmapping the
// range, modelling dirty-page purging (madvise). Returns pages released.
func (o *OS) Purge(addr, n uint64) uint64 { return o.mem.Release(addr, n) }

// Owner returns the live region containing addr, if any.
func (o *OS) Owner(addr uint64) (Region, bool) {
	i := sort.Search(len(o.regions), func(i int) bool { return o.regions[i].Base > addr })
	if i == 0 {
		return Region{}, false
	}
	r := o.regions[i-1]
	if r.Contains(addr) {
		return r, true
	}
	return Region{}, false
}

// MappedBytes reports the total currently mapped address space.
func (o *OS) MappedBytes() uint64 { return o.mapped }

// PeakMappedBytes reports the mapping high-water mark.
func (o *OS) PeakMappedBytes() uint64 { return o.maxMap }
