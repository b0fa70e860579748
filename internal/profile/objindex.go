package profile

import (
	"fmt"

	"halo/internal/affinity"
)

// object is a live heap object tracked at object-level granularity.
type object struct {
	base   uint64
	size   uint64
	serial uint64       // allocation serial, the object's identity
	ctx    affinity.Ctx // reduced allocation context
}

// objIndex answers the containment query the access instrumentation needs
// — "which live object, if any, owns this address?" — by shadowing the
// heap, the way Pin-style instrumentation tools shadow process memory:
// every 8-byte granule of address space maps to the slot of the live
// object covering it, so the access fast path is two array loads and a
// bounds check instead of a tree descent.
//
// Granule shadows live in lazily-allocated fixed-size chunks reached
// through a dense directory based at the lowest address ever seen, so
// memory tracks the span the allocator actually uses, not the 64-bit
// address space. Objects live in a slot slab recycled through a free
// list; steady-state insert/remove/find allocate nothing.
//
// The 8-byte granule matches the minimum spacing of the allocator every
// profiling run uses (alloc.SizeSeg: size classes are multiples of 8 and
// runs are page-aligned), so each granule is covered by at most one live
// object, and the index holds exactly one slot per granule. A second live
// object in an occupied granule is a broken invariant, not a case to
// handle: insert panics.
type objIndex struct {
	objs []object // slot slab; slot i live iff objs[i].size != 0
	free []int32  // recycled slots
	size int      // live object count

	// Shadow directory: granule g lives at
	// chunks[g>>chunkShift - baseChunk][g&chunkMask].
	chunks    [][]int32
	baseChunk int
}

const (
	granuleShift = 3  // 8-byte granules
	chunkShift   = 16 // granules per chunk: 64K -> 512 KiB of address space
	chunkMask    = 1<<chunkShift - 1

	slotEmpty int32 = -1 // granule covers no live object
)

func newObjIndex() *objIndex { return &objIndex{} }

// chunkFor returns the shadow chunk containing granule g, materialising it
// (and extending the directory) when create is set.
func (t *objIndex) chunkFor(g uint64, create bool) []int32 {
	ci := int(g >> chunkShift)
	if len(t.chunks) == 0 {
		if !create {
			return nil
		}
		t.baseChunk = ci
		t.chunks = [][]int32{nil}
	}
	rel := ci - t.baseChunk
	if rel < 0 {
		if !create {
			return nil
		}
		grown := make([][]int32, len(t.chunks)-rel)
		copy(grown[-rel:], t.chunks)
		t.chunks = grown
		t.baseChunk = ci
		rel = 0
	}
	if rel >= len(t.chunks) {
		if !create {
			return nil
		}
		for rel >= len(t.chunks) {
			t.chunks = append(t.chunks, nil)
		}
	}
	c := t.chunks[rel]
	if c == nil && create {
		c = make([]int32, 1<<chunkShift)
		for i := range c {
			c[i] = slotEmpty
		}
		t.chunks[rel] = c
	}
	return c
}

// granules returns the granule span [lo, hi] covered by an object.
func granules(base, size uint64) (lo, hi uint64) {
	if size == 0 {
		size = 1
	}
	return base >> granuleShift, (base + size - 1) >> granuleShift
}

// insert adds an object. Inserting an object whose base is already present
// replaces the previous entry (a fresh allocation reusing an address).
//
//halo:hot
func (t *objIndex) insert(o object) {
	t.remove(o.base)
	var slot int32
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
		t.objs[slot] = o
	} else {
		slot = int32(len(t.objs))
		t.objs = append(t.objs, o)
	}
	lo, hi := granules(o.base, o.size)
	for g := lo; g <= hi; g++ {
		c := t.chunkFor(g, true)
		if prev := c[g&chunkMask]; prev != slotEmpty {
			//halo:errfmt-ok invariant trap: the profiling allocator never places two live objects in one granule
			panic(fmt.Sprintf("profile: object %#x shares granule %#x with live object %#x", o.base, g<<granuleShift, t.objs[prev].base)) //halo:hotalloc-ok terminal path: the run ends here
		}
		c[g&chunkMask] = slot
	}
	t.size++
}

// slotAt returns the slot of the live object based exactly at addr, or -1.
//
//halo:hot
func (t *objIndex) slotAt(addr uint64) int32 {
	c := t.chunkFor(addr>>granuleShift, false)
	if c == nil {
		return -1
	}
	if s := c[(addr>>granuleShift)&chunkMask]; s != slotEmpty && t.objs[s].base == addr {
		return s
	}
	return -1
}

// remove deletes the object based exactly at addr, returning it if present.
// The returned pointer aliases the slot slab and is only valid until the
// next insert.
//
//halo:hot
func (t *objIndex) remove(addr uint64) *object {
	slot := t.slotAt(addr)
	if slot < 0 {
		return nil
	}
	o := &t.objs[slot]
	lo, hi := granules(o.base, o.size)
	for g := lo; g <= hi; g++ {
		t.chunkFor(g, false)[g&chunkMask] = slotEmpty
	}
	o.size = 0 // mark the slot dead; o.base etc. stay readable
	t.free = append(t.free, slot)
	t.size--
	return o
}

// find returns the live object containing addr, or nil. The returned
// pointer aliases the slot slab and is only valid until the next insert.
//
//halo:hot
func (t *objIndex) find(addr uint64) *object {
	g := addr >> granuleShift
	ci := int(g>>chunkShift) - t.baseChunk
	if ci < 0 || ci >= len(t.chunks) {
		return nil
	}
	c := t.chunks[ci]
	if c == nil {
		return nil
	}
	s := c[g&chunkMask]
	if s == slotEmpty {
		return nil
	}
	if o := &t.objs[s]; o.base <= addr && addr-o.base < o.size {
		return o
	}
	return nil
}

// len reports the live object count.
func (t *objIndex) len() int { return t.size }
