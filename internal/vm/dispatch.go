// Threaded dispatch: the predecoded execution core. The loop executes
// exactly one decoded record per step through a single switch over the
// decoded opcode (predecode.go), which the compiler lowers to a jump
// table; every defined opcode is an inline case, so no step pays an
// indirect call. The reference interpreter's switch over raw isa.Inst
// (vm.go) stays as the differential oracle, and both trap with the same
// text.
//
// Hot state lives in locals for the whole run — pc, step/load/store
// counters, the register window — and is written back to the VM and frame
// only at call boundaries and exits, so the per-instruction loop touches no
// VM fields except the event buffer.
package vm

import (
	"encoding/binary"
	"errors"

	"halo/internal/isa"
	"halo/internal/mem"
)

const pageMask = mem.PageSize - 1

// Direct-mapped software TLB geometry: 1<<tlbBits entries indexed by the
// low page-number bits. 16 entries covers the working sets of the
// pointer-chasing workloads (omnetpp's event lists walk several pages per
// loop iteration, which thrashed the previous one-entry cache); the sweep
// in EXPERIMENTS.md pins the choice.
const (
	tlbBits = 4
	tlbSize = 1 << tlbBits
)

// tlbEntry caches one resolved page. tag is the page number + 1 (0 =
// empty). Entries are only ever installed for materialised pages, so
// page is non-nil whenever tag != 0 — a tag match grants both read and
// write without a nil re-check on the store path. Reads of untouched
// pages return zeros without installing anything; the first store to such
// a page misses, materialises it via PageFor(create), and installs it.
type tlbEntry struct {
	tag  uint64 // page number + 1 (0 = empty)
	gen  uint64 // flush generation the entry was installed in
	page *[mem.PageSize]byte
}

// tlbFlush invalidates the MRU filter and every direct-mapped entry.
// Called at run start and after every extern, since allocators can unmap,
// purge or recreate pages. Externs are frequent (every malloc/free), so
// the array is invalidated in O(1) by bumping the generation stamp instead
// of zeroing it; entries from older generations simply fail the gen check
// in tlbFill.
func (v *VM) tlbFlush() {
	v.tlbID, v.tlbPage = 0, nil
	v.tlbGen++
}

// tlbFill is the shared fill path behind the MRU filter: it consults the
// direct-mapped array and, on a true miss, resolves the page through
// Memory.PageFor. A nil return means a load touched a page that was never
// written (reads as zeros; nothing is installed, preserving the non-nil
// invariant). write fills always materialise and never return nil. On
// success both the array entry and the MRU filter point at the page.
//
//halo:hot
func (v *VM) tlbFill(addr, pn1 uint64, write bool) *[mem.PageSize]byte {
	e := &v.tlb[(pn1-1)&(tlbSize-1)]
	if e.tag != pn1 || e.gen != v.tlbGen {
		v.tlbMiss++
		p := v.mem.PageFor(addr, write)
		if p == nil {
			return nil
		}
		e.tag, e.gen, e.page = pn1, v.tlbGen, p
	}
	v.tlbID, v.tlbPage = pn1, e.page
	return e.page
}

// loadFast reads size bytes at addr through the dispatcher's direct-mapped
// software TLB, turning the per-byte page-map lookups of Memory.Read into
// a single in-page little-endian load on the (overwhelmingly common) hit
// path. Page-straddling accesses fall back to the reference byte path,
// which keeps the semantics identical.
//
//halo:hot
func (v *VM) loadFast(addr uint64, size uint8) uint64 {
	off := addr & pageMask
	if off+uint64(size) > mem.PageSize {
		v.tlbBypass++
		return v.mem.Read(addr, size)
	}
	pn1 := (addr >> mem.PageShift) + 1
	p := v.tlbPage
	if pn1 != v.tlbID {
		if p = v.tlbFill(addr, pn1, false); p == nil {
			return 0 // untouched page reads as zeros; never cached
		}
	}
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(p[off:])
	case 4:
		return uint64(binary.LittleEndian.Uint32(p[off:]))
	case 2:
		return uint64(binary.LittleEndian.Uint16(p[off:]))
	case 1:
		return uint64(p[off])
	default:
		return v.mem.Read(addr, size) // unreachable for validated programs
	}
}

// storeFast is the store-side TLB path; see loadFast. Store misses
// materialise the page, exactly as Memory.Write does; store hits write
// straight through the entry — the non-nil invariant makes the old
// per-store nil re-check unnecessary.
//
//halo:hot
func (v *VM) storeFast(addr uint64, size uint8, val uint64) {
	off := addr & pageMask
	if off+uint64(size) > mem.PageSize {
		v.tlbBypass++
		v.mem.Write(addr, size, val)
		return
	}
	pn1 := (addr >> mem.PageShift) + 1
	p := v.tlbPage
	if pn1 != v.tlbID {
		p = v.tlbFill(addr, pn1, true) // write fills always materialise
	}
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(p[off:], val)
	case 4:
		binary.LittleEndian.PutUint32(p[off:], uint32(val))
	case 2:
		binary.LittleEndian.PutUint16(p[off:], uint16(val))
	case 1:
		p[off] = byte(val)
	default:
		v.mem.Write(addr, size, val) // unreachable for validated programs
	}
}

// errFrameUnderflow is preallocated so the dispatch loop's exit check
// stays allocation-free.
var errFrameUnderflow = errors.New("vm: frame stack underflow")

// runThreaded executes the decoded program. Entry frame and registers have
// been set up by Run.
//
//halo:hot
func (v *VM) runThreaded(dp *Decoded) (res int64, err error) {
	limit := v.cfg.MaxSteps
	sinkOn := v.sink != nil
	steps, loads, stores := v.steps, v.loads, v.stores
	// Counter writeback on every exit path; break inner only re-enters the
	// outer loop, which never reads them.
	sync := func() { //halo:hotalloc-ok non-escaping closure, called only below; it never leaves the stack
		v.steps, v.loads, v.stores = steps, loads, stores
	}

	for {
		if len(v.frames) == 0 {
			sync()
			return 0, errFrameUnderflow
		}
		f := &v.frames[len(v.frames)-1]
		fc := &dp.funcs[f.fn]
		code := fc.code
		regs := v.regs[f.base : f.base+fc.nregs]
		pc := f.pc

	inner:
		for {
			if pc >= len(code) {
				f.pc = pc
				sync()
				return 0, v.trap(*f, "fell off function end")
			}
			if steps >= limit {
				f.pc = pc
				sync()
				return 0, ErrMaxSteps
			}
			in := &code[pc]
			steps++
			switch in.op {
			case dConst:
				regs[in.a] = in.imm
				pc++
			case dAdd:
				regs[in.a] = regs[in.b] + regs[in.c]
				pc++
			case dAddImm:
				regs[in.a] = regs[in.b] + in.imm
				pc++
			case dLoad:
				addr := uint64(regs[in.b] + in.imm)
				if sinkOn {
					// Inlined emit: the hottest observation site.
					v.events = append(v.events, Event{Kind: EvAccess, Addr: addr, Size: in.size})
					if len(v.events) == cap(v.events) {
						v.flushEvents()
					}
				}
				loads++
				regs[in.a] = int64(v.loadFast(addr, in.size))
				pc++
			case dStore:
				addr := uint64(regs[in.b] + in.imm)
				if sinkOn {
					v.events = append(v.events, Event{Kind: EvAccess, Addr: addr, Size: in.size, Write: true})
					if len(v.events) == cap(v.events) {
						v.flushEvents()
					}
				}
				stores++
				v.storeFast(addr, in.size, uint64(regs[in.a]))
				pc++
			case dJmp:
				pc = int(in.imm)
			case dBz:
				if regs[in.a] == 0 {
					pc = int(in.imm)
				} else {
					pc++
				}
			case dBnz:
				if regs[in.a] != 0 {
					pc = int(in.imm)
				} else {
					pc++
				}

			// ---- arithmetic, comparisons, group-state bits ----
			case dNop:
				pc++
			case dMov:
				regs[in.a] = regs[in.b]
				pc++
			case dSub:
				regs[in.a] = regs[in.b] - regs[in.c]
				pc++
			case dMul:
				regs[in.a] = regs[in.b] * regs[in.c]
				pc++
			case dDiv:
				if regs[in.c] == 0 {
					f.pc = pc
					sync()
					return 0, v.trap(*f, "division by zero") //halo:hotalloc-ok cold trap exit: execution ends here
				}
				regs[in.a] = regs[in.b] / regs[in.c]
				pc++
			case dMod:
				if regs[in.c] == 0 {
					f.pc = pc
					sync()
					return 0, v.trap(*f, "mod by zero") //halo:hotalloc-ok cold trap exit: execution ends here
				}
				regs[in.a] = regs[in.b] % regs[in.c]
				pc++
			case dAnd:
				regs[in.a] = regs[in.b] & regs[in.c]
				pc++
			case dOr:
				regs[in.a] = regs[in.b] | regs[in.c]
				pc++
			case dXor:
				regs[in.a] = regs[in.b] ^ regs[in.c]
				pc++
			case dShl:
				regs[in.a] = regs[in.b] << (uint64(regs[in.c]) & 63)
				pc++
			case dShr:
				regs[in.a] = int64(uint64(regs[in.b]) >> (uint64(regs[in.c]) & 63))
				pc++
			case dEq:
				regs[in.a] = b2i(regs[in.b] == regs[in.c])
				pc++
			case dNe:
				regs[in.a] = b2i(regs[in.b] != regs[in.c])
				pc++
			case dLt:
				regs[in.a] = b2i(regs[in.b] < regs[in.c])
				pc++
			case dLe:
				regs[in.a] = b2i(regs[in.b] <= regs[in.c])
				pc++
			case dGroupSet:
				v.group.Set(int(in.imm))
				pc++
			case dGroupClr:
				v.group.Clear(int(in.imm))
				pc++

			// ---- control transfers ----
			case dRet:
				val := regs[in.a]
				if f.entry {
					sync()
					return val, nil
				}
				if sinkOn {
					v.emit(Event{Kind: EvReturn, Fn: int32(f.fn)})
				}
				dst, ret, base := f.dst, f.ret, f.base
				v.frames = v.frames[:len(v.frames)-1]
				v.regs = v.regs[:base]
				pf := &v.frames[len(v.frames)-1]
				v.regs[pf.base+int(dst)] = val
				pf.pc = ret
				break inner
			case dCall, dCallInd:
				var target int32
				if in.op == dCall {
					target = in.fn
				} else {
					t := regs[in.d]
					if t < 0 || t >= int64(len(v.prog.Funcs)) {
						f.pc = pc
						sync()
						return 0, v.trap(*f, "indirect call to bad function index %d", t) //halo:hotalloc-ok cold trap exit: execution ends here
					}
					target = int32(t)
				}
				if len(v.frames) >= v.cfg.MaxDepth {
					f.pc = pc
					sync()
					return 0, v.trap(*f, "call stack overflow (%d frames)", len(v.frames)) //halo:hotalloc-ok cold trap exit: execution ends here
				}
				callee := &dp.funcs[target]
				if int(in.c) != callee.nparams {
					f.pc = pc
					sync()
					return 0, v.trap(*f, "call to %s with %d args, want %d",
						v.prog.Funcs[target].Name, in.c, callee.nparams) //halo:hotalloc-ok cold trap exit: execution ends here
				}
				newBase := len(v.regs)
				v.regs = append(v.regs, make([]int64, callee.nregs)...) //halo:hotalloc-ok append(s, make(...)...) extends in place; the compiler elides the temporary
				for i := 0; i < int(in.c); i++ {
					v.regs[newBase+i] = regs[int(in.b)+i]
				}
				v.frames = append(v.frames, frame{
					fn:   int(target),
					base: newBase,
					dst:  in.a,
					ret:  pc + 1,
				})
				if sinkOn {
					v.emit(Event{Kind: EvCall, Site: in.addr, Fn: target})
				}
				break inner
			case dCallExt:
				f.pc = pc
				sync()
				res, err := v.callExtern(f, in.addr, in.b, in.c, regs, isa.Extern(in.fn))
				// The extern may have unmapped, purged or recreated pages.
				v.tlbFlush()
				if err != nil {
					return 0, err
				}
				if v.halted {
					return res, nil
				}
				regs[in.a] = res
				pc++
			case dHalt:
				sync()
				return 0, nil
			default: // dIllegal: imm holds the undefined isa opcode
				f.pc = pc
				sync()
				return 0, v.trap(*f, "illegal opcode %s", isa.Opcode(in.imm)) //halo:hotalloc-ok cold trap exit: execution ends here
			}
		}
	}
}
