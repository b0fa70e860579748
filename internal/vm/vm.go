// Package vm interprets isa programs. It is the execution substrate that
// replaces both the real CPU and Intel Pin in the paper's pipeline: every
// call, return, load, store and memory-management request is appended to a
// batched event stream (see event.go) that consumers such as the profiler
// (internal/profile) and the cache simulator (internal/cache) drain one
// batch — not one virtual call — at a time. The group-state bit vector
// written by rewritten binaries lives here for the specialised allocator
// to read.
package vm

import (
	"errors"
	"fmt"
	"io"

	"halo/internal/bits"
	"halo/internal/isa"
	"halo/internal/mem"
	"halo/internal/obs"
)

// Allocator satisfies the program's memory-management externals. It is the
// runtime-side malloc implementation: internal/alloc provides the
// general-purpose ones and internal/halloc the specialised group allocator.
type Allocator interface {
	Malloc(size uint64) uint64
	Calloc(n, size uint64) uint64
	Realloc(ptr, size uint64) uint64
	Free(ptr uint64)
}

// AllocKind distinguishes the memory-management externals in an EvAlloc
// event's AKind field.
type AllocKind uint8

// Allocation event kinds.
const (
	KindMalloc AllocKind = iota
	KindCalloc
	KindRealloc
	KindFree
)

// String names the kind.
func (k AllocKind) String() string {
	switch k {
	case KindMalloc:
		return "malloc"
	case KindCalloc:
		return "calloc"
	case KindRealloc:
		return "realloc"
	case KindFree:
		return "free"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// SiteAware is implemented by allocators that want to know the immediate
// call site of each memory-management request — the analogue of reading the
// return address off the stack, which is how the paper's specialised
// allocator and the hot-data-streams replication identify allocations.
type SiteAware interface {
	SetAllocSite(site isa.Addr)
}

// DispatchMode selects the execution engine.
type DispatchMode uint8

// Execution engines.
const (
	// DispatchThreaded is the default: the program is predecoded once
	// (predecode.go) and executed by the threaded dispatcher
	// (dispatch.go).
	DispatchThreaded DispatchMode = iota
	// DispatchSwitch is the reference switch interpreter, retained verbatim
	// as the differential-testing oracle for the threaded engine.
	DispatchSwitch
)

// Config parameterises a run.
type Config struct {
	// Seed drives the deterministic rand external. Zero means 1.
	Seed uint64
	// MaxSteps bounds retired instructions; 0 means DefaultMaxSteps.
	MaxSteps uint64
	// MaxDepth bounds the call stack; 0 means DefaultMaxDepth.
	MaxDepth int
	// Out receives print output; nil discards it.
	Out io.Writer
	// GroupState, when non-nil, is used as the group-state vector; nil
	// allocates DefaultGroupBits bits, so unrewritten binaries still run
	// gset/gclr-free. The harness shares it between the VM and the
	// specialised allocator's selector classifier, mirroring the real
	// allocator locating the state vector in process memory (§4.4).
	GroupState *bits.Vec
	// BatchSize caps buffered events before a flush to the sink; 0 means
	// DefaultBatchSize. The observed event sequence is identical at any
	// batch size (1 degenerates to per-event delivery).
	BatchSize int
	// Dispatch selects the execution engine; the zero value is the
	// predecoded threaded dispatcher. Both engines produce bit-identical
	// results, step counts and event streams.
	Dispatch DispatchMode
	// OverlapSink runs the sink on a helper goroutine borrowed from
	// internal/pool's budget while the VM fills the next batch
	// (stage.go); with no helper free, delivery stays inline. The sink
	// sees the same batches in the same order either way, but its state
	// may be read only after Run returns. Worth it for sinks with real
	// per-batch work (the cache model, the profiler); a near-empty sink
	// gains nothing and pays a goroutine handoff per batch.
	OverlapSink bool
}

// Defaults for Config.
const (
	DefaultMaxSteps  = 2_000_000_000
	DefaultMaxDepth  = 4096
	DefaultGroupBits = 64
)

// VM executes one program.
type VM struct {
	prog      *isa.Program
	mem       *mem.Memory
	alloc     Allocator
	siteAware SiteAware
	sink      EventSink
	events    []Event
	stage     *stage // non-nil while a staged Run has a helper
	group     *bits.Vec

	cfg Config
	rng uint64

	regs   []int64 // register stack; frames are windows into it
	frames []frame

	steps  uint64
	loads  uint64
	stores uint64
	halted bool

	// Direct-mapped software TLB for the threaded dispatcher: tlbSize
	// recently touched pages indexed by the low page-number bits, fronted
	// by a one-entry MRU filter (tlbID/tlbPage) so the common same-page-
	// again access costs a single compare, exactly like the previous
	// one-entry design — the array only makes the filter's misses cheaper.
	// Both levels only ever hold materialised (non-nil) pages — a read of
	// an untouched page returns zeros without installing anything — so a
	// tag match is sufficient permission for both loads and stores.
	// Flushed whenever an extern runs: allocators can unmap, purge or
	// recreate pages.
	tlbID     uint64 // MRU filter tag: page number + 1 (0 = empty)
	tlbPage   *[mem.PageSize]byte
	tlb       [tlbSize]tlbEntry
	tlbGen    uint64 // current flush generation; stale entries fail the gen check
	tlbMiss   uint64 // lookups that missed both levels (PageFor taken)
	tlbBypass uint64 // accesses that skipped the TLB (page straddle)
}

type frame struct {
	fn    int
	pc    int
	base  int   // register window start in regs
	dst   uint8 // caller register receiving the return value
	ret   int   // caller pc to resume at
	entry bool  // bottom frame has no caller
}

// New prepares a VM. The program must be linked and valid; memory and
// allocator are required, the sink optional (nil disables observation).
func New(p *isa.Program, memory *mem.Memory, alloc Allocator, sink EventSink, cfg Config) *VM {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = DefaultMaxDepth
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	group := cfg.GroupState
	if group == nil {
		group = bits.New(DefaultGroupBits)
	}
	v := &VM{
		prog:  p,
		mem:   memory,
		alloc: alloc,
		sink:  sink,
		group: group,
		cfg:   cfg,
		rng:   cfg.Seed,
	}
	if sink != nil && !cfg.OverlapSink {
		v.events = make([]Event, 0, cfg.BatchSize)
	}
	if sa, ok := alloc.(SiteAware); ok {
		v.siteAware = sa
	}
	return v
}

// GroupState exposes the group-state bit vector, which the specialised
// allocator reads ("its first task is to locate the address of the group
// state vector", §4.4).
func (v *VM) GroupState() *bits.Vec { return v.group }

// Steps reports retired instructions.
func (v *VM) Steps() uint64 { return v.steps }

// Loads and Stores report executed memory operations.
func (v *VM) Loads() uint64 { return v.loads }

// Stores reports executed store instructions.
func (v *VM) Stores() uint64 { return v.stores }

// TLBMisses reports software-TLB misses in the threaded dispatcher: loads
// or stores that had to resolve their page through the memory page map.
func (v *VM) TLBMisses() uint64 { return v.tlbMiss }

// TLBBypasses reports accesses that skipped the TLB entirely
// (page-straddling accesses served by the byte path). TLB hits are derived:
// Loads()+Stores()−TLBMisses()−TLBBypasses().
func (v *VM) TLBBypasses() uint64 { return v.tlbBypass }

// ErrMaxSteps is returned when the step budget is exhausted.
var ErrMaxSteps = errors.New("vm: step budget exhausted")

func (v *VM) trap(f frame, format string, args ...any) error {
	fn := v.prog.Funcs[f.fn]
	return fmt.Errorf("vm: trap in %s @%d: %s", fn.Name, f.pc, fmt.Sprintf(format, args...))
}

func (v *VM) rand() uint64 {
	// xorshift64*: deterministic, cheap, good enough for workload shaping.
	x := v.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	v.rng = x
	return x * 0x2545F4914F6CDD1D
}

// Run executes the program's entry function to completion and returns its
// result value. Buffered events are flushed on every exit path, so the
// sink sees the complete stream even when the run traps.
func (v *VM) Run() (int64, error) {
	if obs.Enabled() {
		mRuns.Inc()
	}
	if v.cfg.OverlapSink && v.sink != nil {
		v.startStage()
	}
	defer v.finishEvents()
	entry := v.prog.Funcs[v.prog.Entry]
	v.regs = make([]int64, 0, 4096)
	v.regs = append(v.regs, make([]int64, entry.NRegs)...)
	v.frames = v.frames[:0]
	v.frames = append(v.frames, frame{fn: v.prog.Entry, base: 0, entry: true})
	v.halted = false
	v.tlbFlush()

	if v.cfg.Dispatch == DispatchSwitch {
		return v.runSwitch()
	}
	startAcc := v.loads + v.stores
	startMiss, startBypass := v.tlbMiss, v.tlbBypass
	res, err := v.runThreaded(Predecode(v.prog))
	if obs.Enabled() {
		miss := v.tlbMiss - startMiss
		if miss > 0 {
			mTLBMisses.Add(miss)
		}
		if hits := (v.loads + v.stores - startAcc) - miss - (v.tlbBypass - startBypass); hits > 0 {
			mTLBHits.Add(hits)
		}
	}
	return res, err
}

// finishEvents delivers what is still buffered when Run exits and, for a
// staged run, waits until the sink has drained it all.
func (v *VM) finishEvents() {
	v.flushEvents()
	if s := v.stage; s != nil {
		v.endStage(s)
	}
}

// runSwitch is the reference interpreter: one switch over isa opcodes,
// kept byte-for-byte equivalent in observable behaviour to the threaded
// engine and exercised against it by the differential tests.
func (v *VM) runSwitch() (int64, error) {
	for {
		if len(v.frames) == 0 {
			return 0, errors.New("vm: frame stack underflow")
		}
		f := &v.frames[len(v.frames)-1]
		fn := v.prog.Funcs[f.fn]
		code := fn.Code
		regs := v.regs[f.base : f.base+fn.NRegs]

	inner:
		for {
			if f.pc >= len(code) {
				return 0, v.trap(*f, "fell off function end")
			}
			if v.steps >= v.cfg.MaxSteps {
				return 0, ErrMaxSteps
			}
			in := code[f.pc]
			v.steps++
			switch in.Op {
			case isa.OpNop:
				f.pc++
			case isa.OpConst:
				regs[in.A] = in.Imm
				f.pc++
			case isa.OpMov:
				regs[in.A] = regs[in.B]
				f.pc++
			case isa.OpAdd:
				regs[in.A] = regs[in.B] + regs[in.C]
				f.pc++
			case isa.OpSub:
				regs[in.A] = regs[in.B] - regs[in.C]
				f.pc++
			case isa.OpMul:
				regs[in.A] = regs[in.B] * regs[in.C]
				f.pc++
			case isa.OpDiv:
				if regs[in.C] == 0 {
					return 0, v.trap(*f, "division by zero")
				}
				regs[in.A] = regs[in.B] / regs[in.C]
				f.pc++
			case isa.OpMod:
				if regs[in.C] == 0 {
					return 0, v.trap(*f, "mod by zero")
				}
				regs[in.A] = regs[in.B] % regs[in.C]
				f.pc++
			case isa.OpAnd:
				regs[in.A] = regs[in.B] & regs[in.C]
				f.pc++
			case isa.OpOr:
				regs[in.A] = regs[in.B] | regs[in.C]
				f.pc++
			case isa.OpXor:
				regs[in.A] = regs[in.B] ^ regs[in.C]
				f.pc++
			case isa.OpShl:
				regs[in.A] = regs[in.B] << (uint64(regs[in.C]) & 63)
				f.pc++
			case isa.OpShr:
				regs[in.A] = int64(uint64(regs[in.B]) >> (uint64(regs[in.C]) & 63))
				f.pc++
			case isa.OpAddImm:
				regs[in.A] = regs[in.B] + in.Imm
				f.pc++
			case isa.OpEq:
				regs[in.A] = b2i(regs[in.B] == regs[in.C])
				f.pc++
			case isa.OpNe:
				regs[in.A] = b2i(regs[in.B] != regs[in.C])
				f.pc++
			case isa.OpLt:
				regs[in.A] = b2i(regs[in.B] < regs[in.C])
				f.pc++
			case isa.OpLe:
				regs[in.A] = b2i(regs[in.B] <= regs[in.C])
				f.pc++
			case isa.OpJmp:
				f.pc = int(in.Imm)
			case isa.OpBz:
				if regs[in.A] == 0 {
					f.pc = int(in.Imm)
				} else {
					f.pc++
				}
			case isa.OpBnz:
				if regs[in.A] != 0 {
					f.pc = int(in.Imm)
				} else {
					f.pc++
				}
			case isa.OpLoad:
				addr := uint64(regs[in.B] + in.Imm)
				if v.sink != nil {
					// Inlined emit: this is the hottest observation site.
					v.events = append(v.events, Event{Kind: EvAccess, Addr: addr, Size: in.Size})
					if len(v.events) == cap(v.events) {
						v.flushEvents()
					}
				}
				v.loads++
				regs[in.A] = int64(v.mem.Read(addr, in.Size))
				f.pc++
			case isa.OpStore:
				addr := uint64(regs[in.B] + in.Imm)
				if v.sink != nil {
					v.events = append(v.events, Event{Kind: EvAccess, Addr: addr, Size: in.Size, Write: true})
					if len(v.events) == cap(v.events) {
						v.flushEvents()
					}
				}
				v.stores++
				v.mem.Write(addr, in.Size, uint64(regs[in.A]))
				f.pc++
			case isa.OpGroupSet:
				v.group.Set(int(in.Imm))
				f.pc++
			case isa.OpGroupClr:
				v.group.Clear(int(in.Imm))
				f.pc++
			case isa.OpHalt:
				return 0, nil
			case isa.OpRet:
				val := regs[in.A]
				if f.entry {
					return val, nil
				}
				if v.sink != nil {
					v.emit(Event{Kind: EvReturn, Fn: int32(f.fn)})
				}
				dst, ret, base := f.dst, f.ret, f.base
				v.frames = v.frames[:len(v.frames)-1]
				v.regs = v.regs[:base]
				pf := &v.frames[len(v.frames)-1]
				v.regs[pf.base+int(dst)] = val
				pf.pc = ret
				break inner
			case isa.OpCall, isa.OpCallInd:
				var target isa.FnRef
				if in.Op == isa.OpCall {
					target = in.Fn
				} else {
					t := regs[in.D]
					if t < 0 || t >= int64(len(v.prog.Funcs)) {
						return 0, v.trap(*f, "indirect call to bad function index %d", t)
					}
					target = isa.FnRef(t)
				}
				if target.IsExtern() {
					res, err := v.callExtern(f, in.Addr, in.B, in.C, regs, target.ExternOf())
					if err != nil {
						return 0, err
					}
					if v.halted {
						return res, nil
					}
					regs[in.A] = res
					f.pc++
					continue
				}
				if len(v.frames) >= v.cfg.MaxDepth {
					return 0, v.trap(*f, "call stack overflow (%d frames)", len(v.frames))
				}
				callee := v.prog.Funcs[target]
				if int(in.C) != callee.NParams {
					return 0, v.trap(*f, "call to %s with %d args, want %d", callee.Name, in.C, callee.NParams)
				}
				newBase := len(v.regs)
				v.regs = append(v.regs, make([]int64, callee.NRegs)...)
				for i := 0; i < int(in.C); i++ {
					v.regs[newBase+i] = regs[int(in.B)+i]
				}
				v.frames = append(v.frames, frame{
					fn:   int(target),
					base: newBase,
					dst:  in.A,
					ret:  f.pc + 1,
				})
				if v.sink != nil {
					v.emit(Event{Kind: EvCall, Site: in.Addr, Fn: int32(target)})
				}
				break inner
			default:
				return 0, v.trap(*f, "illegal opcode %s", in.Op)
			}
		}
	}
}

// callExtern services an external call. Both engines route here: the
// switch interpreter passes the operands straight off the isa.Inst, the
// threaded dispatcher off the decoded record.
func (v *VM) callExtern(f *frame, site isa.Addr, argBase, argc uint8, regs []int64, ext isa.Extern) (int64, error) {
	arg := func(i int) int64 {
		if i < int(argc) {
			return regs[int(argBase)+i]
		}
		return 0
	}
	switch ext {
	case isa.ExtMalloc, isa.ExtCalloc, isa.ExtRealloc, isa.ExtFree:
		if v.siteAware != nil {
			v.siteAware.SetAllocSite(site)
		}
	}
	switch ext {
	case isa.ExtMalloc:
		size := uint64(arg(0))
		ptr := v.alloc.Malloc(size)
		if v.sink != nil {
			v.emit(Event{Kind: EvAlloc, AKind: KindMalloc, Addr: ptr, Bytes: size, Site: site})
		}
		return int64(ptr), nil
	case isa.ExtCalloc:
		n, size := uint64(arg(0)), uint64(arg(1))
		var ptr uint64
		if size != 0 && n > ^uint64(0)/size {
			// POSIX calloc: a product that overflows must fail, not
			// allocate the wrapped size and zero past the block.
			ptr = 0
		} else {
			ptr = v.alloc.Calloc(n, size)
			if ptr != 0 {
				v.mem.Zero(ptr, n*size)
			}
		}
		if v.sink != nil {
			v.emit(Event{Kind: EvAlloc, AKind: KindCalloc, Addr: ptr, Bytes: n * size, Site: site})
		}
		return int64(ptr), nil
	case isa.ExtRealloc:
		old, size := uint64(arg(0)), uint64(arg(1))
		ptr := v.alloc.Realloc(old, size)
		if v.sink != nil {
			v.emit(Event{Kind: EvAlloc, AKind: KindRealloc, Addr: ptr, Old: old, Bytes: size, Site: site})
		}
		return int64(ptr), nil
	case isa.ExtFree:
		ptr := uint64(arg(0))
		if ptr != 0 {
			v.alloc.Free(ptr)
		}
		if v.sink != nil {
			v.emit(Event{Kind: EvAlloc, AKind: KindFree, Old: ptr, Site: site})
		}
		return 0, nil
	case isa.ExtRand:
		bound := arg(0)
		r := v.rand()
		if bound > 0 {
			return int64(r % uint64(bound)), nil
		}
		return int64(r), nil
	case isa.ExtPrint:
		if v.cfg.Out != nil {
			fmt.Fprintln(v.cfg.Out, arg(0))
		}
		return arg(0), nil
	case isa.ExtExit:
		v.halted = true
		return arg(0), nil
	}
	return 0, v.trap(*f, "unknown external %d", ext)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
