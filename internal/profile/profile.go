// Package profile is the reproduction's replacement for the paper's
// Pin-based instrumentation tool (§4.1). Attached to the VM as its event
// sink, it:
//
//   - intercepts the POSIX.1 memory-management calls and tracks live data
//     at object-level granularity;
//   - maintains a shadow stack that records a frame only for targets
//     statically linked into the main binary (or traceable externals like
//     malloc), with call sites traced back to their nearest main-binary
//     origin, and canonicalises recursive stacks into reduced form;
//   - feeds every heap access through the affinity queue to build the
//     pairwise affinity graph; and
//   - optionally records the object-level data reference trace consumed by
//     the hot-data-streams comparison technique (internal/hds).
//
// Like the paper's tool, it applies no sampling: accuracy is preferred over
// profiling speed, which is why profiling runs use the small test inputs.
package profile

import (
	"fmt"

	"halo/internal/affinity"
	"halo/internal/isa"
	"halo/internal/obs"
	"halo/internal/vm"
)

// Profiler ingest metrics, recorded once per batch (never per event) so
// the 15–21M events/sec consume path is untouched between flushes.
var (
	mIngestEvents = obs.Default.Counter("halo_profile_events_total",
		"VM events consumed by profiler sinks")
	mIngestBatches = obs.Default.Counter("halo_profile_batches_total",
		"event batches consumed by profiler sinks")
)

// DefaultAffinityDistance is the paper's affinity distance A in bytes
// (§5.1, Figure 12).
const DefaultAffinityDistance = 128

// Config parameterises profiling.
type Config struct {
	// AffinityDistance is A in bytes; 0 = DefaultAffinityDistance.
	AffinityDistance uint64
	// MaxObjectSize bounds tracked objects; larger allocations are not
	// candidates for grouping. Default 4096 (§5.1).
	MaxObjectSize uint64
	// RecordTrace enables the data reference trace for hot-data-streams,
	// up to maxTrace references.
	RecordTrace bool
}

// maxTrace caps the recorded reference trace (8 Mi refs, 32 MiB).
const maxTrace = 8 << 20

func (c Config) withDefaults() Config {
	if c.AffinityDistance == 0 {
		c.AffinityDistance = DefaultAffinityDistance
	}
	if c.MaxObjectSize == 0 {
		c.MaxObjectSize = 4096
	}
	return c
}

// ObjectInfo is what the reference trace records of one allocation serial,
// once, at allocation.
type ObjectInfo struct {
	Site isa.Addr // immediate call site of the object's allocation
	Size uint32   // object size, for co-allocation benefit analysis
}

// Trace is the object-level data reference trace the hot-data-streams
// comparison (internal/hds) consumes: the allocation serial of each
// macro-deduplicated reference, in execution order, and each serial's
// ObjectInfo. It is read-only.
//
// Serials are recorded in 32 bits. The profiler already keeps a 16 B link
// per serial, so a run that issued 2^32 serials would hold 64 GiB of links
// before its trace could overflow. A nil *Trace is an empty trace.
type Trace struct {
	blocks  [][]uint32
	objects []ObjectInfo
	n       int
}

// Len reports the number of recorded references.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Blocks returns the recorded serials in order, as consecutive blocks.
func (t *Trace) Blocks() [][]uint32 {
	if t == nil {
		return nil
	}
	return t.blocks
}

// Objects returns each allocation serial's ObjectInfo, indexed by serial.
// Serial 0 is never issued; its entry is zero.
func (t *Trace) Objects() []ObjectInfo {
	if t == nil {
		return nil
	}
	return t.objects
}

// Profile is the result of a profiling run: only what the run observed.
// It is read-only once Finish, profstore.Decode or profstore.Merge returns
// it: the pipeline stages only read it, so one profile may feed several
// syntheses at once. Synthesis filters RawGraph itself (group.Filter).
type Profile struct {
	Prog     *isa.Program
	ProgName string          // survives serialisation, where Prog does not
	RawGraph *affinity.Graph // unfiltered
	Contexts []*Context      // indexed by affinity.Ctx
	Trace    *Trace          // nil unless Config.RecordTrace; not serialised

	TotalAllocs   uint64
	TrackedAllocs uint64
	PeakLive      int // peak live tracked objects

	// Events counts VM event records the profiler consumed; with the
	// run's wall-clock it yields profiling throughput (events/sec). It is
	// diagnostic only and is not serialised by profstore.
	Events uint64
}

// traceBlock is the length of one reference-trace recording block (16 Ki
// refs, 64 KiB).
const traceBlock = 1 << 14

// Profiler implements vm.EventSink: it drains the VM's batched event
// stream, paying one dynamic dispatch per batch and direct calls within.
// Per-event work is allocation-free in steady state: the shadow stack, the
// chain scratch buffers, the object index, the affinity queue and the
// graph all reuse their backing arrays. The reference trace, which only
// grows, is recorded in fixed traceBlock-length blocks, so it allocates one
// block per traceBlock refs and never copies what it has recorded; Finish
// hands the blocks to the profile as they are.
type Profiler struct {
	prog *isa.Program
	cfg  Config

	// native mirrors the true call stack: one frame per internal call.
	native []nframe

	// chainBuf and redBuf are scratch space for currentContext, reused
	// across allocations so building a reduced chain allocates only when
	// the chain is new to the intern table.
	chainBuf []ChainEntry
	redBuf   []ChainEntry

	contexts *contextTable
	objects  *objIndex
	queue    *affinity.Queue
	graph    *affinity.Graph

	// links holds, for every allocation serial, the previous and next
	// serial issued from the same context (links[0] absorbs the next
	// link of each context's first serial), and last the latest serial
	// of each context: all the co-allocatability check reads.
	links []link
	last  []uint64

	events uint64

	// trace is the block being filled, blocks the full ones before it,
	// and traceLen the refs recorded in all of them. traced holds each
	// serial's ObjectInfo, indexed by serial.
	trace    []uint32
	blocks   [][]uint32
	traceLen int
	traced   []ObjectInfo

	totalAllocs   uint64
	trackedAllocs uint64
	peakLive      int
}

// link chains one allocation serial to its neighbours from the same
// context; 0 means there is none (serials start at 1).
type link struct {
	prev, next uint64
}

type nframe struct {
	site isa.Addr // call site that created this frame
	fn   int32    // callee function index
	lib  bool     // callee is library code
}

// New builds a profiler for the program.
func New(p *isa.Program, cfg Config) *Profiler {
	cfg = cfg.withDefaults()
	pr := &Profiler{
		prog:     p,
		cfg:      cfg,
		contexts: newContextTable(),
		objects:  newObjIndex(),
		graph:    affinity.NewGraph(),
		links:    make([]link, 1, 1024),
	}
	if cfg.RecordTrace {
		pr.traced = make([]ObjectInfo, 1, 1024)
	}
	pr.queue = affinity.NewQueue(cfg.AffinityDistance, pr.graph, pr)
	return pr
}

// Interferes implements affinity.Interference: it reports whether the
// context of serial lo or of serial hi allocated strictly between them.
// Every serial up to the newest is linked to its context's next and
// previous allocation, so each context needs one comparison.
func (p *Profiler) Interferes(lo, hi uint64) bool {
	next := p.links[lo].next
	return next != 0 && next < hi || p.links[hi].prev > lo
}

// issue assigns the next allocation serial to context c, which is either
// a context that allocated before or the next new one, links it to the
// context's previous serial, and returns it.
func (p *Profiler) issue(c affinity.Ctx) uint64 {
	s := uint64(len(p.links))
	if int(c) == len(p.last) {
		p.last = append(p.last, 0)
	}
	prev := p.last[c]
	p.links[prev].next = s
	p.links = append(p.links, link{prev: prev})
	p.last[c] = s
	return s
}

// ConsumeEvents implements vm.EventSink. Batch order is execution order,
// so the shadow stack, the object index and the affinity queue observe the
// exact sequence the per-event engine produced.
//
//halo:hot
func (p *Profiler) ConsumeEvents(batch []vm.Event) {
	if obs.Enabled() {
		mIngestEvents.Add(uint64(len(batch)))
		mIngestBatches.Inc()
	}
	p.events += uint64(len(batch))
	for i := range batch {
		ev := &batch[i]
		switch ev.Kind {
		case vm.EvAccess:
			p.access(ev.Addr, ev.Size)
		case vm.EvCall:
			p.call(ev.Site, ev.Fn)
		case vm.EvReturn:
			p.ret()
		case vm.EvAlloc:
			p.alloc(ev)
		}
	}
}

// call pushes a shadow-stack frame for an internal call.
//
//halo:hot
func (p *Profiler) call(site isa.Addr, callee int32) {
	p.native = append(p.native, nframe{site: site, fn: callee, lib: p.prog.Funcs[callee].Lib})
}

// ret pops the shadow stack on an internal return.
//
//halo:hot
func (p *Profiler) ret() {
	if n := len(p.native); n > 0 {
		p.native = p.native[:n-1]
	}
}

// siteInMain reports whether a call site lies in main-binary code.
func (p *Profiler) siteInMain(site isa.Addr) bool {
	f := p.prog.FuncOf(site)
	return f != nil && !f.Lib
}

// currentContext builds the reduced allocation context for an allocation
// whose immediate (possibly library-resident) call site is rawSite. The
// raw and reduced chains are assembled in scratch buffers owned by the
// profiler, so a context already in the intern table costs no allocation.
func (p *Profiler) currentContext(rawSite isa.Addr) *Context {
	chain := p.chainBuf[:0]
	lastMain := isa.NoAddr
	for _, f := range p.native {
		if p.siteInMain(f.site) {
			lastMain = f.site
		}
		if !f.lib {
			// The shadow stack records frames only for targets inside
			// the main binary; the recorded call site is the nearest
			// main-binary origin.
			chain = append(chain, ChainEntry{Fn: f.fn, Site: lastMain})
		}
	}
	alloSite := rawSite
	if !p.siteInMain(rawSite) {
		alloSite = lastMain
	}
	chain = append(chain, ChainEntry{Fn: AllocFn, Site: alloSite})
	p.chainBuf = chain
	p.redBuf = reduceChainInto(p.redBuf[:0], chain)
	return p.contexts.intern(p.redBuf)
}

// alloc tracks one intercepted memory-management call.
//
//halo:hot
func (p *Profiler) alloc(ev *vm.Event) {
	switch ev.AKind {
	case vm.KindFree:
		p.objects.remove(ev.Old)
		return
	case vm.KindRealloc:
		p.objects.remove(ev.Old)
	}
	p.totalAllocs++
	if ev.Addr == 0 {
		return
	}
	ctx := p.currentContext(ev.Site)
	ctx.Allocs++
	serial := p.issue(ctx.ID)
	size := max(ev.Bytes, 1)
	if p.cfg.RecordTrace {
		p.traced = append(p.traced, ObjectInfo{Site: ev.Site, Size: uint32(size)})
	}
	if ev.Bytes > p.cfg.MaxObjectSize {
		return // not a grouping candidate; leave untracked
	}
	p.trackedAllocs++
	p.objects.insert(object{
		base:   ev.Addr,
		size:   size,
		serial: serial,
		ctx:    ctx.ID,
	})
	if p.objects.len() > p.peakLive {
		p.peakLive = p.objects.len()
	}
}

// access feeds one load or store through the affinity queue and, when
// tracing is enabled, the hot-data-streams trace recorder.
//
//halo:hot
func (p *Profiler) access(addr uint64, size uint8) {
	o := p.objects.find(addr)
	if o == nil {
		return
	}
	p.queue.Push(affinity.Access{Obj: o.serial, Ctx: o.ctx, Size: uint32(size)})
	if p.cfg.RecordTrace && p.traceLen < maxTrace {
		// The reference trace is macro-deduplicated the same way the
		// affinity queue is: consecutive references to one object are a
		// single trace element. A new block starts only when a ref is
		// recorded, so the last ref is always in p.trace.
		s := uint32(o.serial)
		if n := len(p.trace); n == 0 || p.trace[n-1] != s {
			if n == cap(p.trace) {
				p.nextBlock()
			}
			p.trace = append(p.trace, s)
			p.traceLen++
		}
	}
}

// nextBlock files the full trace block and starts an empty one.
func (p *Profiler) nextBlock() {
	if p.trace != nil {
		p.blocks = append(p.blocks, p.trace)
	}
	p.trace = make([]uint32, 0, traceBlock)
}

// recordedTrace wraps the recorded blocks, without copying them, as the
// profile's trace (nil when tracing is off).
func (p *Profiler) recordedTrace() *Trace {
	if !p.cfg.RecordTrace {
		return nil
	}
	blocks := p.blocks
	if len(p.trace) > 0 {
		blocks = append(blocks, p.trace)
	}
	return &Trace{blocks: blocks, objects: p.traced, n: p.traceLen}
}

// Finish produces the profile.
func (p *Profiler) Finish() *Profile {
	return &Profile{
		Prog:          p.prog,
		ProgName:      p.prog.Name,
		RawGraph:      p.graph,
		Contexts:      p.contexts.list,
		Trace:         p.recordedTrace(),
		TotalAllocs:   p.totalAllocs,
		TrackedAllocs: p.trackedAllocs,
		PeakLive:      p.peakLive,
		Events:        p.events,
	}
}

// DescribeTop renders the n heaviest contexts of g, a graph over p's
// contexts (its raw graph or a filtered one): a debugging aid mirroring the
// paper's Figure 9 node listing.
func (p *Profile) DescribeTop(g *affinity.Graph, n int) string {
	hot := g.Hottest()
	out := ""
	for _, c := range hot[:min(n, len(hot))] {
		out += fmt.Sprintf("%8d  %s\n", g.Accesses(c), p.Contexts[c].Describe(p.Prog))
	}
	return out
}
