package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"halo/internal/alloc"
	"halo/internal/isa"
	"halo/internal/obs"
	"halo/internal/vm"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer boundary. Calls into a layer that happen thousands of times
// per op (event batches, allocator calls) are kept as one aggregate span:
// Calls counts them and BusyNs is their summed time. For an ordinary span
// BusyNs is EndNs-StartNs.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for an op's root span
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	BusyNs  int64  `json:"busy_ns"`
	Calls   uint64 `json:"calls,omitempty"`
	// Async marks work another goroutine did on the op's behalf (a halod
	// job's stages). It overlaps its parent's siblings rather than nesting
	// in one, so it is reported beside the self-time split, not in it.
	Async bool `json:"async,omitempty"`
}

// tracer keeps the spans and counts of one round's traced ops in memory.
// It is not safe for concurrent use. A nil tracer records nothing.
type tracer struct {
	t0     time.Time
	op     int
	root   int // id of the current op's root span
	spans  []span
	counts []map[string]uint64 // per traced op, in the order traced
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// beginOp opens the root span of op i and returns its id.
func (t *tracer) beginOp(i int) int {
	t.op = i
	t.counts = append(t.counts, map[string]uint64{})
	t.root = t.begin("op", -1)
	return t.root
}

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := t.now()
	t.spans = append(t.spans, span{Name: name, Op: t.op, ID: len(t.spans), Parent: parent, StartNs: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.EndNs = t.now()
	s.BusyNs = s.EndNs - s.StartNs
}

// aggregate records many calls' summed time as one span under parent and
// returns its id.
func (t *tracer) aggregate(name string, parent int, busy time.Duration, calls uint64) int {
	now := t.now()
	t.spans = append(t.spans, span{Name: name, Op: t.op, ID: len(t.spans), Parent: parent,
		StartNs: now, EndNs: now, BusyNs: busy.Nanoseconds(), Calls: calls})
	return len(t.spans) - 1
}

// imported adds the stage spans a layer recorded itself (core.Config.Trace,
// hds stages, a halod job's stage list) under parent, renamed through
// names; stages missing from names are dropped. base is when the layer's
// trace started, as near as the caller knows it.
func (t *tracer) imported(stages []obs.Span, base time.Time, parent int, names map[string]string, async bool) {
	off := base.Sub(t.t0).Nanoseconds()
	for _, st := range stages {
		name, ok := names[st.Name]
		if !ok {
			continue
		}
		start := off + st.StartNs
		t.spans = append(t.spans, span{Name: name, Op: t.op, ID: len(t.spans), Parent: parent,
			StartNs: start, EndNs: start + st.DurNs, BusyNs: st.DurNs, Async: async})
	}
}

// count adds n to a per-op counter of the current op.
func (t *tracer) count(name string, n uint64) {
	if t != nil {
		t.counts[len(t.counts)-1][name] += n
	}
}

// selfTimes returns, per span name, the summed self time (busy time
// minus the busy time of direct synchronous children) over one tracer's
// ops. The root spans' self time is reported under "op"; it is the time
// no layer span covers. By construction the synchronous spans' values sum
// to the roots' busy time; async spans keep their busy time.
func selfTimes(spans []span) map[string]int64 {
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += s.BusyNs
		if s.Parent >= 0 && !s.Async {
			self[spans[s.Parent].Name] -= s.BusyNs // ids index spans
		}
	}
	return self
}

// writeTrace writes every round's spans and counts as one JSON document.
func writeTrace(path, workload string, seed uint64, tracers []*tracer) error {
	type round struct {
		Spans  []span              `json:"spans"`
		Counts []map[string]uint64 `json:"counts"`
	}
	doc := struct {
		Workload string  `json:"workload"`
		Seed     uint64  `json:"seed"`
		Rounds   []round `json:"rounds"`
	}{Workload: workload, Seed: seed}
	for _, t := range tracers {
		doc.Rounds = append(doc.Rounds, round{Spans: t.spans, Counts: t.counts})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timedSink wraps a vm.EventSink, summing the time spent in it.
type timedSink struct {
	inner   vm.EventSink
	busy    time.Duration
	batches uint64
	events  uint64
}

func (s *timedSink) ConsumeEvents(batch []vm.Event) {
	start := time.Now()
	s.inner.ConsumeEvents(batch)
	s.busy += time.Since(start)
	s.batches++
	s.events += uint64(len(batch))
}

// timedAlloc wraps an allocator, summing the time spent in it. It
// satisfies alloc.Allocator so it can also stand in for halloc's
// fallback allocator.
type timedAlloc struct {
	inner alloc.Allocator
	busy  time.Duration
	calls uint64
}

func (a *timedAlloc) Malloc(size uint64) uint64 {
	start := time.Now()
	p := a.inner.Malloc(size)
	a.busy += time.Since(start)
	a.calls++
	return p
}

func (a *timedAlloc) Calloc(n, size uint64) uint64 {
	start := time.Now()
	p := a.inner.Calloc(n, size)
	a.busy += time.Since(start)
	a.calls++
	return p
}

func (a *timedAlloc) Realloc(ptr, size uint64) uint64 {
	start := time.Now()
	p := a.inner.Realloc(ptr, size)
	a.busy += time.Since(start)
	a.calls++
	return p
}

func (a *timedAlloc) Free(ptr uint64) {
	start := time.Now()
	a.inner.Free(ptr)
	a.busy += time.Since(start)
	a.calls++
}

func (a *timedAlloc) SizeOf(ptr uint64) uint64 {
	start := time.Now()
	n := a.inner.SizeOf(ptr)
	a.busy += time.Since(start)
	a.calls++
	return n
}

func (a *timedAlloc) Stats() alloc.Stats { return a.inner.Stats() }
func (a *timedAlloc) Name() string       { return a.inner.Name() }

// siteAwareAlloc is a timedAlloc over an allocator that classifies by
// call site. The VM hands the immediate call site only to allocators
// implementing vm.SiteAware, so without the forward HALO's classifier
// would silently see no sites.
type siteAwareAlloc struct {
	timedAlloc
	sites vm.SiteAware
}

func (a *siteAwareAlloc) SetAllocSite(site isa.Addr) { a.sites.SetAllocSite(site) }

// timeAlloc wraps inner, forwarding vm.SiteAware when inner implements it.
// The returned *timedAlloc holds the counters.
func timeAlloc(inner alloc.Allocator) (alloc.Allocator, *timedAlloc) {
	if sa, ok := inner.(vm.SiteAware); ok {
		w := &siteAwareAlloc{timedAlloc: timedAlloc{inner: inner}, sites: sa}
		return w, &w.timedAlloc
	}
	w := &timedAlloc{inner: inner}
	return w, w
}

// rootID is the current op's root span id (-1 on a nil tracer).
func (t *tracer) rootID() int {
	if t == nil {
		return -1
	}
	return t.root
}
