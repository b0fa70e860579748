// Batched event-stream engine. The VM appends one compact, fixed-size
// Event record per observable action (access, call, return, memory
// management) to a ring buffer and hands full batches to a single
// EventSink: one dynamic dispatch per batch rather than one virtual call
// per event. Consumers (the profiler, the cache hierarchy) implement
// EventSink directly.
//
// Determinism contract: the event sequence a sink observes is exactly the
// execution order of the program, independent of the batch size. Batching
// changes only how many records arrive per ConsumeEvents call, never their
// order or content, so any deterministic consumer produces bit-identical
// results under any BatchSize.
package vm

import (
	"halo/internal/isa"
	"halo/internal/obs"
)

// EventKind discriminates event records.
type EventKind uint8

// Event kinds.
const (
	// EvAccess is a program load or store.
	EvAccess EventKind = iota
	// EvCall marks control transferring into an internal function.
	EvCall
	// EvReturn marks an internal function returning to its caller.
	EvReturn
	// EvAlloc is an intercepted memory-management call.
	EvAlloc
)

// Event is one fixed-size record of the execution event stream. Field use
// by kind:
//
//	EvAccess: Addr, Size, Write
//	EvCall:   Site (call instruction), Fn (callee index)
//	EvReturn: Fn (returning function index)
//	EvAlloc:  AKind, Addr (resulting pointer), Old (prior pointer for
//	          realloc/free), Bytes (requested size), Site (call site)
type Event struct {
	Kind  EventKind
	AKind AllocKind
	Size  uint8
	Write bool
	Fn    int32
	Site  isa.Addr
	Addr  uint64
	Old   uint64
	Bytes uint64
}

// EventSink consumes batches of events. The batch slice is owned by the VM
// and reused after the call returns; sinks must not retain it. Batches are
// delivered in execution order and are never empty.
type EventSink interface {
	ConsumeEvents(batch []Event)
}

// DefaultBatchSize is the event-buffer capacity when Config.BatchSize is
// zero. Large enough to amortise the dispatch, small enough to stay
// cache-resident (4096 records × 40 B = 160 KiB).
const DefaultBatchSize = 4096

// emit appends one event, flushing when the buffer fills. Callers have
// already checked v.sink != nil.
func (v *VM) emit(ev Event) {
	v.events = append(v.events, ev)
	if len(v.events) == cap(v.events) {
		v.flushEvents()
	}
}

// flushEvents delivers any buffered events to the sink, or to the stage's
// helper when Run has one (stage.go). The VM flushes when the buffer fills
// and once when Run finishes (on success, trap, or budget exhaustion), so
// sinks always observe the complete stream. Engine metrics are sampled
// here, per batch, so the per-event paths stay untouched.
func (v *VM) flushEvents() {
	if v.sink == nil || len(v.events) == 0 {
		return
	}
	if obs.Enabled() {
		mEvents.Add(uint64(len(v.events)))
		mBatches.Inc()
		mBatchFill.Set(int64(len(v.events) * 100 / cap(v.events)))
	}
	if v.stage != nil {
		v.hand(v.stage)
		return
	}
	v.sink.ConsumeEvents(v.events)
	v.events = v.events[:0]
}
