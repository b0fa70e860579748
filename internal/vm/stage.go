// Event stage. With Config.OverlapSink set, Run hands full batches to a
// helper goroutine borrowed from internal/pool's process-wide budget
// instead of calling the sink itself, so the VM fills the next batch while
// the sink drains earlier ones. The VM and the helper pass a fixed set of
// stageDepth buffers back and forth — filled ones VM→helper over one FIFO
// channel, drained ones back over another — so no event is copied, and the
// sink receives exactly the batches, in exactly the order, that inline
// delivery would give it. The stage reads no clock and makes no decision
// the event stream depends on: it changes when a batch is consumed, never
// what the sink observes.
//
// Run returns only after the helper has drained every batch and gone back
// to the budget, on every exit path (success, trap, step budget, or a
// panic unwinding through Run). A sink panic on the helper is recovered
// there and raised again, with the same value, on the goroutine that
// called Run: at the next flush if the VM is still running, or when Run
// ends. The VM never waits on a helper that has died.
package vm

import "halo/internal/pool"

// stageDepth is the number of batch buffers a stage cycles through: the
// one the VM fills plus up to three queued for or held by the sink.
const stageDepth = 4

// batchSet is one stage's buffers, recycled across runs through
// spareSets.
type batchSet [stageDepth][]Event

// spareSets keeps a few stages' buffers between staged runs, so a run
// that borrows a helper allocates no event storage at all. It is a
// bounded channel rather than a sync.Pool because every GC cycle empties
// a sync.Pool's older half, and a measurement run allocates enough to
// trigger GCs between runs.
var spareSets = make(chan *batchSet, 4)

// stage is the VM side's view of one borrowed helper.
type stage struct {
	sink EventSink
	bufs *batchSet
	full chan []Event    // filled batches, VM → helper, in execution order
	free chan []Event    // drained buffers, helper → VM
	done <-chan struct{} // closed once the helper is back in the budget

	// fault is the sink's panic value, written by the helper before done
	// closes and read by the VM after.
	fault any
}

// startStage borrows a helper for this run and hands the VM its first
// buffer. With no helper free the VM keeps delivering inline.
func (v *VM) startStage() {
	s := &stage{
		sink: v.sink,
		full: make(chan []Event, stageDepth),
		free: make(chan []Event, stageDepth),
	}
	done, ok := pool.Go(s.drain)
	if !ok {
		if v.events == nil {
			v.events = make([]Event, 0, v.cfg.BatchSize)
		}
		return
	}
	s.done = done
	select {
	case s.bufs = <-spareSets:
	default:
	}
	if s.bufs == nil || cap(s.bufs[0]) != v.cfg.BatchSize {
		s.bufs = new(batchSet)
		for i := range s.bufs {
			s.bufs[i] = make([]Event, 0, v.cfg.BatchSize)
		}
	}
	for _, b := range s.bufs[1:] {
		s.free <- b
	}
	v.events = s.bufs[0]
	v.stage = s
}

// drain is the helper's loop: consume each filled batch in arrival order
// and hand its buffer back. A sink panic ends the loop; the VM raises it.
func (s *stage) drain() {
	defer func() {
		s.fault = recover()
	}()
	for b := range s.full {
		s.sink.ConsumeEvents(b)
		s.free <- b[:0]
	}
}

// hand passes a filled batch to the helper and takes an empty buffer
// back. full never blocks — it has room for every buffer — and the wait
// for a free buffer ends as soon as the helper dies, in which case the
// sink's panic is raised here.
func (v *VM) hand(s *stage) {
	s.full <- v.events
	select {
	case v.events = <-s.free:
	case <-s.done:
		v.stage, v.events = nil, nil
		panic(s.fault) //halo:errfmt-ok re-raises the sink's own panic on Run's caller, as inline delivery would
	}
}

// endStage, once the last batch has been handed over, waits for the
// helper to drain everything and return to the budget, recycles the
// buffers, and raises the sink's panic if it had one.
func (v *VM) endStage(s *stage) {
	v.stage, v.events = nil, nil
	close(s.full)
	<-s.done
	if s.fault != nil {
		panic(s.fault) //halo:errfmt-ok re-raises the sink's own panic on Run's caller, as inline delivery would
	}
	select {
	case spareSets <- s.bufs:
	default:
	}
}
