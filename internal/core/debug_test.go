package core

import (
	"testing"

	"halo/internal/alloc"
	"halo/internal/bits"
	"halo/internal/halloc"
	"halo/internal/mem"
	"halo/internal/vm"
	"halo/internal/workloads"
)

// liveChecker is an event sink that verifies allocations never overlap
// and frees name live regions.
type liveChecker struct {
	t    *testing.T
	live map[uint64]uint64 // base -> size
	n    int
}

func (c *liveChecker) ConsumeEvents(batch []vm.Event) {
	for i := range batch {
		if batch[i].Kind == vm.EvAlloc {
			c.onAlloc(&batch[i])
		}
	}
}

func (c *liveChecker) onAlloc(ev *vm.Event) {
	c.n++
	switch ev.AKind {
	case vm.KindFree:
		if ev.Old == 0 {
			return
		}
		if _, ok := c.live[ev.Old]; !ok {
			c.t.Fatalf("event %d: free of unknown %#x", c.n, ev.Old)
		}
		delete(c.live, ev.Old)
		return
	case vm.KindRealloc:
		delete(c.live, ev.Old)
	}
	if ev.Addr == 0 {
		return
	}
	size := ev.Bytes
	if size == 0 {
		size = 1
	}
	for b, s := range c.live {
		if ev.Addr < b+s && b < ev.Addr+size {
			c.t.Fatalf("event %d: overlap new [%#x,%#x) (site %s) with live [%#x,%#x)",
				c.n, ev.Addr, ev.Addr+size, ev.Site, b, b+s)
		}
	}
	c.live[ev.Addr] = size
}

func TestHALORunLiveInvariants(t *testing.T) {
	for _, name := range []string{"omnetpp", "leela"} {
		w := workloads.MustGet(name)
		p := w.Build(w.TestScale)
		opt, err := Optimize(p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		memory := mem.NewMemory()
		osm := mem.NewOS(memory)
		fallback := alloc.NewSizeSeg(osm)
		state := bits.New(opt.Rewrite.NumBits + 1)
		cls := halloc.NewSelectorClassifier(state, opt.BitSelectors)
		ga := halloc.New(osm, fallback, cls, halloc.Config{})
		checker := &liveChecker{t: t, live: map[uint64]uint64{}}
		v := vm.New(opt.Rewrite.Prog, memory, ga, checker, vm.Config{Seed: 99, GroupState: state})
		if _, err := v.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Logf("%s: %d alloc events, %d live at exit", name, checker.n, len(checker.live))
	}
}
