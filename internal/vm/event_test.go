package vm

import (
	"reflect"
	"testing"

	"halo/internal/isa"
	"halo/internal/mem"
	"halo/internal/prog"
)

// recordSink captures the raw event stream plus flush boundaries.
type recordSink struct {
	events  []Event
	batches []int
}

func (r *recordSink) ConsumeEvents(batch []Event) {
	r.events = append(r.events, batch...)
	r.batches = append(r.batches, len(batch))
}

// buildEventProgram makes a program with calls, accesses and allocations.
func buildEventProgram(t *testing.T) *isa.Program {
	t.Helper()
	b := prog.NewBuilder("events")
	touch := b.Func("touch", 1)
	v := touch.ConstReg(5)
	touch.StoreWord(touch.Param(0), 0, v)
	r := touch.Reg()
	touch.LoadWord(r, touch.Param(0), 0)
	touch.Ret(r)

	f := b.Func("main", 0)
	size := f.ConstReg(32)
	p := f.Malloc(size)
	f.LoopN(10, func(prog.Reg) { f.Call("touch", p) })
	f.Free(p)
	f.RetConst(0)
	pr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func streamAt(t *testing.T, p *isa.Program, batchSize int) *recordSink {
	t.Helper()
	sink := &recordSink{}
	m := mem.NewMemory()
	if _, err := New(p, m, newBump(m), sink, Config{BatchSize: batchSize}).Run(); err != nil {
		t.Fatal(err)
	}
	return sink
}

// TestEventStreamBatchInvariance is the engine-level determinism contract:
// the concatenated stream is identical at every batch size, including
// per-event delivery (BatchSize 1).
func TestEventStreamBatchInvariance(t *testing.T) {
	p := buildEventProgram(t)
	want := streamAt(t, p, 1)
	if len(want.events) == 0 {
		t.Fatal("no events recorded")
	}
	for _, size := range []int{2, 3, DefaultBatchSize} {
		got := streamAt(t, p, size)
		if !reflect.DeepEqual(got.events, want.events) {
			t.Fatalf("batch=%d: stream differs (%d vs %d events)", size, len(got.events), len(want.events))
		}
	}
}

// TestEventStreamFlushBounds checks that every delivered batch respects
// the configured capacity and that nothing is lost at the tail.
func TestEventStreamFlushBounds(t *testing.T) {
	p := buildEventProgram(t)
	sink := streamAt(t, p, 4)
	for i, n := range sink.batches {
		if n == 0 || n > 4 {
			t.Fatalf("batch %d has %d events, want 1..4", i, n)
		}
	}
	total := 0
	for _, n := range sink.batches {
		total += n
	}
	if total != len(sink.events) {
		t.Fatalf("batches sum to %d, stream has %d", total, len(sink.events))
	}
}

// TestEventStreamFlushedOnTrap ensures a trapping run still delivers every
// event emitted before the trap.
func TestEventStreamFlushedOnTrap(t *testing.T) {
	b := prog.NewBuilder("trap")
	f := b.Func("main", 0)
	size := f.ConstReg(8)
	p := f.Malloc(size)
	v := f.ConstReg(1)
	f.StoreWord(p, 0, v)
	z := f.ConstReg(0)
	r := f.Reg()
	f.Div(r, v, z) // traps
	f.Ret(r)
	pr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordSink{}
	m := mem.NewMemory()
	if _, err := New(pr, m, newBump(m), sink, Config{BatchSize: DefaultBatchSize}).Run(); err == nil {
		t.Fatal("no trap")
	}
	var allocs, stores int
	for _, ev := range sink.events {
		switch ev.Kind {
		case EvAlloc:
			allocs++
		case EvAccess:
			if ev.Write {
				stores++
			}
		}
	}
	if allocs != 1 || stores != 1 {
		t.Fatalf("pre-trap events not flushed: %d allocs, %d stores (stream %d)", allocs, stores, len(sink.events))
	}
}

// TestNilSinkRunsBare ensures observation stays fully disabled with a nil
// sink (no buffer allocated, no flush attempted).
func TestNilSinkRunsBare(t *testing.T) {
	p := buildEventProgram(t)
	m := mem.NewMemory()
	v := New(p, m, newBump(m), nil, Config{})
	if v.events != nil {
		t.Fatal("event buffer allocated without a sink")
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
}
